import contextlib
import os
import resource
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iisan import backbone as bb
from iisan import cache, recsys
from iisan.recsys import CachedStateProvider
from iisan.sanet import select_layers
from iisan.errors import ConfigError, FormatError, InputError, StalenessError, VersionError


def _cfg(**kw):
    base = dict(modality="text", layers=2, hidden_dim=8,
                vocab_or_patch_count=64, max_positions=16, seed=9)
    base.update(kw)
    return bb.EncoderConfig(**base)


def _random_rows(n, m, h, seed=0):
    rng = np.random.default_rng(seed)
    return [(i, rng.normal(size=(m, h)).astype(np.float32)) for i in range(n)]


def test_file_size_formula_thousand_items(tmp_path):
    path = tmp_path / "big.iisc"
    m, h = 7, 64
    summary = cache.write_cache(path, 0xBEEF, range(m), h, _random_rows(1000, m, h))
    assert summary.byte_size == cache.cache_file_size(1000, m, h)
    assert path.stat().st_size == summary.byte_size
    # payload portion alone: 1000 * (8 + 7*64*4) = 1_800_000
    assert summary.byte_size - cache.header_size(m) == 1_800_000


def test_roundtrip_with_all_layers_is_bit_exact(tmp_path):
    enc = bb.FrozenEncoder(_cfg())
    path = tmp_path / "full.iisc"
    items = [4, 1, 9]
    cache.build_cache(enc, items, range(enc.cfg.layers + 1), path)
    store = cache.CacheStore(path, expected_fingerprint=enc.fingerprint)
    for item_id in items:
        direct = bb.encode_item(enc, bb.item_tokens(enc.cfg, item_id))
        np.testing.assert_array_equal(store.read_item(item_id), direct)


def test_pruned_roundtrip_bit_exact(tmp_path):
    enc = bb.FrozenEncoder(_cfg(layers=4))
    keep = [0, 2, 4]
    path = tmp_path / "pruned.iisc"
    cache.build_cache(enc, [11, 12], keep, path)
    store = cache.CacheStore(path)
    direct = bb.encode_item(enc, bb.item_tokens(enc.cfg, 12))
    np.testing.assert_array_equal(store.read_item(12), direct[keep])


def test_pruning_81_states_to_6_shrinks_payload_by_13_5(tmp_path):
    h = 64
    full = cache.write_cache(tmp_path / "full.iisc", 1, range(81), h, _random_rows(20, 81, h))
    pruned = cache.write_cache(tmp_path / "six.iisc", 1, [15, 28, 41, 54, 67, 80], h,
                               [(i, s[[15, 28, 41, 54, 67, 80]]) for i, s in _random_rows(20, 81, h)])
    payload_full = full.byte_size - cache.header_size(81) - 20 * 8
    payload_pruned = pruned.byte_size - cache.header_size(6) - 20 * 8
    assert payload_full / payload_pruned == 13.5


def test_payload_scales_linearly_with_kept_layers(tmp_path):
    h, n = 16, 50
    sizes = {}
    for m in (2, 4, 8):
        s = cache.write_cache(tmp_path / f"m{m}.iisc", 1, range(m), h, _random_rows(n, m, h))
        sizes[m] = s.byte_size - cache.header_size(m) - n * 8
    assert sizes[4] == 2 * sizes[2]
    assert sizes[8] == 4 * sizes[2]


def test_read_absent_item(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    store = cache.CacheStore(path)
    with pytest.raises(StalenessError, match="item 999 "):
        store.read_item(999)
    with pytest.raises(StalenessError, match="item 999 "):  # one absent id fails the whole batch
        store.read_items([2, 999, 0])
    for absent in (-1, 2 ** 64):  # no u64 record holds these
        with pytest.raises(StalenessError):
            store.read_item(absent)
    cache.write_cache(path, 7, [0, 1], 4, [])
    empty = cache.CacheStore(path)
    for ids in ([0], [2, 0], [2 ** 64 - 1]):
        with pytest.raises(StalenessError):
            empty.read_items(ids)


def test_ids_beyond_float64_precision_read_back_exactly(tmp_path):
    """A u64 id column searched with float64 would take 2^53 + 1 for 2^53."""
    big = [2 ** 53, 2 ** 53 + 1, 2 ** 64 - 1]
    rows = [(item_id, np.full((3, 4), k, dtype=np.float32)) for k, item_id in enumerate([5, *big])]
    paths = [tmp_path / f"{side}.iisc" for side in ("text", "image")]
    for path in paths:
        cache.write_cache(path, 7, [0, 2, 4], 4, rows)
    text, image = (cache.CacheStore(path) for path in paths)
    expected = np.stack([np.full((3, 4), k, dtype=np.float32) for k in (1, 2, 3)])
    np.testing.assert_array_equal(text.read_items(big), expected)
    np.testing.assert_array_equal(text.read_items(big[1::-1]), expected[1::-1])  # ids that fit an int64
    np.testing.assert_array_equal(np.stack([text.read_item(i) for i in big]), expected)
    plan = select_layers("symmetric_even", 4)  # caches layers (0, 2, 4)
    for states in CachedStateProvider(text, image, plan, plan).batch_states(big):
        for j, layer in enumerate(states):
            np.testing.assert_array_equal(layer.data, expected[:, j])


def test_read_items_keeps_the_order_asked(tmp_path):
    path = tmp_path / "c.iisc"
    rows = _random_rows(40, 2, 4)
    cache.write_cache(path, 7, [0, 1], 4, rows)
    store = cache.CacheStore(path)
    ids = [int(i) for i in np.random.default_rng(3).permutation(40)[:25]]
    states = store.read_items(ids)
    assert states.dtype == np.float32 and states.shape == (25, 2, 4)
    np.testing.assert_array_equal(states, np.stack([store.read_item(i) for i in ids]))
    np.testing.assert_array_equal(states, np.stack([rows[i][1] for i in ids]))


def test_wrong_fingerprint_is_stale(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    with pytest.raises(StalenessError):
        cache.CacheStore(path, expected_fingerprint=8)


def test_invalid_keep_layers_rejected(tmp_path):
    enc = bb.FrozenEncoder(_cfg())
    with pytest.raises(ConfigError):
        cache.build_cache(enc, [1], [0, 0], tmp_path / "x.iisc")
    with pytest.raises(ConfigError):
        cache.build_cache(enc, [1], [0, 5], tmp_path / "x.iisc")
    with pytest.raises(InputError):
        cache.build_cache(enc, [], [0, 1], tmp_path / "x.iisc")


def test_verify_fresh_cache_clean(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1, 2], 8, _random_rows(200, 3, 8))
    report = cache.verify_cache(path)
    assert report.ok, report.issues
    assert report.item_count == 200


def test_verify_flipped_magic(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    report = cache.verify_cache(path)
    assert not report.ok
    assert any("magic" in issue for issue in report.issues)


def test_verify_count_mismatch(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])  # drop part of the last record
    report = cache.verify_cache(path)
    assert not report.ok
    assert any("mismatch" in issue for issue in report.issues)


@pytest.mark.parametrize("count, record, value", [(5, 0, np.nan), (15, 1, np.nan), (150, 149, np.inf)],
                         ids=["nan-first", "nan-second", "inf-last"])
def test_verify_flags_non_finite_payload(tmp_path, count, record, value):
    path = tmp_path / "c.iisc"
    rows = _random_rows(count, 2, 4)
    rows[record][1][1, 3] = value
    cache.write_cache(path, 7, [0, 1], 4, rows)
    report = cache.verify_cache(path)
    assert not report.ok
    assert report.issues == [f"non-finite payload in record for item {record}"]


def test_import_truncated_file_reports_offset(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    raw = path.read_bytes()
    for cut in (len(raw) - 5, 10):  # inside the last record, inside the header
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as exc:
            cache.CacheStore(path)
        assert exc.value.offset is not None


def test_import_unknown_version(tmp_path):
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version field, little-endian u16 at offset 4
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        cache.CacheStore(path)


def _patched(tmp_path, at_and_bytes):
    """A valid 3-record cache (m=2, H=4) with bytes overwritten at given offsets."""
    path = tmp_path / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    raw = bytearray(path.read_bytes())
    for at, data in at_and_bytes:
        raw[at:at + len(data)] = data
    path.write_bytes(bytes(raw))
    return path


def _record_id_at(i):
    return cache.header_size(2) + i * cache.record_size(2, 4)


@pytest.mark.parametrize("ids", [(0, 0, 2), (1, 0, 2)], ids=["duplicate", "swapped"])
def test_store_rejects_ids_out_of_order(tmp_path, ids):
    path = _patched(tmp_path, [(_record_id_at(i), struct.pack("<Q", v)) for i, v in enumerate(ids)])
    with pytest.raises(FormatError) as exc:
        cache.CacheStore(path)
    assert exc.value.offset == _record_id_at(1)
    report = cache.verify_cache(path)
    assert not report.ok
    assert any("ascending" in issue for issue in report.issues)


@pytest.mark.parametrize("hidden_dim", [2 ** 31, 2 ** 29], ids=["dim-beyond-c-int", "record-beyond-2GiB"])
def test_store_rejects_records_numpy_cannot_describe(tmp_path, hidden_dim):
    hidden_at = cache.header_size(2) - 4
    path = _patched(tmp_path, [(hidden_at, struct.pack("<I", hidden_dim))])
    with pytest.raises(FormatError) as exc:
        cache.CacheStore(path)
    assert exc.value.offset == hidden_at
    assert not cache.verify_cache(path).ok


def test_store_rejects_kept_layers_out_of_order(tmp_path):
    kept_at = cache.header_size(0) - 4  # the kept indices follow the fixed header
    path = _patched(tmp_path, [(kept_at, struct.pack("<2H", 1, 0))])
    with pytest.raises(FormatError) as exc:
        cache.CacheStore(path)
    assert exc.value.offset == kept_at
    assert not cache.verify_cache(path).ok


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """Bytes of a valid 148-byte cache (3 records, m=2, H=4) and a path for damaged copies."""
    path = tmp_path_factory.mktemp("fuzz") / "c.iisc"
    cache.write_cache(path, 7, [0, 1], 4, _random_rows(3, 2, 4))
    return path.read_bytes(), path


def test_cache_truncated_at_every_offset(small_cache):
    raw, path = small_cache
    assert len(raw) == 148
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError) as exc:
            cache.CacheStore(path)
        assert exc.value.offset is not None, cut
        assert not cache.verify_cache(path).ok


# header field -> (byte offset, struct format): after magic, version and fingerprint
_FIELDS = {"count": (14, "<I"), "m": (18, "<H"), "hidden_dim": (cache.header_size(2) - 4, "<I")}


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_damaged_cache_raises_only_format_errors(small_cache, data):
    """Overwritten bytes, patched count, m and hidden-dim fields, and a truncation:
    opening and reading every held record raises nothing but a FormatError
    (VersionError is one) with a byte offset, and verify_cache never raises."""
    raw, path = small_cache
    damaged = bytearray(raw)
    for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
                                        max_size=3)):
        damaged[at] = value
    for name in data.draw(st.sets(st.sampled_from(sorted(_FIELDS)))):
        at, fmt = _FIELDS[name]
        struct.pack_into(fmt, damaged, at, data.draw(st.integers(0, 256 ** struct.calcsize(fmt) - 1)))
    path.write_bytes(bytes(damaged[:data.draw(st.integers(0, len(raw)))]))
    try:
        store = cache.CacheStore(path)
        store.read_items(store._ids)
    except FormatError as exc:
        assert exc.offset is not None
    assert isinstance(cache.verify_cache(path).ok, bool)


@contextlib.contextmanager
def _file_size_limit(nbytes):
    """Writes that would grow a file past `nbytes` fail with EFBIG, as on a full
    disk; CPython ignores SIGXFSZ, so the write raises OSError."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


def _write_cache(path, seed):
    cache.write_cache(path, seed, [0, 1], 4, _random_rows(30, 2, 4, seed))


def _write_checkpoint(path, seed):
    rec = recsys.build_rec_model("vs", 2, 8, 2, 8, bottleneck=2, dseq=8, seq_blocks=1, seq_heads=2,
                                 max_seq_len=4, seed=seed)
    recsys.save_rec_checkpoint(path, rec, (seed, seed))


def _write_interactions(path, seed):
    rng = np.random.default_rng(seed)
    recsys.save_interactions(path, {u: rng.integers(0, 1000, size=12).tolist() for u in range(1, 41)})


@pytest.mark.parametrize("write", [_write_cache, _write_checkpoint, _write_interactions],
                         ids=["cache", "checkpoint", "interactions"])
def test_write_failing_midway_keeps_the_previous_artifact(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, 1)
    good = path.read_bytes()
    with _file_size_limit(len(good) // 2), pytest.raises(OSError):
        write(path, 2)
    assert path.read_bytes() == good
    assert os.listdir(tmp_path) == ["artifact"]  # the temporary file is gone
