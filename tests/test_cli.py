import hashlib
import re
import struct

import pytest

from iisan import cache, cli, recsys
from iisan.cli import SyntheticSpec, build_config, config_hash, generate_synthetic, main
from iisan.errors import ConfigError


SMALL = [
    "--set", "text.layers=4", "--set", "text.hidden=16", "--set", "text.vocab=64",
    "--set", "image.layers=4", "--set", "image.hidden=16", "--set", "image.vocab=64",
    "--set", "san.bottleneck=4", "--set", "seq.dim=16",
    "--set", "gen.users=25", "--set", "gen.items=15",
    "--set", "gen.min_len=6", "--set", "gen.max_len=9",
    "--set", "train.epochs=2", "--set", "train.batch=8", "--set", "train.lr=0.001",
]


def test_generate_synthetic_deterministic(tmp_path):
    spec = SyntheticSpec(users=12, items=15, strength=0.8, min_len=5, max_len=8, seed=4)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    generate_synthetic(spec, a)
    generate_synthetic(spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_generate_synthetic_strength_one_is_markov(tmp_path):
    spec = SyntheticSpec(users=10, items=12, strength=1.0, min_len=6, max_len=6, seed=5)
    summary = generate_synthetic(spec, tmp_path / "m.tsv")
    table = summary["transitions"]
    from iisan.recsys import load_interactions

    ds = load_interactions(tmp_path / "m.tsv")
    for seq in ds.users.values():
        for cur, nxt in zip(seq, seq[1:]):
            assert nxt == table[cur]


def test_generate_synthetic_rejects_small_catalog(tmp_path):
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticSpec(5, 10, 0.5, 4, 6, 0), tmp_path / "x.tsv")


def test_config_precedence_and_types(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\ntrain.lr = 0.01\nseed = 99\nvariant = va\n")
    values = cli.parse_config_file(cfg_file)
    cfg = build_config(values, {"seed": "123"})
    assert cfg.train_lr == 0.01      # from file
    assert cfg.seed == 123           # flag wins
    assert cfg.variant == "va"
    assert cfg.train_batch == 32     # default


def test_config_unknown_key_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("no.such.key = 1\n")
    with pytest.raises(ConfigError):
        cli.parse_config_file(cfg_file)
    with pytest.raises(ConfigError):
        build_config({}, {"bogus": "1"})


def test_config_hash_stable_and_sensitive():
    a = build_config({}, {})
    b = build_config({}, {})
    c = build_config({}, {"seed": "8"})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_bad_config_exit_code(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path), "--set", "variant=huge"]) == 2
    assert main(["gen", "--out", str(tmp_path), "--set", "gen.items=5"]) == 2
    capsys.readouterr()


def test_eval_before_train_is_input_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["gen", "--out", out, *SMALL]) == 0
    assert main(["eval", "--out", out, *SMALL]) == 3
    err = capsys.readouterr().err
    assert "train" in err  # remediation hint


def test_train_without_cache_is_stale(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["gen", "--out", out, *SMALL]) == 0
    assert main(["train", "--out", out, *SMALL]) == 4
    err = capsys.readouterr().err
    assert "cache" in err


def test_full_pipeline_smoke(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["gen", "--out", out, *SMALL]) == 0
    assert main(["cache", "--out", out, *SMALL]) == 0
    assert main(["train", "--out", out, *SMALL]) == 0
    assert main(["eval", "--out", out, "--baseline", *SMALL]) == 0
    assert main(["profile", "--out", out, *SMALL]) == 0
    stdout = capsys.readouterr().out

    assert "CONFIG hash=" in stdout
    assert "CACHE modality=text" in stdout and "CACHE modality=image" in stdout
    assert "LOSS epoch=1" in stdout
    assert "METRICS hr10=" in stdout
    assert "BASELINE hr10=" in stdout
    assert "COST regime=fft" in stdout
    assert "ORDERING PASS" in stdout
    assert (tmp_path / "model.ckpt").exists()
    assert (tmp_path / "loss_curve.tsv").exists()
    curve = (tmp_path / "loss_curve.tsv").read_text().splitlines()
    assert curve[0].startswith("# config_hash=")
    assert len(curve) == 3  # header + 2 epochs


def test_pipeline_uncached_regime(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "regime=dpeft_uncached", "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args]) == 0
    assert main(["train", "--out", out, *args]) == 0  # no cache needed
    assert main(["eval", "--out", out, *args]) == 0
    assert "METRICS hr10=" in capsys.readouterr().out


def test_asymmetric_variant_pipeline(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "variant=va", "--set", "text.layers=8", "--set", "text.hidden=24",
            "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args]) == 0
    assert main(["cache", "--out", out, *args]) == 0
    assert main(["train", "--out", out, *args]) == 0
    assert main(["eval", "--out", out, *args]) == 0
    assert "METRICS hr10=" in capsys.readouterr().out


def _error_line(capsys, prefix):
    """The one stderr line of a handled failure: its prefix, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err, err
    return err


def test_damaged_checkpoint_is_input_error(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "regime=dpeft_uncached", "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args]) == 0
    assert main(["train", "--out", out, *args]) == 0
    ckpt = tmp_path / "model.ckpt"
    raw = ckpt.read_bytes()
    # truncated, unknown variant code, unknown text mode code
    for damaged in (raw[:10], raw[:6] + b"\x09" + raw[7:], raw[:7] + b"\x09" + raw[8:]):
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        assert main(["eval", "--out", out, *args]) == 3
        assert "byte offset" in _error_line(capsys, "error:")


def test_eval_uses_checkpoint_plans_and_window(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "variant=va", "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args]) == 0
    assert main(["cache", "--out", out, *args]) == 0
    assert main(["train", "--out", out, *args]) == 0
    capsys.readouterr()
    metrics = []
    for max_len in ("10", "5"):
        assert main(["eval", "--out", out, *args, "--set", f"seq.max_len={max_len}"]) == 0
        metrics.append(re.search(r"^METRICS .*$", capsys.readouterr().out, re.M).group())
    assert metrics[0] == metrics[1]  # the window is the checkpoint's

    # a cache rebuilt for 8 text layers keeps (4, 8); the model was trained on (2, 4)
    deeper = [*args, "--set", "text.layers=8"]
    assert main(["cache", "--out", out, *deeper]) == 0
    capsys.readouterr()
    assert main(["eval", "--out", out, *deeper]) == 4
    _error_line(capsys, "stale artifact:")
    assert main(["eval", "--out", out, *deeper, "--set", "regime=dpeft_uncached"]) == 4
    _error_line(capsys, "stale artifact:")


@pytest.mark.parametrize("regime, setting", [
    ("dpeft_cached", "text.seed=99"), ("dpeft_uncached", "text.seed=99"), ("dpeft_uncached", "text.hidden=32"),
], ids=["cached-other-seed", "uncached-other-seed", "uncached-other-width"])
def test_eval_with_other_encoders_than_training_is_stale(tmp_path, capsys, regime, setting):
    """The checkpoint records its encoders' fingerprints: a model trained on one
    text encoder is not evaluated on another, even with a cache that agrees."""
    out = str(tmp_path)
    for command in ("gen", "cache", "train"):
        assert main([command, "--out", out, *SMALL, "--set", "train.epochs=1"]) == 0
    other = [*SMALL, "--set", setting, "--set", f"regime={regime}"]
    assert main(["cache", "--out", out, *other]) == 0
    capsys.readouterr()
    assert main(["eval", "--out", out, *other]) == 4
    assert "trained on encoders" in _error_line(capsys, "stale artifact:")


def test_setting_beyond_a_u16_field_is_config_error_and_keeps_the_checkpoint(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "regime=dpeft_uncached", "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args]) == 0
    assert main(["train", "--out", out, *args]) == 0
    good = (tmp_path / "model.ckpt").read_bytes()
    for setting in ("seq.max_len=70000", "seq.blocks=65536", "seq.heads=65536",
                    "text.layers=65536", "image.layers=65536"):
        capsys.readouterr()
        assert main(["train", "--out", out, *args, "--set", setting]) == 2
        assert _error_line(capsys, "config error:").startswith(f"config error: {setting.split('=')[0]}")
        assert (tmp_path / "model.ckpt").read_bytes() == good


def test_data_with_items_the_cache_lacks_is_stale(tmp_path, capsys):
    """Interactions regenerated over a larger catalog after `cache` name items
    the cache files do not hold: train exits 4 and says to rebuild the cache."""
    out = str(tmp_path)
    args = [*SMALL, "--set", "train.epochs=1"]
    assert main(["gen", "--out", out, *args, "--set", "gen.items=20"]) == 0
    assert main(["cache", "--out", out, *args, "--set", "gen.items=20"]) == 0
    wider = [*args, "--set", "gen.items=40", "--seed", "8"]
    assert main(["gen", "--out", out, *wider]) == 0
    capsys.readouterr()
    assert main(["train", "--out", out, *wider]) == 4
    err = _error_line(capsys, "stale artifact:")
    assert "not present in cache" in err and "rerun `iisan cache`" in err, err


def test_symmetric_variant_rejects_asymmetric_mode(tmp_path, capsys):
    out = str(tmp_path)
    args = [*SMALL, "--set", "text.mode=asym_grouped"]
    assert main(["gen", "--out", out, *args]) == 0
    capsys.readouterr()
    for command in ("cache", "train"):
        assert main([command, "--out", out, *args]) == 2
        _error_line(capsys, "config error:")


@pytest.mark.parametrize("target, bad_line, command, prefix, status", [
    ("interactions.tsv", b"999\t1 2\xff\n", "train", "error:", 3),
    ("run.cfg", b"train.lr = 0.01  # caf\xe9\n", "gen", "config error:", 2),
], ids=["interactions", "config"])
def test_file_that_is_not_utf8_names_its_line(tmp_path, capsys, target, bad_line, command, prefix, status):
    out = str(tmp_path)
    assert main(["gen", "--out", out, *SMALL]) == 0
    (tmp_path / "run.cfg").write_text("seed = 7\n")
    path = tmp_path / target
    path.write_bytes(path.read_bytes() + bad_line)
    last_line = path.read_bytes().count(b"\n")
    capsys.readouterr()
    assert main([command, "--out", out, "--config", str(tmp_path / "run.cfg"), *SMALL]) == status
    assert f"{path}:{last_line}:" in _error_line(capsys, prefix)


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("cache", []),  # before `gen` wrote the interactions
    ("gen", ["--config", "missing.cfg"]),
    ("cache", ["--set", "data=."]),  # a directory
], ids=["train-before-gen", "cache-before-gen", "missing-config", "data-is-directory"])
def test_unreadable_file_is_input_error(tmp_path, capsys, monkeypatch, command, extra):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", str(tmp_path / "run"), *SMALL, *extra]) == 3
    _error_line(capsys, "error:")


@pytest.mark.parametrize("damage", ["cache-nan", "checkpoint-nan", "checkpoint-inf"])
def test_non_finite_score_is_input_error(tmp_path, capsys, damage):
    """A NaN written into a cache record after the cache was built, or a NaN or
    an infinity in the last checkpoint parameter under a digest that matches
    (a model saved with it), ranks nothing: eval names a user and prints no
    METRICS line."""
    out = str(tmp_path)
    args = [*SMALL, "--set", "train.epochs=1"]
    for command in ("gen", "cache", "train"):
        assert main([command, "--out", out, *args]) == 0
    if damage == "cache-nan":
        path = tmp_path / "cache" / "text.iisc"
        header = cache.CacheStore(path).header
        m = len(header.kept_layers)
        first_of_record_1 = cache.header_size(m) + cache.record_size(m, header.hidden_dim) + 8
        target, at, value = path, first_of_record_1, float("nan")
    else:
        target = tmp_path / "model.ckpt"
        at, value = target.stat().st_size - 8 - 4, float("nan" if damage == "checkpoint-nan" else "inf")
    raw = bytearray(target.read_bytes())
    struct.pack_into("<f", raw, at, value)
    if target.suffix == ".ckpt":  # the checkpoint ends with a blake2b digest of the bytes before it
        raw[-8:] = hashlib.blake2b(raw[:-8], digest_size=8).digest()
    target.write_bytes(bytes(raw))
    assert cache.verify_cache(tmp_path / "cache" / "text.iisc").ok == (damage != "cache-nan")
    capsys.readouterr()
    assert main(["eval", "--out", out, *args]) == 3
    captured = capsys.readouterr()
    assert "METRICS" not in captured.out
    assert captured.err.startswith("error: user ") and "non-finite score" in captured.err, captured.err


@pytest.mark.parametrize("values", [
    ["variant=va", "text.layers=1", "image.layers=1"], ["text.layers=4", "image.layers=12"],
    ["variant=va", "text.mode=asym_grouped", "text.layers=6", "image.layers=12"],  # no group size fits
    ["text.hidden=3", "image.hidden=3"], ["text.vocab=0"],  # encoders train cannot build
    ["seq.heads=3"],  # does not divide seq.dim 16
], ids=["va-one-layer", "vs-unequal-depths", "va-grouped-too-shallow", "odd-hidden", "empty-vocab",
        "seq-heads-not-dividing-dim"])
def test_profile_rejects_depths_train_rejects(tmp_path, capsys, values):
    """Profile models the towers and encoders train would build, so it rejects the same configs."""
    out = str(tmp_path)
    settings = [arg for setting in values for arg in ("--set", setting)]
    assert main(["gen", "--out", out, *SMALL]) == 0
    for command in ("train", "profile"):
        capsys.readouterr()
        assert main([command, "--out", out, *SMALL, *settings]) == 2
        _error_line(capsys, "config error:")


@pytest.fixture(scope="module")
def cached_run(tmp_path_factory):
    """An output directory holding SMALL's interactions and caches."""
    out = str(tmp_path_factory.mktemp("cached"))
    assert main(["gen", "--out", out, *SMALL]) == 0
    assert main(["cache", "--out", out, *SMALL]) == 0
    return out


@pytest.mark.parametrize("setting", [
    "train.batch=0", "train.epochs=0", "seq.dim=0", "seq.blocks=0", "seq.max_len=0",
    "san.bottleneck=0", "gen.users=0", "profile.batch=0", "train.dropout=1.0",
    "train.dropout=-0.5", "train.lr=nan", "train.lr=inf", "train.lr=0",
    "seed=-1", "text.seed=-1", "image.seed=-1", "seq.heads=0", "seq.heads=3", "gen.items=0"])
def test_meaningless_setting_is_config_error(cached_run, capsys, setting):
    capsys.readouterr()
    assert main(["train", "--out", cached_run, *SMALL, "--set", setting]) == 2
    assert _error_line(capsys, "config error:").startswith(f"config error: {setting.split('=')[0]}")


def test_out_of_memory_is_input_error(cached_run, capsys, monkeypatch):
    """A model too large to allocate ends in one error line and exit 3, not a traceback."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.75 TiB for an array with shape (48, 5000000000)")

    monkeypatch.setattr(recsys, "regime_model", too_large)
    capsys.readouterr()
    assert main(["train", "--out", cached_run, *SMALL]) == 3
    _error_line(capsys, "error: out of memory: Unable to allocate")


def test_cached_regime_builds_no_encoder(cached_run, capsys, monkeypatch):
    """Cached train and eval need only the encoders' fingerprints: with the
    encoder class disabled they print the same lines, and a width the encoder
    would reject is still a config error."""
    def lines():
        assert main(["train", "--out", cached_run, *SMALL]) == 0
        assert main(["eval", "--out", cached_run, *SMALL]) == 0
        return re.findall(r"^(?:LOSS|METRICS) .*$", capsys.readouterr().out, re.M)

    capsys.readouterr()
    expected = lines()

    def no_encoder(*args, **kwargs):
        raise AssertionError("the cached regime built an encoder")

    # the name `recsys.state_provider` resolves when it builds an encoder
    monkeypatch.setattr(recsys, "FrozenEncoder", no_encoder)
    assert lines() == expected and len(expected) == 3
    for command in ("train", "eval"):
        odd = [*SMALL, "--set", "variant=va", "--set", "text.hidden=3"]
        assert main([command, "--out", cached_run, *odd]) == 2
        _error_line(capsys, "config error:")
