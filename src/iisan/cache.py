"""On-disk store of hidden-state stacks, written once per (encoder, layer-set).

File layout, all little-endian:

    magic               4 bytes  "IISC"
    version             u16      (= 1)
    encoder_fingerprint u64
    item_count          u32
    kept_layer_count m  u16
    kept_layer_indices  m x u16  (0 = embedding output; strictly increasing)
    hidden_dim H        u32
    records             item_count x _record_dtype(m, H): item_id u64, then payload (m, H) float32

Records are sorted by item_id; payloads are the training dtype (float32), so
cached and recomputed states are bit-identical. Files are immutable after
build and appear whole or not at all; any number of readers may open them
concurrently. Every reader opens a file through one check of the header, the
file size and the record ids, so a file whose kept layers or ids are not
strictly increasing (unsorted or duplicate ids) is rejected with a
FormatError before any record is served.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .backbone import FrozenEncoder, encode_item, item_tokens
from .errors import ConfigError, FormatError, InputError, StalenessError, VersionError

MAGIC = b"IISC"
VERSION = 1
_FIXED_HEADER = struct.Struct("<4sHQIH")  # magic, version, fingerprint, item_count, kept_count
ITEM_ID_LIMIT = 1 << 64  # record ids are u64


def header_size(kept_count: int) -> int:
    return _FIXED_HEADER.size + 2 * kept_count + 4


def _record_dtype(kept_count: int, hidden_dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("payload", "<f4", (kept_count, hidden_dim))])


def record_size(kept_count: int, hidden_dim: int) -> int:
    return _record_dtype(kept_count, hidden_dim).itemsize


def cache_file_size(item_count: int, kept_count: int, hidden_dim: int) -> int:
    """Closed-form file size; holds exactly for every written cache."""
    return header_size(kept_count) + item_count * record_size(kept_count, hidden_dim)


@dataclass(frozen=True)
class CacheHeader:
    encoder_fingerprint: int
    item_count: int
    kept_layers: tuple[int, ...]
    hidden_dim: int


@dataclass(frozen=True)
class CacheSummary:
    path: str
    item_count: int
    byte_size: int
    encoder_fingerprint: int
    kept_layers: tuple[int, ...]


def _check_kept_layers(kept: Sequence[int], upper: int | None = None) -> tuple[int, ...]:
    kept = tuple(int(i) for i in kept)
    if not kept:
        raise ConfigError("kept layer list is empty")
    if any(i < 0 for i in kept) or any(b <= a for a, b in zip(kept, kept[1:])):
        raise ConfigError(f"kept layers must be strictly increasing and non-negative, got {kept}")
    if upper is not None and kept[-1] >= upper:
        raise ConfigError(f"kept layer {kept[-1]} out of range for {upper} states")
    return kept


@contextlib.contextmanager
def atomic_write(path):
    """Open a temporary binary file beside `path` for writing. It replaces `path`
    when the block ends, and is removed if the block raises, so readers see the
    old file or the whole new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cache(path, fingerprint: int, kept_layers: Sequence[int], hidden_dim: int,
                stacks: Iterable[tuple[int, np.ndarray]]) -> CacheSummary:
    """Write pruned stacks to `path`; records are sorted by item id."""
    kept = _check_kept_layers(kept_layers)
    m = len(kept)
    rows = sorted(stacks, key=lambda r: r[0])
    bad = next((states.shape for _, states in rows if states.shape != (m, hidden_dim)), None)
    if bad is not None:
        raise InputError(f"stack shape {bad} does not match ({m}, {hidden_dim})")
    records = np.array(rows, _record_dtype(m, hidden_dim))
    if (records["id"][1:] == records["id"][:-1]).any():
        raise InputError("duplicate item ids in cache input")
    path = Path(path)
    with atomic_write(path) as f:
        f.write(_FIXED_HEADER.pack(MAGIC, VERSION, fingerprint, len(rows), m))
        f.write(struct.pack(f"<{m}HI", *kept, hidden_dim))
        f.write(records)  # not tofile: it drops a short write (numpy 2.4) and reports success
    return CacheSummary(str(path), len(rows), cache_file_size(len(rows), m, hidden_dim),
                        fingerprint, kept)


def build_cache(encoder: FrozenEncoder, items: Sequence[int], keep_layers: Sequence[int],
                path) -> CacheSummary:
    """Encode every item once and store the kept layers of its stack."""
    if len(items) == 0:
        raise InputError("no items to cache")
    kept = _check_kept_layers(keep_layers, upper=encoder.cfg.layers + 1)
    rows = ((i, encode_item(encoder, item_tokens(encoder.cfg, i))[list(kept)]) for i in items)
    return write_cache(path, encoder.fingerprint, kept, encoder.cfg.hidden_dim, rows)


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes of a binary file, or raise FormatError at the end of the data."""
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}", offset=f.tell())
    return data


def _open_records(path: Path) -> tuple[CacheHeader, np.memmap]:
    """Check the header, the file size and the record ids; return the record memmap."""
    with open(path, "rb") as f:
        magic, version, fp, count, m = _FIXED_HEADER.unpack(_read_exact(f, _FIXED_HEADER.size, "header"))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        if version != VERSION:
            raise VersionError(f"unsupported cache version {version}", offset=4)
        kept = struct.unpack(f"<{m}H", _read_exact(f, 2 * m, "kept layer indices"))
        if not kept or any(b <= a for a, b in zip(kept, kept[1:])):
            raise FormatError(f"kept layer indices must be non-empty and strictly increasing, "
                              f"got {kept}", offset=_FIXED_HEADER.size)
        (hidden_dim,) = struct.unpack("<I", _read_exact(f, 4, "hidden dim"))
    try:  # numpy caps a record at 2^31 bytes
        dtype = _record_dtype(m, hidden_dim)
    except ValueError as exc:
        raise FormatError(f"records of {m} x {hidden_dim} floats are too large", offset=header_size(m) - 4) from exc
    header = CacheHeader(fp, count, kept, hidden_dim)
    expected = cache_file_size(count, m, hidden_dim)
    actual = path.stat().st_size
    if actual != expected:
        raise FormatError(f"record count/size mismatch: file has {actual} bytes, "
                          f"header implies {expected}", offset=min(actual, expected))
    records = np.memmap(path, mode="r", dtype=dtype, offset=header_size(m), shape=(count,))
    ids = records["id"]
    unsorted = np.flatnonzero(ids[1:] <= ids[:-1])
    if unsorted.size:
        i = int(unsorted[0]) + 1
        raise FormatError(f"record ids are not strictly ascending: id {ids[i]} follows {ids[i - 1]}",
                          offset=header_size(m) + i * record_size(m, hidden_dim))
    return header, records


class CacheStore:
    """Random access over an immutable cache file by binary search over its ascending id column."""

    def __init__(self, path, expected_fingerprint: int | None = None):
        self.path = Path(path)
        self.header, self._records = _open_records(self.path)
        if expected_fingerprint is not None and expected_fingerprint != self.header.encoder_fingerprint:
            raise StalenessError(
                f"cache {self.path} was built by encoder {self.header.encoder_fingerprint:#x}, "
                f"expected {expected_fingerprint:#x}; rebuild the cache")
        self._ids = np.ascontiguousarray(self._records["id"])  # else searchsorted copies it per call

    def read_items(self, item_ids: Sequence[int]) -> np.ndarray:
        """The items' (items, kept layers, hidden_dim) float32 states, in the order asked.

        An item the cache lacks means the data changed after the cache was
        built: a StalenessError.
        """
        try:  # as u64: a query of Python ints or int64 would be searched as float64
            query = np.asarray(item_ids, dtype=np.uint64)
        except OverflowError as exc:
            raise StalenessError(f"an item id outside [0, 2^64) is not present in cache {self.path}") from exc
        rows = np.searchsorted(self._ids, query)
        held = np.searchsorted(self._ids, query, side="right") > rows
        if not held.all():
            raise StalenessError(f"item {query[~held][0]} not present in cache {self.path}; "
                                 "rerun `iisan cache`")
        return np.asarray(self._records["payload"][rows], dtype=np.float32)

    def read_item(self, item_id: int) -> np.ndarray:
        """The item's (kept layers, hidden_dim) float32 states."""
        return self.read_items([item_id])[0]


@dataclass
class VerifyReport:
    path: str
    ok: bool
    issues: list[str]
    item_count: int = 0

    def __str__(self) -> str:
        status = "clean" if self.ok else "FAILED"
        lines = [f"cache {self.path}: {status} ({self.item_count} items)"]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)


def verify_cache(path) -> VerifyReport:
    """The structural checks every reader makes, then finiteness of every payload."""
    path = Path(path)
    try:
        header, records = _open_records(path)
    except FormatError as exc:
        return VerifyReport(str(path), False, [str(exc)])
    bad = records["id"][~np.isfinite(records["payload"]).all(axis=(1, 2))]
    issues = [f"non-finite payload in record for item {int(bad[0])}"] if bad.size else []
    return VerifyReport(str(path), not issues, issues, header.item_count)
