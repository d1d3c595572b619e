"""On-disk store of hidden-state stacks, written once per (encoder, layer-set).

File layout, all little-endian:

    magic               4 bytes  "IISC"
    version             u16      (= 1)
    encoder_fingerprint u64
    item_count          u32
    kept_layer_count m  u16
    kept_layer_indices  m x u16  (0 = embedding output; strictly increasing)
    hidden_dim H        u32
    records             item_count x { item_id u64, payload m*H float32, layer-major }

Records are sorted by item_id; payloads are the training dtype (float32), so
cached and recomputed states are bit-identical. Files are immutable after
build; any number of readers may open them concurrently. Every reader opens
a file through one check of the header, the file size and the record ids,
so a file whose kept layers or ids are not strictly increasing (unsorted or
duplicate ids) is rejected with a FormatError before any record is served.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .backbone import FrozenEncoder, encode_item, item_tokens
from .errors import ConfigError, FormatError, InputError, NotFoundError, StalenessError, VersionError

MAGIC = b"IISC"
VERSION = 1
_FIXED_HEADER = struct.Struct("<4sHQIH")  # magic, version, fingerprint, item_count, kept_count
ITEM_ID_LIMIT = 1 << 64  # record ids are u64


def header_size(kept_count: int) -> int:
    return _FIXED_HEADER.size + 2 * kept_count + 4


def record_size(kept_count: int, hidden_dim: int) -> int:
    return 8 + kept_count * hidden_dim * 4


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


def write_cache(path, fingerprint: int, kept_layers: Sequence[int], hidden_dim: int,
                stacks: Iterable[tuple[int, np.ndarray]]) -> CacheSummary:
    """Write pruned stacks to `path`; records are sorted by item id."""
    kept = _check_kept_layers(kept_layers)
    m = len(kept)
    rows = sorted(stacks, key=lambda r: r[0])
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate item ids in cache input")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_FIXED_HEADER.pack(MAGIC, VERSION, fingerprint, len(rows), m))
        f.write(struct.pack(f"<{m}H", *kept))
        f.write(struct.pack("<I", hidden_dim))
        for item_id, states in rows:
            if states.shape != (m, hidden_dim):
                raise InputError(f"stack shape {states.shape} does not match ({m}, {hidden_dim})")
            f.write(struct.pack("<Q", item_id))
            f.write(np.ascontiguousarray(states, dtype="<f4").tobytes())
    return CacheSummary(str(path), len(rows), cache_file_size(len(rows), m, hidden_dim),
                        fingerprint, kept)


def build_cache(encoder: FrozenEncoder, items: Sequence[int], keep_layers: Sequence[int],
                path) -> CacheSummary:
    """Encode every item once and store the kept layers of its stack."""
    if len(items) == 0:
        raise InputError("no items to cache")
    kept = _check_kept_layers(keep_layers, upper=encoder.cfg.layers + 1)

    def rows():
        for item_id in items:
            yield item_id, encode_item(encoder, item_tokens(encoder.cfg, item_id))[list(kept)]

    return write_cache(path, encoder.fingerprint, kept, encoder.cfg.hidden_dim, rows())


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
    header = CacheHeader(fp, count, kept, hidden_dim)
    expected = cache_file_size(count, m, hidden_dim)
    actual = path.stat().st_size
    if actual != expected:
        raise FormatError(f"record count/size mismatch: file has {actual} bytes, "
                          f"header implies {expected}", offset=min(actual, expected))
    records = np.memmap(path, mode="r",
                        dtype=np.dtype([("id", "<u8"), ("payload", "<f4", (m, hidden_dim))]),
                        offset=header_size(m), shape=(count,))
    ids = records["id"]
    unsorted = np.flatnonzero(ids[1:] <= ids[:-1])
    if unsorted.size:
        i = int(unsorted[0]) + 1
        raise FormatError(f"record ids are not strictly ascending: id {ids[i]} follows {ids[i - 1]}",
                          offset=header_size(m) + i * record_size(m, hidden_dim))
    return header, records


class CacheStore:
    """Random access over an immutable cache file via an in-memory offset index."""

    def __init__(self, path, expected_fingerprint: int | None = None):
        self.path = Path(path)
        self.header, self._records = _open_records(self.path)
        if expected_fingerprint is not None and expected_fingerprint != self.header.encoder_fingerprint:
            raise StalenessError(
                f"cache {self.path} was built by encoder {self.header.encoder_fingerprint:#x}, "
                f"expected {expected_fingerprint:#x}; rebuild the cache")
        self._index = {rec_id: i for i, rec_id in enumerate(self._records["id"].tolist())}

    def read_item(self, item_id: int) -> np.ndarray:
        """The item's (kept layers, hidden_dim) float32 states."""
        i = self._index.get(int(item_id))
        if i is None:
            raise NotFoundError(f"item {item_id} not present in cache {self.path}")
        return np.array(self._records[i]["payload"], dtype=np.float32)


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
    """The structural checks every reader makes, then sampled finiteness."""
    path = Path(path)
    try:
        header, records = _open_records(path)
    except FormatError as exc:
        return VerifyReport(str(path), False, [str(exc)])
    issues: list[str] = []
    if header.item_count:
        sample_step = max(1, header.item_count // max(1, math.ceil(header.item_count * 0.01)))
        for i in range(0, header.item_count, sample_step):
            if not np.isfinite(records[i]["payload"]).all():
                issues.append(f"non-finite payload in record for item {int(records[i]['id'])}")
                break
    return VerifyReport(str(path), not issues, issues, header.item_count)
