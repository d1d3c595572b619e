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
build; any number of readers may open them concurrently.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .backbone import FrozenEncoder, HiddenStateStack, encode_item, item_tokens
from .errors import ConfigError, FormatError, InputError, NotFoundError, StalenessError, VersionError

MAGIC = b"IISC"
VERSION = 1
_FIXED_HEADER = struct.Struct("<4sHQIH")  # magic, version, fingerprint, item_count, kept_count


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

    @property
    def kept_count(self) -> int:
        return len(self.kept_layers)


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
            stack = encode_item(encoder, item_tokens(encoder.cfg, item_id), item_id=item_id)
            yield item_id, stack.states[list(kept)]

    return write_cache(path, encoder.fingerprint, kept, encoder.cfg.hidden_dim, rows())


def _read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes of a binary file, or raise FormatError at the end of the data."""
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}", offset=f.tell())
    return data


def read_header(f) -> CacheHeader:
    start = f.tell()
    magic, version, fp, count, m = _FIXED_HEADER.unpack(_read_exact(f, _FIXED_HEADER.size, "header"))
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=start)
    if version != VERSION:
        raise VersionError(f"unsupported cache version {version}", offset=start + 4)
    kept = struct.unpack(f"<{m}H", _read_exact(f, 2 * m, "kept layer indices"))
    (hidden_dim,) = struct.unpack("<I", _read_exact(f, 4, "hidden dim"))
    return CacheHeader(fp, count, tuple(kept), hidden_dim)


class CacheStore:
    """Random access over an immutable cache file via an in-memory offset index."""

    def __init__(self, path, expected_fingerprint: int | None = None):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            self.header = read_header(f)
        if expected_fingerprint is not None and expected_fingerprint != self.header.encoder_fingerprint:
            raise StalenessError(
                f"cache {self.path} was built by encoder {self.header.encoder_fingerprint:#x}, "
                f"expected {expected_fingerprint:#x}; rebuild the cache")
        h = self.header
        expected = cache_file_size(h.item_count, h.kept_count, h.hidden_dim)
        actual = self.path.stat().st_size
        if actual != expected:
            raise FormatError(
                f"cache size {actual} does not match header ({expected} expected)", offset=actual)
        self._records = np.memmap(
            self.path, mode="r",
            dtype=np.dtype([("id", "<u8"), ("payload", "<f4", (h.kept_count, h.hidden_dim))]),
            offset=header_size(h.kept_count), shape=(h.item_count,))
        self._index = {int(rec_id): i for i, rec_id in enumerate(self._records["id"])}

    def __len__(self) -> int:
        return self.header.item_count

    def item_ids(self) -> list[int]:
        return sorted(self._index)

    def read_item(self, item_id: int) -> HiddenStateStack:
        i = self._index.get(int(item_id))
        if i is None:
            raise NotFoundError(f"item {item_id} not present in cache {self.path}")
        payload = np.array(self._records[i]["payload"], dtype=np.float32)
        return HiddenStateStack(item_id=int(item_id),
                                encoder_fingerprint=self.header.encoder_fingerprint,
                                states=payload)


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
    """Structural check: magic/version, layer monotonicity, sizes, sampled finiteness."""
    path = Path(path)
    issues: list[str] = []
    try:
        with open(path, "rb") as f:
            header = read_header(f)
    except FormatError as exc:
        return VerifyReport(str(path), False, [str(exc)])

    kept = header.kept_layers
    if any(b <= a for a, b in zip(kept, kept[1:])):
        issues.append(f"kept layer indices not strictly increasing: {kept}")

    expected = cache_file_size(header.item_count, header.kept_count, header.hidden_dim)
    actual = path.stat().st_size
    if actual != expected:
        issues.append(f"record count/size mismatch: file has {actual} bytes, header implies {expected}")
        return VerifyReport(str(path), False, issues, header.item_count)

    rec_dtype = np.dtype([("id", "<u8"), ("payload", "<f4", (header.kept_count, header.hidden_dim))])
    records = np.memmap(path, mode="r", dtype=rec_dtype,
                        offset=header_size(header.kept_count), shape=(header.item_count,))
    ids = np.asarray(records["id"])
    if header.item_count > 1 and not (ids[1:] > ids[:-1]).all():
        issues.append("record ids are not sorted ascending")

    if header.item_count:
        sample_step = max(1, header.item_count // max(1, math.ceil(header.item_count * 0.01)))
        for i in range(0, header.item_count, sample_step):
            if not np.isfinite(records[i]["payload"]).all():
                issues.append(f"non-finite payload in record for item {int(ids[i])}")
                break

    return VerifyReport(str(path), not issues, issues, header.item_count)
