"""Frozen synthetic transformer encoders emitting per-layer pooled hidden states.

An encoder is built deterministically from its config seed: an embedding
stage (token + position tables) followed by pre-norm bidirectional blocks
with a 4x gelu MLP. Encoding an item pools every stage output at position 0,
yielding L+1 vectors of width H - the unit that gets cached and consumed by
the side towers. Token ids shaped (…, tokens) encode a batch of items in one
pass; each item's stack has the same bits as when it is encoded alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, InputError
from .layers import TransformerBlock

TEXT_TOKEN_COUNT = 8
IMAGE_TOKEN_COUNT = 16
HEADS = 2  # attention heads per block of every frozen encoder


@dataclass(frozen=True)
class EncoderConfig:
    modality: str  # "text" | "image"
    layers: int
    hidden_dim: int
    vocab_or_patch_count: int
    max_positions: int
    seed: int

    def validate(self) -> None:
        if self.modality not in ("text", "image"):
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        if self.hidden_dim < HEADS or self.hidden_dim % HEADS:
            raise ConfigError(f"hidden_dim must be even and >= 2, got {self.hidden_dim}")
        if self.vocab_or_patch_count < 1:
            raise ConfigError("vocab_or_patch_count must be positive")
        if self.max_positions < 1:
            raise ConfigError("max_positions must be positive")


def fingerprint(cfg: EncoderConfig) -> int:
    """64-bit hash identifying config + seed; equal configs hash equal."""
    key = f"{cfg.modality}|{cfg.layers}|{cfg.hidden_dim}|{cfg.vocab_or_patch_count}|{cfg.max_positions}|{cfg.seed}"
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")


class FrozenEncoder:
    """Deterministic transformer whose weights never receive gradients unless
    explicitly built trainable (the full-fine-tuning regime)."""

    def __init__(self, cfg: EncoderConfig, trainable: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.fingerprint = fingerprint(cfg)
        rng = np.random.default_rng(np.random.PCG64(cfg.seed))
        h = cfg.hidden_dim
        scale = 1.0 / np.sqrt(h)
        prefix = f"backbone.{cfg.modality}"
        tok = (rng.standard_normal((cfg.vocab_or_patch_count, h)) * scale).astype(np.float32)
        pos = (rng.standard_normal((cfg.max_positions, h)) * scale).astype(np.float32)
        self.token_table = Parameter(Tensor(tok), f"{prefix}.tokens", trainable)
        self.pos_table = Parameter(Tensor(pos), f"{prefix}.positions", trainable)
        self.blocks = [
            TransformerBlock(h, HEADS, f"{prefix}.block{i + 1}", rng, trainable=trainable)
            for i in range(cfg.layers)
        ]

    def parameters(self) -> list[Parameter]:
        out = [self.token_table, self.pos_table]
        for b in self.blocks:
            out.extend(b.parameters())
        return out


def _check_tokens(enc: FrozenEncoder, tokens: Sequence[int] | np.ndarray) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.size == 0:
        raise InputError("token sequence is empty")
    if ids.shape[-1] > enc.cfg.max_positions:
        raise InputError(f"{ids.shape[-1]} tokens exceed max_positions={enc.cfg.max_positions}")
    if ids.min() < 0 or ids.max() >= enc.cfg.vocab_or_patch_count:
        raise InputError(f"token id out of range [0, {enc.cfg.vocab_or_patch_count})")
    return ids


def forward(enc: FrozenEncoder, tokens: Sequence[int] | np.ndarray,
            after_block: Optional[Sequence[Callable[[Tensor], Tensor]]] = None) -> list[Tensor]:
    """The embedding output, then each block's, under the `backbone.<modality>` scope,
    of token ids shaped (…, tokens), whose leading axes batch items.

    `after_block`, one callable per block (an embedded adapter), maps that
    block's output outside the scope before the next block sees it.
    """
    ids = _check_tokens(enc, tokens)
    name = f"backbone.{enc.cfg.modality}"
    positions = np.broadcast_to(np.arange(ids.shape[-1]), ids.shape)
    with ad.scope(name):
        x = ad.add(ad.take_rows(enc.token_table.tensor, ids), ad.take_rows(enc.pos_table.tensor, positions))
    stages = [x]
    for i, block in enumerate(enc.blocks):
        with ad.scope(name):
            x = block(x)  # bidirectional: no mask
        if after_block is not None:
            x = after_block[i](x)
        stages.append(x)
    return stages


def encode_item(enc: FrozenEncoder, tokens: Sequence[int] | np.ndarray) -> np.ndarray:
    """The (…, layers + 1, hidden_dim) float32 stacks of one `forward` over token
    ids shaped (…, tokens): every stage pooled at position 0, stacked on axis -2."""
    return np.stack([x.data[..., 0, :] for x in forward(enc, tokens)], axis=-2).astype(np.float32)


def item_tokens(cfg: EncoderConfig, item_id: int) -> list[int]:
    """Deterministic synthetic content: item id -> fixed-length token sequence."""
    length = TEXT_TOKEN_COUNT if cfg.modality == "text" else IMAGE_TOKEN_COUNT
    key = f"{cfg.modality}|{cfg.seed}|{item_id}".encode()
    digest = hashlib.blake2b(key, digest_size=2 * length).digest()
    return [
        int.from_bytes(digest[2 * i:2 * i + 2], "little") % cfg.vocab_or_patch_count
        for i in range(length)
    ]
