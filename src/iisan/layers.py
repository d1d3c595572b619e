"""Parameterized layers shared by the frozen backbones and the sequential encoder.

Layers hold Parameters and compose engine operations; they carry no state
beyond their weights. The active tape is a context variable in `autodiff`,
so a forward call on another thread never records onto this thread's tape.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError

ATTENTION_MASK_VALUE = -1e9  # finite stand-in for -inf; exp underflows to exactly 0


class Linear:
    """y = x W + b for (…, n_in) x. Weight init is N(0, 1/sqrt(n_in)) unless zeroed."""

    def __init__(self, n_in: int, n_out: int, name: str, rng: np.random.Generator,
                 trainable: bool = True, zero_init: bool = False):
        if zero_init:
            w = np.zeros((n_in, n_out), dtype=np.float32)
        else:
            w = (rng.standard_normal((n_in, n_out)) / math.sqrt(n_in)).astype(np.float32)
        self.w = Parameter(Tensor(w), f"{name}.w", trainable)
        self.b = Parameter(Tensor(np.zeros(n_out, dtype=np.float32)), f"{name}.b", trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w.tensor, self.b.tensor)

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class LayerNorm:
    def __init__(self, dim: int, name: str, trainable: bool = True):
        self.gain = Parameter(Tensor(np.ones(dim, dtype=np.float32)), f"{name}.gain", trainable)
        self.offset = Parameter(Tensor(np.zeros(dim, dtype=np.float32)), f"{name}.offset", trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gain.tensor, self.offset.tensor)

    def parameters(self) -> list[Parameter]:
        return [self.gain, self.offset]


def causal_mask(length: int, dtype=np.float32) -> np.ndarray:
    """Additive attention mask: position t may attend to positions <= t."""
    mask = np.zeros((length, length), dtype=dtype)
    mask[np.triu_indices(length, k=1)] = ATTENTION_MASK_VALUE
    return mask


class TransformerBlock:
    """Pre-norm block: multi-head attention and a 4x-wide gelu MLP, both residual."""

    def __init__(self, dim: int, heads: int, name: str, rng: np.random.Generator,
                 trainable: bool = True):
        if heads < 1:
            raise ConfigError(f"attention needs at least one head, got {heads}")
        if dim % heads != 0:
            raise ConfigError(f"hidden dim {dim} is not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.ln1 = LayerNorm(dim, f"{name}.ln1", trainable)
        self.wq = Linear(dim, dim, f"{name}.wq", rng, trainable)
        self.wk = Linear(dim, dim, f"{name}.wk", rng, trainable)
        self.wv = Linear(dim, dim, f"{name}.wv", rng, trainable)
        self.wo = Linear(dim, dim, f"{name}.wo", rng, trainable)
        self.ln2 = LayerNorm(dim, f"{name}.ln2", trainable)
        self.fc1 = Linear(dim, 4 * dim, f"{name}.fc1", rng, trainable)
        self.fc2 = Linear(4 * dim, dim, f"{name}.fc2", rng, trainable)

    def __call__(self, x: Tensor, attn_mask: Optional[np.ndarray] = None,
                 drop: Optional[Callable[[Tensor], Tensor]] = None) -> Tensor:
        h = self.ln1(x)
        attn = self.wo(ad.attention(self.wq(h), self.wk(h), self.wv(h), self.heads, attn_mask))
        if drop is not None:
            attn = drop(attn)
        x = ad.add(x, attn)

        m = self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        if drop is not None:
            m = drop(m)
        return ad.add(x, m)

    def parameters(self) -> list[Parameter]:
        out = []
        for part in (self.ln1, self.wq, self.wk, self.wv, self.wo, self.ln2, self.fc1, self.fc2):
            out.extend(part.parameters())
        return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from `rng`; apply only in training."""
    if p <= 0.0:
        return x
    keep = (rng.uniform(size=x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    return ad.mul(x, Tensor(keep))
