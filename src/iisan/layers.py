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
from .autodiff import Module, Parameter, Tensor
from .errors import ConfigError

ATTENTION_MASK_VALUE = -1e9  # finite stand-in for -inf; exp underflows to exactly 0


class Linear(Module):
    """y = x W + b for (…, n_in) x. Weight init is N(0, 1/sqrt(n_in)) unless zeroed;
    with no `rng` every weight is zero, for a model whose weights are loaded next."""

    def __init__(self, n_in: int, n_out: int, name: str, rng: Optional[np.random.Generator],
                 zero_init: bool = False):
        if zero_init or rng is None:
            w = np.zeros((n_in, n_out), dtype=np.float32)
        else:
            w = (rng.standard_normal((n_in, n_out)) / math.sqrt(n_in)).astype(np.float32)
        self.w = Parameter(Tensor(w), f"{name}.w")
        self.b = Parameter(Tensor(np.zeros(n_out, dtype=np.float32)), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w.tensor, self.b.tensor)


class LayerNorm(Module):
    def __init__(self, dim: int, name: str):
        self.gain = Parameter(Tensor(np.ones(dim, dtype=np.float32)), f"{name}.gain")
        self.offset = Parameter(Tensor(np.zeros(dim, dtype=np.float32)), f"{name}.offset")

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layernorm(x, self.gain.tensor, self.offset.tensor)


def causal_mask(length: int, dtype=np.float32) -> np.ndarray:
    """Additive attention mask: position t may attend to positions <= t."""
    mask = np.zeros((length, length), dtype=dtype)
    mask[np.triu_indices(length, k=1)] = ATTENTION_MASK_VALUE
    return mask


class TransformerBlock(Module):
    """Pre-norm block: multi-head attention and a 4x-wide gelu MLP, both residual."""

    def __init__(self, dim: int, heads: int, name: str, rng: Optional[np.random.Generator]):
        if heads < 1:
            raise ConfigError(f"attention needs at least one head, got {heads}")
        if dim % heads != 0:
            raise ConfigError(f"hidden dim {dim} is not divisible by {heads} heads")
        self.dim = dim
        self.heads = heads
        self.ln1 = LayerNorm(dim, f"{name}.ln1")
        self.wq = Linear(dim, dim, f"{name}.wq", rng)
        self.wk = Linear(dim, dim, f"{name}.wk", rng)
        self.wv = Linear(dim, dim, f"{name}.wv", rng)
        self.wo = Linear(dim, dim, f"{name}.wo", rng)
        self.ln2 = LayerNorm(dim, f"{name}.ln2")
        self.fc1 = Linear(dim, 4 * dim, f"{name}.fc1", rng)
        self.fc2 = Linear(4 * dim, dim, f"{name}.fc2", rng)

    def __call__(self, x: Tensor, attn_mask: Optional[np.ndarray] = None,
                 drop: Optional[Callable[[Tensor], Tensor]] = None,
                 rows: Optional[np.ndarray] = None) -> Tensor:
        """The block over (…, s, dim) x; with `rows`, only at those rows of x
        flattened to (-1, dim), as a (len(rows), dim) result. Attention still
        runs at every position, whose keys and values later positions read;
        `wo`, the residuals and the MLP run on the gathered rows alone."""
        h = self.ln1(x)
        attn = ad.attention(self.wq(h), self.wk(h), self.wv(h), self.heads, attn_mask)
        if rows is not None:
            attn, x = (ad.take_rows(ad.reshape(t, (-1, self.dim)), rows) for t in (attn, x))
        attn = self.wo(attn)
        if drop is not None:
            attn = drop(attn)
        x = ad.add(x, attn)

        m = self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        if drop is not None:
            m = drop(m)
        return ad.add(x, m)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a mask drawn from `rng`; apply only in training."""
    if p <= 0.0:
        return x
    keep = (rng.uniform(size=x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    return ad.mul(x, Tensor(keep))
