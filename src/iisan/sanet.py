"""Side-adapter towers over frozen hidden-state ladders.

A model owns three towers of bottleneck blocks: one per modality refining
that encoder's ladder through learnable scalar gates, plus an inter-modal
tower mixing both ladders per level. Asymmetric pairings (a deeper text
encoder) are aligned by a LayerDrop plan on the text side and a dimension
transform down to the image width. A final linear fusion of the three tower
outputs produces the item embedding consumed by the sequential encoder.

Layer selection modes:
  symmetric_even  keep blocks 2, 4, ..., L
  asym_even_all   keep m = L_image/2 blocks spread evenly over all L_text
  asym_grouped    keep every k-th block counting back from the top, with k
                  the largest group size such that L_text - k*m >= 1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Module, Parameter, Tensor
from .backbone import FrozenEncoder, forward, item_tokens
from .errors import ConfigError, ContractError
from .layers import Linear

MODE_SYMMETRIC_EVEN = "symmetric_even"
MODE_ASYM_EVEN_ALL = "asym_even_all"
MODE_ASYM_GROUPED = "asym_grouped"
MODES = (MODE_SYMMETRIC_EVEN, MODE_ASYM_EVEN_ALL, MODE_ASYM_GROUPED)

VARIANT_SYMMETRIC = "vs"
VARIANT_ASYMMETRIC = "va"


@dataclass(frozen=True)
class LayerDropPlan:
    """The backbone block indices (1-based) feeding a tower."""

    mode: str
    source_layers: int
    kept_indices: tuple[int, ...]
    group_size: Optional[int] = None

    @property
    def m(self) -> int:
        return len(self.kept_indices)

    def cache_layers(self) -> tuple[int, ...]:
        """State indices to cache: the embedding output plus the kept blocks."""
        return (0,) + self.kept_indices


def select_layers(mode: str, source_layers: int, image_layers: Optional[int] = None) -> LayerDropPlan:
    if mode not in MODES:
        raise ConfigError(f"unknown layer-drop mode {mode!r}")
    if source_layers < 2:
        raise ConfigError(f"need at least 2 source layers, got {source_layers}")

    if mode == MODE_SYMMETRIC_EVEN:
        kept = tuple(range(2, source_layers + 1, 2))
        return LayerDropPlan(mode, source_layers, kept)

    if image_layers is None:
        raise ConfigError(f"mode {mode} needs the image layer count")
    m = image_layers // 2
    if m < 1:
        raise ConfigError(f"image encoder with {image_layers} layers leaves no blocks to keep")
    if source_layers < m:
        raise ConfigError(f"{source_layers} source layers cannot feed {m} blocks")

    if mode == MODE_ASYM_EVEN_ALL:
        kept: list[int] = []
        for j in range(1, m + 1):
            idx = int(math.floor(j * source_layers / m + 0.5))  # round half up
            if kept and idx <= kept[-1]:
                idx = kept[-1] + 1  # deduplicate upward
            kept.append(idx)
        if kept[-1] > source_layers:
            raise ConfigError(f"cannot place {m} distinct blocks within {source_layers} layers")
        return LayerDropPlan(mode, source_layers, tuple(kept))

    # grouped: largest k with source_layers - k*m >= 1, anchored at the top layer
    k = (source_layers - 1) // m
    if k < 1:
        raise ConfigError(f"no feasible group size for {source_layers} layers and {m} blocks")
    kept = tuple(source_layers - (m - j) * k for j in range(1, m + 1))
    return LayerDropPlan(mode, source_layers, kept, group_size=k)


def _sanb_params(h: int, d: int) -> int:
    return 2 * h * d + d + h


def tower_param_count(text_dim: int, image_dim: int, m: int, bottleneck: int,
                      dseq: int, asymmetric: bool) -> int:
    """Parameters of an `IisanModel` with these widths, computed without building it."""
    d = bottleneck
    intra_text = m * _sanb_params(text_dim, d) + (m - 1)
    intra_image = m * _sanb_params(image_dim, d) + (m - 1)
    inter = m * _sanb_params(image_dim, d) + m
    dtl = (text_dim * image_dim + image_dim) if asymmetric else 0
    fusion = (2 * image_dim + text_dim) * dseq + dseq
    return intra_text + intra_image + inter + dtl + fusion


class SanBlock(Module):
    """Bottleneck adapter: x + up(gelu(down(x))). Zero-initialized up makes it the identity."""

    def __init__(self, dim: int, bottleneck: int, name: str, rng: Optional[np.random.Generator]):
        self.down = Linear(dim, bottleneck, f"{name}.down", rng)
        self.up = Linear(bottleneck, dim, f"{name}.up", rng, zero_init=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(x, self.up(ad.gelu(self.down(x))))


def _check_stack(states: Sequence[Tensor], m: int, who: str) -> None:
    if len(states) != m + 1:
        raise ContractError(f"{who}: expected {m + 1} stack entries (embedding + kept), got {len(states)}")


class _Tower(Module):
    """m bottleneck blocks plus one raw scalar gate per level from `first_gate` to m;
    raw starts at 0, so each gate starts as an even mix."""

    first_gate: int

    def __init__(self, dim: int, bottleneck: int, m: int, name: str,
                 rng: Optional[np.random.Generator]):
        self.m = m
        self.blocks = [SanBlock(dim, bottleneck, f"{name}.block{i}", rng) for i in range(1, m + 1)]
        self.gates = {i: Parameter(Tensor(np.zeros((), dtype=np.float32)), f"{name}.gate{i}")
                      for i in range(self.first_gate, m + 1)}


class IntraTower(_Tower):
    """Single-modality ladder: block 1 sees the embedding state, later blocks a
    gated mix of the previous block output and the current kept state."""

    first_gate = 2

    def __call__(self, states: Sequence[Tensor]) -> Tensor:
        _check_stack(states, self.m, "intra tower")
        b = self.blocks[0](states[0])
        for i in range(2, self.m + 1):
            b = self.blocks[i - 1](ad.gate(self.gates[i].tensor, b, states[i]))
        return b


class InterTower(_Tower):
    """Cross-modality ladder: each block mixes the image state with the
    (width-aligned) text state by a gate, plus the previous block output."""

    first_gate = 1

    def __call__(self, text_states: Sequence[Tensor], image_states: Sequence[Tensor],
                 dtl: Optional[Linear]) -> Tensor:
        _check_stack(text_states, self.m, "inter tower (text)")
        _check_stack(image_states, self.m, "inter tower (image)")
        aligned = [dtl(t) for t in text_states] if dtl is not None else list(text_states)
        b = self.blocks[0](ad.gate(self.gates[1].tensor, image_states[0], aligned[0]))
        for i in range(2, self.m + 1):
            mixed = ad.gate(self.gates[i].tensor, image_states[i], aligned[i])
            b = self.blocks[i - 1](ad.add(mixed, b))
        return b


class IisanModel(Module):
    """Three towers, optional dimension transform, and the fusion layer, over
    the layer-drop plans `plans_for` derives from the variant, depths and text mode."""

    def __init__(self, variant: str, text_layers: int, text_dim: int, image_layers: int,
                 image_dim: int, text_mode: Optional[str] = None, bottleneck: int = 16,
                 dseq: int = 64, seed: Optional[int] = 0):
        self.text_plan, self.image_plan = plans_for(variant, text_layers, image_layers, text_mode)
        if variant == VARIANT_SYMMETRIC and text_dim != image_dim:
            raise ConfigError(f"symmetric variant needs equal hidden dims, got {text_dim} and {image_dim}")

        self.variant = variant
        self.text_dim = text_dim
        self.image_dim = image_dim
        self.bottleneck = bottleneck
        self.dseq = dseq
        m = self.m

        rng = None if seed is None else np.random.default_rng(seed)  # None: every Linear starts at zero
        self.intra_text = IntraTower(text_dim, bottleneck, m, "intra_text", rng)
        self.intra_image = IntraTower(image_dim, bottleneck, m, "intra_image", rng)
        self.inter = InterTower(image_dim, bottleneck, m, "inter", rng)
        # dimension transform: aligns the text width to the image width (asymmetric only)
        self.dtl = Linear(text_dim, image_dim, "dtl", rng) if variant == VARIANT_ASYMMETRIC else None
        self.fusion = Linear(image_dim + image_dim + text_dim, dseq, "fusion", rng)

    @property
    def m(self) -> int:
        return self.text_plan.m

    def item_embed(self, text_states: Sequence[Tensor], image_states: Sequence[Tensor]) -> Tensor:
        """Fused item embedding; rows are items when states carry batched rows."""
        e_text = self.intra_text(text_states)
        e_image = self.intra_image(image_states)
        e_inter = self.inter(text_states, image_states, self.dtl)
        return self.fusion(ad.concat([e_image, e_inter, e_text], 1))


class PooledItemModel(Module):
    """The fft and epeft item model, and its own provider: a linear head over both
    encoders' top states at position 0. `batch_states` gives each encoder's
    (items, tokens) token-id matrix, and `item_embed` runs one `forward` per
    encoder over it, with an adapter after each block when `adapters` is set.
    Its parameters include the encoders', frozen ones too: `backward` and Adam skip them."""

    def __init__(self, text_enc: FrozenEncoder, image_enc: FrozenEncoder, bottleneck: int, dseq: int,
                 adapters: bool, seed: int):
        self.encoders = (text_enc, image_enc)
        rng = np.random.default_rng(seed)
        self.head = Linear(text_enc.cfg.hidden_dim + image_enc.cfg.hidden_dim, dseq, "head", rng)
        self.adapters = [[SanBlock(enc.cfg.hidden_dim, bottleneck, f"adapter.{enc.cfg.modality}.block{i}", rng)
                          for i in range(1, enc.cfg.layers + 1)] if adapters else None
                         for enc in self.encoders]

    def batch_states(self, item_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        return tuple(np.array([item_tokens(enc.cfg, i) for i in item_ids]) for enc in self.encoders)

    def item_embed(self, text_tokens: np.ndarray, image_tokens: np.ndarray) -> Tensor:
        pooled = []
        for enc, ids, adapters in zip(self.encoders, (text_tokens, image_tokens), self.adapters):
            top = forward(enc, ids, adapters)[-1]
            items, tokens, hidden = top.shape
            pooled.append(ad.take_rows(ad.reshape(top, (items * tokens, hidden)), np.arange(items) * tokens))
        return self.head(ad.concat(pooled, 1))


def plans_for(variant: str, text_layers: int, image_layers: int,
              text_mode: Optional[str]) -> tuple[LayerDropPlan, LayerDropPlan]:
    """Text and image layer-drop plans for a variant and encoder depths.

    The image side always keeps every second block. The symmetric variant
    needs equal depths and the symmetric mode; the asymmetric one needs an
    asymmetric text mode, asym_even_all when none is given.
    """
    image_plan = select_layers(MODE_SYMMETRIC_EVEN, image_layers)
    if variant == VARIANT_SYMMETRIC:
        if text_mode and text_mode != MODE_SYMMETRIC_EVEN:
            raise ConfigError(f"symmetric variant only supports {MODE_SYMMETRIC_EVEN}, got {text_mode}")
        if text_layers != image_layers:
            raise ConfigError(f"symmetric variant needs equal layer counts, got {text_layers} and {image_layers}")
        return select_layers(MODE_SYMMETRIC_EVEN, text_layers), image_plan
    if variant != VARIANT_ASYMMETRIC:
        raise ConfigError(f"unknown variant {variant!r}")
    mode = text_mode or MODE_ASYM_EVEN_ALL
    if mode == MODE_SYMMETRIC_EVEN:
        raise ConfigError("asymmetric variant needs an asymmetric layer-drop mode for the text side")
    return select_layers(mode, text_layers, image_layers), image_plan
