"""Analytic training-cost accounting per fine-tuning regime, plus a live probe.

Regimes (`recsys.SEGMENTS` names each one's trained and traversed segments)
    fft             everything trainable, no towers; a linear head fuses the
                    pooled final states of both encoders
    epeft_adapter   frozen backbone with one trainable bottleneck adapter per
                    transformer block, same head
    dpeft_uncached  frozen backbone recomputed every step, trainable towers
    dpeft_cached    like dpeft_uncached but hidden states come from disk

Accounting constants (documented, fixed; only cross-regime orderings and
ratios are meaningful, never absolute values):

  * forward FLOPs per transformer block on a length-s, width-h sequence:
        F(s, h) = 8 s h^2 + 4 s^2 h     (projections + attention map)
  * backward FLOPs: 1x F for every segment the gradient chain merely
    traverses (frozen weights: only dL/dx is formed), plus another 1x F when
    the segment's own weights train (dL/dW needs the stored inputs). Fully
    trained segments therefore cost 2x their forward FLOPs.
  * stored activations per token per block: 9 h-wide vectors to backpropagate
    through the block (nonlinearity inputs), 7 more when its weights train
    (linear-layer inputs), plus heads * s^2 attention probabilities.
  * towers operate on pooled per-item vectors, so their terms have no token
    factor; embedded adapters run per token.
"""

from __future__ import annotations

from dataclasses import dataclass
from tempfile import TemporaryDirectory
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam
from .backbone import HEADS, IMAGE_TOKEN_COUNT, TEXT_TOKEN_COUNT, EncoderConfig, FrozenEncoder
from .cache import build_cache, cache_file_size
from .errors import ConfigError, ContractError
from .recsys import (DPEFT_CACHED, DPEFT_UNCACHED, EPEFT_ADAPTER, FFT, REGIMES, SEGMENTS, InteractionDataset,
                     SanSpec, cache_path, compute_popularity, regime_model, seq_param_count, split_leave_one_out,
                     state_provider, step_loss)
from .sanet import _sanb_params, plans_for, tower_param_count

CHAIN_ACT_VECTORS = 9
WGRAD_ACT_VECTORS = 7


def block_fwd_flops(s: int, h: int) -> int:
    return 8 * s * h * h + 4 * s * s * h


@dataclass(frozen=True)
class Workload:
    batch: int
    text_tokens: int
    image_tokens: int
    seq_len: int
    catalog_items: int


@dataclass
class CostReport:
    regime: str
    fwd_backbone_flops: int
    fwd_peft_flops: int
    bwd_flops: int
    activation_bytes: int
    trainable_params: int
    cache_bytes: int
    workload: Workload
    weight_grad_segments: tuple[str, ...]
    traversal_segments: tuple[str, ...]

    def machine_line(self) -> str:
        return (f"COST regime={self.regime} fwdB={self.fwd_backbone_flops} "
                f"fwdP={self.fwd_peft_flops} bwd={self.bwd_flops} "
                f"act={self.activation_bytes} params={self.trainable_params} "
                f"cache={self.cache_bytes}")


# --- parameter counting (mirrors the actual builders; tested against them) ----

def backbone_param_count(cfg: EncoderConfig) -> int:
    h = cfg.hidden_dim
    per_block = 12 * h * h + 13 * h
    return cfg.vocab_or_patch_count * h + cfg.max_positions * h + cfg.layers * per_block


def adapter_param_count(text_cfg: EncoderConfig, image_cfg: EncoderConfig, bottleneck: int) -> int:
    return (text_cfg.layers * _sanb_params(text_cfg.hidden_dim, bottleneck)
            + image_cfg.layers * _sanb_params(image_cfg.hidden_dim, bottleneck))


def fusion_head_param_count(text_cfg: EncoderConfig, image_cfg: EncoderConfig, dseq: int) -> int:
    return (text_cfg.hidden_dim + image_cfg.hidden_dim) * dseq + dseq


# --- the estimator -------------------------------------------------------------

def _backbone_act_floats(cfg: EncoderConfig, tokens: int, trained: bool) -> int:
    per_token = cfg.hidden_dim * (CHAIN_ACT_VECTORS + (WGRAD_ACT_VECTORS if trained else 0))
    return cfg.layers * (tokens * per_token + HEADS * tokens * tokens)


def _segment_costs(text_cfg: EncoderConfig, image_cfg: EncoderConfig, san: SanSpec,
                   wl: Workload, m: int, backbone_trained: bool) -> dict[str, tuple[int, int, int]]:
    """Per segment: forward FLOPs and stored activation floats per item, and parameters."""
    ht, hi, d, dseq = text_cfg.hidden_dim, image_cfg.hidden_dim, san.bottleneck, san.dseq
    lt, li, st, si, s = text_cfg.layers, image_cfg.layers, wl.text_tokens, wl.image_tokens, wl.seq_len
    va = san.variant == "va"
    # towers run on pooled per-item vectors (no token factor); va adds the dimension transform
    tower_fwd = m * 4 * ht * d + 2 * (m * 4 * hi * d) + 2 * (2 * hi + ht) * dseq
    tower_act = ((m + 1) * (ht + hi)                                 # input stacks
                 + m * (2 * ht + 2 * d) + 2 * (m * (2 * hi + 2 * d))
                 + (2 * hi + ht) + dseq)                             # fusion in/out
    if va:
        tower_fwd += (m + 1) * 2 * ht * hi
        tower_act += (m + 1) * hi
    seq_block_act = s * dseq * (CHAIN_ACT_VECTORS + WGRAD_ACT_VECTORS) + san.seq_heads * s * s
    return {
        "backbone": (lt * block_fwd_flops(st, ht) + li * block_fwd_flops(si, hi),
                     _backbone_act_floats(text_cfg, st, backbone_trained)
                     + _backbone_act_floats(image_cfg, si, backbone_trained),
                     backbone_param_count(text_cfg) + backbone_param_count(image_cfg)),
        "adapter": (lt * 4 * st * ht * d + li * 4 * si * hi * d,
                    lt * st * (2 * ht + 2 * d) + li * si * (2 * hi + 2 * d),
                    adapter_param_count(text_cfg, image_cfg, d)),
        "tower": (tower_fwd, tower_act, tower_param_count(ht, hi, m, d, dseq, va)),
        "head": (2 * (ht + hi) * dseq, ht + hi + dseq,
                 fusion_head_param_count(text_cfg, image_cfg, dseq)),
        "seq": (san.seq_blocks * block_fwd_flops(s, dseq), s * dseq + san.seq_blocks * seq_block_act,
                seq_param_count(dseq, san.seq_blocks, san.seq_len)),
    }


def estimate(text_cfg: EncoderConfig, image_cfg: EncoderConfig, san: SanSpec, regime: str,
             batch: int = 32, seq_lens: tuple[int, int] = (TEXT_TOKEN_COUNT, IMAGE_TOKEN_COUNT),
             catalog_items: int = 1000) -> CostReport:
    """Per-step cost of one batch of items plus one batch of user sequences.

    Every segment on the tape (trained or traversed) runs forward once and
    stores its activations; backward costs 2x forward for trained segments
    and 1x for traversed ones. The backbone also runs forward, off the tape,
    in the uncached decoupled regime. The towers' depth m comes from the
    layer-drop plans, so depths no model can be built for are a ConfigError.
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    if san.variant == "vs" and text_cfg.hidden_dim != image_cfg.hidden_dim:
        raise ConfigError("symmetric estimate needs equal hidden dims")
    wl = Workload(batch, seq_lens[0], seq_lens[1], san.seq_len, catalog_items)
    m = plans_for(san.variant, text_cfg.layers, image_cfg.layers, san.text_mode)[0].m
    trained, traversed = SEGMENTS[regime]
    costs = _segment_costs(text_cfg, image_cfg, san, wl, m, "backbone" in trained)
    on_tape = trained + traversed
    cache_bytes = 0
    if regime == DPEFT_CACHED:
        cache_bytes = (cache_file_size(catalog_items, m + 1, text_cfg.hidden_dim)
                       + cache_file_size(catalog_items, m + 1, image_cfg.hidden_dim))
    return CostReport(
        regime=regime,
        fwd_backbone_flops=0 if regime == DPEFT_CACHED else batch * costs["backbone"][0],
        fwd_peft_flops=batch * sum(costs[seg][0] for seg in on_tape if seg != "backbone"),
        bwd_flops=batch * (sum(2 * costs[seg][0] for seg in trained)
                           + sum(costs[seg][0] for seg in traversed)),
        activation_bytes=4 * batch * sum(costs[seg][1] for seg in on_tape),
        trainable_params=sum(costs[seg][2] for seg in trained),
        cache_bytes=cache_bytes,
        workload=wl,
        weight_grad_segments=trained,
        traversal_segments=traversed,
    )


# --- regime comparison -----------------------------------------------------------

_EXPECTED_ORDER = (DPEFT_CACHED, DPEFT_UNCACHED, EPEFT_ADAPTER, FFT)


@dataclass
class Comparison:
    lines: list[str]
    verdict: str  # "PASS" | "FAIL"


def compare(reports: Sequence[CostReport]) -> Comparison:
    """Tabulate reports over one workload and check the expected regime ordering."""
    if len(reports) < 2:
        raise ContractError(f"compare: an ordering needs at least two reports, got {len(reports)}")
    wl = reports[0].workload
    if any(r.workload != wl for r in reports):
        raise ContractError("compare: reports cover different workloads")

    header = f"{'regime':<16}{'fwd_backbone':>16}{'fwd_peft':>14}{'bwd':>16}{'act_bytes':>14}{'params':>12}{'cache':>12}"
    lines = [header]
    for r in sorted(reports, key=lambda r: (r.activation_bytes, r.bwd_flops)):
        lines.append(f"{r.regime:<16}{r.fwd_backbone_flops:>16}{r.fwd_peft_flops:>14}"
                     f"{r.bwd_flops:>16}{r.activation_bytes:>14}{r.trainable_params:>12}{r.cache_bytes:>12}")

    by_regime = {r.regime: r for r in reports}
    present = [by_regime[name] for name in _EXPECTED_ORDER if name in by_regime]
    ok = True
    for metric in ("activation_bytes", "bwd_flops"):
        values = [getattr(r, metric) for r in present]
        if any(b < a for a, b in zip(values, values[1:])):
            ok = False
    return Comparison(lines, "PASS" if ok else "FAIL")


# --- gradient-flow probe -----------------------------------------------------------

_SEGMENT_BY_PREFIX = {
    "backbone": "backbone",
    "intra_text": "tower", "intra_image": "tower", "inter": "tower",
    "dtl": "tower", "fusion": "tower",
    "adapter": "adapter",
    "head": "head",
    "seq": "seq",
}


def segment_of(param_name: str) -> str:
    return _SEGMENT_BY_PREFIX[param_name.split(".", 1)[0]]


@dataclass
class ProbeReport:
    regime: str
    grad_param_names: set[str]
    all_param_names: set[str]
    backbone_param_names: set[str]
    backbone_activations_retained: bool
    backbone_weights_unchanged: bool

    @property
    def segments_with_gradients(self) -> tuple[str, ...]:
        return tuple(sorted({segment_of(n) for n in self.grad_param_names}))


@dataclass
class ProbeSetup:
    """A tiny but real training instance shared by every regime."""

    text_cfg: EncoderConfig
    image_cfg: EncoderConfig
    bottleneck: int
    dseq: int
    users: dict[int, list[int]]

    @classmethod
    def default(cls) -> "ProbeSetup":
        return cls(
            text_cfg=EncoderConfig("text", 2, 8, 32, 16, seed=101),
            image_cfg=EncoderConfig("image", 2, 8, 32, 32, seed=202),
            bottleneck=4,
            dseq=8,
            users={1: [0, 1, 2, 3, 4], 2: [2, 3, 4, 0, 1], 3: [4, 5, 1, 2, 3]},
        )


PROBE_SEQ_LEN = 6


def gradient_flow_probe(regime: str, setup: Optional[ProbeSetup] = None) -> ProbeReport:
    """Run one real training step in `regime` and report where gradients landed.

    `grad_param_names` holds the parameters whose gradient has a non-zero
    element: a bottleneck block's `down` layer gets none on the first step,
    because its `up` layer starts at zero. A non-zero element may be float32
    roundoff: every attention key bias (`wk.b`) has a true gradient of zero,
    since a constant added to every key shifts a whole softmax row, yet its
    gradient reads up to ~1e-7 and is counted. Tests must therefore not pin
    how many names the set holds.

    Every regime takes one `recsys.step_loss` without dropout, its backward
    and an Adam step, on the model and item states `recsys.regime_model` and
    `recsys.state_provider` build for it. dpeft_cached reads a cache that it
    builds in a temporary directory; its backbone is the encoders that built it.
    """
    setup = setup or ProbeSetup.default()
    split = split_leave_one_out(InteractionDataset.from_users(setup.users))
    cfgs = (setup.text_cfg, setup.image_cfg)
    san = SanSpec(bottleneck=setup.bottleneck, dseq=setup.dseq, seq_len=PROBE_SEQ_LEN)
    rec = regime_model(regime, *cfgs, san, seed=1)
    with TemporaryDirectory() as cache_dir:
        built = []  # dpeft_cached reads a cache, and its backbone is the encoders that built it
        if regime == DPEFT_CACHED:
            built = [FrozenEncoder(cfg) for cfg in cfgs]
            for enc, plan in zip(built, (rec.items.text_plan, rec.items.image_plan)):
                build_cache(enc, split.catalog, plan.cache_layers(), cache_path(cache_dir, enc.cfg.modality))
        provider = state_provider(regime, *cfgs, rec.items, cache_dir)
        backbone_params = [p for enc in built or provider.encoders for p in enc.parameters()]
        snapshot = {p.name: p.data.copy() for p in backbone_params}
        tape, loss = step_loss(rec, sorted(split.train), split, compute_popularity(split), provider)
    # gradients must be taken before the update: tape entries reference live arrays
    all_params = {p.name: p for p in rec.parameters() + backbone_params}.values()
    grad_map = ad.backward(tape, loss, all_params)
    Adam(rec.parameters(), lr=1e-3).step(grad_map)
    return ProbeReport(
        regime=regime,
        grad_param_names={name for name, g in grad_map.items() if g.any()},
        all_param_names={p.name for p in all_params},
        backbone_param_names={p.name for p in backbone_params},
        backbone_activations_retained=any(e.scope.startswith("backbone") for e in tape.entries),
        backbone_weights_unchanged=all(np.array_equal(snapshot[p.name], p.data)
                                       for p in backbone_params),
    )
