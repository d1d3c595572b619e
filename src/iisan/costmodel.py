"""Analytic training-cost accounting per fine-tuning regime, plus a live probe.

Regimes
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
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Parameter, Tensor
from .backbone import (HEADS, IMAGE_TOKEN_COUNT, TEXT_TOKEN_COUNT, EncoderConfig, FrozenEncoder, forward,
                       item_tokens)
from .cache import cache_file_size
from .errors import ConfigError, ContractError
from .layers import Linear
from .recsys import (EncodeStateProvider, InteractionDataset, RecModel, SeqEncoder, build_rec_model,
                     compute_popularity, seq_param_count, split_leave_one_out, step_loss)
from .sanet import SanBlock, _sanb_params, plans_for, tower_param_count

FFT = "fft"
EPEFT_ADAPTER = "epeft_adapter"
DPEFT_UNCACHED = "dpeft_uncached"
DPEFT_CACHED = "dpeft_cached"
REGIMES = (FFT, EPEFT_ADAPTER, DPEFT_UNCACHED, DPEFT_CACHED)

CHAIN_ACT_VECTORS = 9
WGRAD_ACT_VECTORS = 7


def block_fwd_flops(s: int, h: int) -> int:
    return 8 * s * h * h + 4 * s * s * h


@dataclass(frozen=True)
class SanSpec:
    """Shape of the trainable side: towers, fusion, and the sequential encoder."""

    variant: str = "vs"
    bottleneck: int = 16
    dseq: int = 64
    seq_blocks: int = 2
    seq_heads: int = 2
    seq_len: int = 10
    text_mode: str = ""  # the text layer-drop mode; "" takes the variant's default


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

# regime -> segments whose weights train, and segments the gradient only passes through
_TRAINED = {
    FFT: ("backbone", "head", "seq"),
    EPEFT_ADAPTER: ("adapter", "head", "seq"),
    DPEFT_UNCACHED: ("tower", "seq"),
    DPEFT_CACHED: ("tower", "seq"),
}
_TRAVERSED = {FFT: (), EPEFT_ADAPTER: ("backbone",), DPEFT_UNCACHED: (), DPEFT_CACHED: ()}


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
    trained, traversed = _TRAINED[regime], _TRAVERSED[regime]
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


class PooledItemModel:
    """The fft and epeft item model, and its own provider: a linear head over both
    encoders' top states at position 0. `batch_states` gives each encoder's
    (items, tokens) token-id matrix, and `item_embed` runs one `forward` per
    encoder over it, with an adapter after each block when `adapters` is set."""

    def __init__(self, text_enc: FrozenEncoder, image_enc: FrozenEncoder, bottleneck: int, dseq: int,
                 adapters: bool):
        self.encoders = (text_enc, image_enc)
        rng = np.random.default_rng(3)
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

    def parameters(self) -> list[Parameter]:
        """Encoders (frozen ones too: `backward` and Adam skip them), head and adapters."""
        out = [p for enc in self.encoders for p in enc.parameters()] + self.head.parameters()
        return out + [p for side in self.adapters if side for blk in side for p in blk.parameters()]


def gradient_flow_probe(regime: str, setup: Optional[ProbeSetup] = None) -> ProbeReport:
    """Run one real training step in `regime` and report where gradients landed.

    `grad_param_names` holds the parameters whose gradient has a non-zero
    element: a bottleneck block's `down` layer gets none on the first step,
    because its `up` layer starts at zero.

    Every regime takes one `recsys.step_loss` without dropout, its backward
    and an Adam step; only the item model differs. Both decoupled regimes
    embed precomputed stacks with the towers (caching changes where stacks
    come from, never what is differentiated), so they probe equally.
    """
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    setup = setup or ProbeSetup.default()
    split = split_leave_one_out(InteractionDataset.from_users(setup.users))
    fft = regime == FFT
    text_enc = FrozenEncoder(setup.text_cfg, trainable=fft)
    image_enc = FrozenEncoder(setup.image_cfg, trainable=fft)
    backbone_params = text_enc.parameters() + image_enc.parameters()
    snapshot = {p.name: p.data.copy() for p in backbone_params}

    if regime in (DPEFT_CACHED, DPEFT_UNCACHED):
        rec = build_rec_model("vs", setup.text_cfg.layers, setup.text_cfg.hidden_dim, setup.image_cfg.layers,
                              setup.image_cfg.hidden_dim, bottleneck=setup.bottleneck, dseq=setup.dseq,
                              max_seq_len=PROBE_SEQ_LEN, seed=1)
        provider = EncodeStateProvider(text_enc, image_enc, rec.items.text_plan, rec.items.image_plan)
    else:
        provider = PooledItemModel(text_enc, image_enc, setup.bottleneck, setup.dseq, regime == EPEFT_ADAPTER)
        rec = RecModel(provider, SeqEncoder(dim=setup.dseq, max_seq_len=PROBE_SEQ_LEN, seed=2))

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
