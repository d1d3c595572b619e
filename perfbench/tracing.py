"""Spans at the layer boundaries of `iisan`, recorded from outside the package.

`Tracer.install` replaces public functions at the name each caller resolves
(a module attribute or a class attribute) with a wrapper that records one
span: name, start, end and the span that was open when it started. Spans
are kept in memory and written out at exit; nothing under `src/` changes.

Layers are the package's modules: backbone, cache, sanet, recsys, autodiff
and costmodel. `layers.py` has no spans of its own, so its time is charged
to whichever layer called it. Spans named `cli.*` are opened by the harness
around each CLI command. A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Callable

from iisan import autodiff, cache, cli, costmodel, recsys, sanet
from iisan.backbone import IMAGE_TOKEN_COUNT, TEXT_TOKEN_COUNT, EncoderConfig

STEP = "recsys.train_step"
EVAL = "recsys.evaluate"
CACHE_CMD = "cli.cache"
PROBE = "costmodel.gradient_flow_probe"


def _tape_stats(args, result) -> dict:
    """Read the finished tape in the `backward` wrapper: entries, scopes, bytes."""
    entries = args[0].entries
    return {
        "tape_entries": len(entries),
        "tape_backbone": sum(1 for e in entries if e.scope.startswith("backbone")),
        "tape_unscoped": sum(1 for e in entries if not e.scope),
        "retained_bytes": sum(e.out.data.nbytes for e in entries),
        # backward returns one gradient per trainable parameter
        "trainable": sum(g.size for g in result.values()),
    }


# (owner, attribute, span name, attrs(args, result) or None)
TARGETS: list[tuple[object, str, str, Callable | None]] = [
    (recsys, "encode_item", "backbone.encode_item", None),
    (cache, "encode_item", "backbone.encode_item", None),
    (cli, "build_cache", "cache.build_cache", lambda a, r: {"bytes": r.byte_size}),
    (cli, "verify_cache", "cache.verify_cache", None),
    (cache.CacheStore, "read_item", "cache.read_item", None),
    (recsys.CachedStateProvider, "batch_states", "cache.batch_states", None),
    (recsys.EncodeStateProvider, "batch_states", "recsys.encode_batch_states", None),
    (sanet.IisanModel, "item_embed", "sanet.item_embed", lambda a, r: {"items": r.shape[0]}),
    (recsys, "train_step", STEP, None),
    (recsys, "sequence_loss", "recsys.sequence_loss", lambda a, r: {"candidates": len(a[2])}),
    (recsys.SeqEncoder, "states", "recsys.seq_states", None),
    (recsys, "inbatch_debiased_ce", "recsys.loss_ce", None),
    (recsys, "evaluate", EVAL, None),
    (autodiff, "backward", "autodiff.backward", _tape_stats),
    (autodiff.Adam, "step", "autodiff.adam_step", None),
    (costmodel, "gradient_flow_probe", PROBE, None),
    (costmodel, "estimate", "costmodel.estimate", None),
]


class Tracer:
    """In-memory spans; parallel lists keep the per-call cost low."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def _wrap(self, fn, name: str, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(i)
            if attrs is not None:
                self.attrs[i] = attrs(args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, attrs in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, attributes."""
        with open(path, "w", encoding="utf-8") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps([name, self.starts[i], self.ends[i], self.parents[i],
                                    self.attrs.get(i, {})]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _owners(tr: Tracer, root: str, upto: int) -> list[int]:
    """For each span, the index of its nearest enclosing `root` span, or -1."""
    owner = [-1] * upto
    for i in range(upto):
        if tr.names[i] == root:
            owner[i] = i
        elif tr.parents[i] >= 0:
            owner[i] = owner[tr.parents[i]]
    return owner


class _Grouped:
    """Sums of span time, span count and attributes per enclosing root span."""

    def __init__(self, tr: Tracer, root: str, upto: int, keep=lambda i: True):
        owner = _owners(tr, root, upto)
        self.roots = [i for i in range(upto) if tr.names[i] == root and keep(i)]
        kept = set(self.roots)
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.attr = defaultdict(float)
        for i in range(upto):
            r = owner[i]
            if r not in kept:
                continue
            self.ms[r, tr.names[i]] += (tr.ends[i] - tr.starts[i]) * 1000.0
            self.calls[r, tr.names[i]] += 1
            for key, value in tr.attrs.get(i, {}).items():
                self.attr[r, key] += value

    def per_root(self, table, *keys: str) -> list[float]:
        return [sum(table[r, k] for k in keys) for r in self.roots]

    def median(self, table, *keys: str) -> float:
        return _median(self.per_root(table, *keys))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr: Tracer, warmup_steps: int) -> dict:
    """Per-layer metrics from the workload's spans.

    `_per_step` values are medians over post-warm-up steps, `eval_*` and
    `cache.read_*` medians over eval passes, `cache.build/write/bytes`
    medians over `cache` commands, `backbone.*` totals over the traced calls.
    """
    upto = len(tr.names)

    # steps are numbered within their `cli.train` span; the first ones are warm-up
    position: dict[int, int] = defaultdict(int)
    rank = {}
    for i in range(upto):
        if tr.names[i] == STEP:
            rank[i] = position[tr.parents[i]]
            position[tr.parents[i]] += 1
    steps = _Grouped(tr, STEP, upto, keep=lambda i: rank[i] >= warmup_steps)
    evals = _Grouped(tr, EVAL, upto)
    builds = _Grouped(tr, CACHE_CMD, upto)

    encode = [(tr.ends[i] - tr.starts[i]) * 1000.0 for i in range(upto)
              if tr.names[i] == "backbone.encode_item"]
    fetch = ("cache.batch_states", "recsys.encode_batch_states")
    eval_rank = [total - fetched - embedded for total, fetched, embedded in zip(
        evals.per_root(evals.ms, EVAL), evals.per_root(evals.ms, *fetch),
        evals.per_root(evals.ms, "sanet.item_embed"))]
    cache_write = [built - encoded for built, encoded in zip(
        builds.per_root(builds.ms, "cache.build_cache"),
        builds.per_root(builds.ms, "backbone.encode_item"))]
    first_backward = next((i for i in range(upto) if tr.names[i] == "autodiff.backward"), None)

    return {
        "backbone.encode_calls": len(encode),
        "backbone.encode_ms": sum(encode),
        "backbone.encode_ms_per_item": sum(encode) / len(encode) if encode else 0.0,
        "cache.build_ms": builds.median(builds.ms, "cache.build_cache"),
        "cache.write_ms": _median(cache_write),
        "cache.bytes_written": builds.median(builds.attr, "bytes"),
        "cache.read_calls": evals.median(evals.calls, "cache.read_item"),
        "cache.read_ms": evals.median(evals.ms, "cache.read_item"),
        "cache.fetch_ms_per_step": steps.median(steps.ms, "cache.batch_states"),
        "sanet.item_embed_ms_per_step": steps.median(steps.ms, "sanet.item_embed"),
        "sanet.items_embedded_per_step": steps.median(steps.attr, "items"),
        "recsys.seq_states_calls_per_step": steps.median(steps.calls, "recsys.seq_states"),
        "recsys.seq_loss_fwd_ms_per_step": steps.median(steps.ms, "recsys.sequence_loss"),
        "recsys.loss_ce_ms_per_step": steps.median(steps.ms, "recsys.loss_ce"),
        "recsys.candidates_per_step": steps.median(steps.attr, "candidates"),
        "recsys.eval_fetch_ms": evals.median(evals.ms, *fetch),
        "recsys.eval_embed_ms": evals.median(evals.ms, "sanet.item_embed"),
        "recsys.eval_rank_ms": _median(eval_rank),
        "autodiff.tape_entries_per_step": steps.median(steps.attr, "tape_entries"),
        "autodiff.tape_entries.backbone": steps.median(steps.attr, "tape_backbone"),
        "autodiff.tape_entries.unscoped": steps.median(steps.attr, "tape_unscoped"),
        "autodiff.retained_bytes_per_step": steps.median(steps.attr, "retained_bytes"),
        "autodiff.backward_ms_per_step": steps.median(steps.ms, "autodiff.backward"),
        "autodiff.adam_ms_per_step": steps.median(steps.ms, "autodiff.adam_step"),
        "autodiff.trainable_params": (tr.attrs[first_backward]["trainable"]
                                      if first_backward is not None else 0),
    }


def self_times(tr: Tracer) -> dict[str, dict]:
    """Total and self milliseconds and call counts per span name."""
    child_ms = [0.0] * len(tr.names)
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child_ms[p] += (tr.ends[i] - tr.starts[i]) * 1000.0
    table: dict[str, dict] = {}
    for i, name in enumerate(tr.names):
        total = (tr.ends[i] - tr.starts[i]) * 1000.0
        row = table.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += total
        row["self_ms"] += total - child_ms[i]
    return table


# ---------------------------------------------------------------------------
# measured TPME: one real probe step per regime beside the cost model
# ---------------------------------------------------------------------------

PROBE_REPEATS = 3


def probe_setups() -> dict[str, costmodel.ProbeSetup]:
    default = costmodel.ProbeSetup.default()
    large = costmodel.ProbeSetup(
        text_cfg=EncoderConfig("text", 12, 32, 512, 32, seed=101),
        image_cfg=EncoderConfig("image", 12, 32, 256, 32, seed=202),
        bottleneck=8, dseq=32, users=default.users)
    return {"default": default, "large_12x32": large}


def _modeled(setup: costmodel.ProbeSetup, regime: str) -> costmodel.CostReport:
    """`costmodel.estimate` at the probe's shape: one batch of the probe's candidates."""
    split = recsys.split_leave_one_out(recsys.InteractionDataset.from_users(setup.users))
    # the probe trains with max_seq_len 6 on every user at once
    windows = recsys.batch_windows(sorted(split.train), split, 6)
    candidates = len({item for w in windows.values() for item in w})
    san = costmodel.SanSpec(variant="vs", bottleneck=setup.bottleneck, dseq=setup.dseq,
                            seq_blocks=2, seq_heads=2, seq_len=6)
    return costmodel.estimate(setup.text_cfg, setup.image_cfg, san, regime, batch=candidates,
                              seq_lens=(TEXT_TOKEN_COUNT, IMAGE_TOKEN_COUNT),
                              catalog_items=candidates)


def tpme_table(tr: Tracer) -> dict:
    """Tape bytes, entries, trainable elements and probe time for every regime.

    The ordering is recorded, not asserted: on the larger setup the measured
    adapter tape exceeds full fine-tuning although the model says otherwise.
    """
    table = {}
    for setup_name, setup in probe_setups().items():
        rows = {}
        for regime in costmodel.REGIMES:
            times = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                costmodel.gradient_flow_probe(regime, setup)
                times.append((time.perf_counter() - t0) * 1000.0)
            last = next(i for i in reversed(range(len(tr.names)))
                        if tr.names[i] == "autodiff.backward")
            stats = tr.attrs[last]
            model = _modeled(setup, regime)
            rows[regime] = {
                "retained_bytes": stats["retained_bytes"],
                "tape_entries": stats["tape_entries"],
                "tape_entries.backbone": stats["tape_backbone"],
                "trainable_elements": stats["trainable"],
                "step_ms": statistics.median(times),
                "modeled_act_bytes": model.activation_bytes,
                "modeled_params": model.trainable_params,
                "modeled_bwd_flops": model.bwd_flops,
            }
        table[setup_name] = {
            "regimes": rows,
            "measured_order": sorted(rows, key=lambda r: rows[r]["retained_bytes"]),
            "modeled_order": sorted(rows, key=lambda r: rows[r]["modeled_act_bytes"]),
        }
    return table


def tpme_metrics(table: dict) -> dict:
    """Per-layer `costmodel.<regime>.*` metrics from the default probe setup."""
    out = {}
    for regime, row in table["default"]["regimes"].items():
        for key in ("modeled_act_bytes", "retained_bytes", "tape_entries", "step_ms"):
            out[f"costmodel.{regime}.{key}"] = row[key]
    return out
