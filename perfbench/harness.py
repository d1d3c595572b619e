"""Run one benchmark workload in this process, through `iisan.cli.main`.

`run.py` starts this file in a child process whose BLAS pools are pinned to
one thread and whose PYTHONPATH holds the checkout's `src`. The workload
drives the user path (`gen`, `cache`, `train`, `eval --baseline`) with
`--set` overrides, so every number below is what a user of the CLI pays.

A run interleaves three phases inside its `--seconds` budget, each taking
about its share of the time (SHARES) and each running at least once:

  cache  `cache` builds both modalities' caches and verifies them
  train  `gen` then `train` for the workload's epochs
  eval   `eval --baseline` on the latest checkpoint

Untraced, the only hook is a perf_counter pair around each
`recsys.train_step`. Traced (`--traced 1`), every other call of each phase
runs with `tracing.py`'s wrappers installed, starting with the first: the
traced calls give the per-layer metrics, and the untraced calls between
them, made in the same stretch of time, give the tracing overhead. A traced
run ends with the measured TPME table.

    PYTHONPATH=src python3 perfbench/harness.py --workload catalog-1k \
        --seed 1 --seconds 30 --traced 0 --result r.json --work w
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iisan import cli, recsys
from iisan.cache import verify_cache
from tracing import Tracer, layer_metrics, self_times, tpme_metrics, tpme_table

# Share of the budget per phase, in the order the phases first run. On a
# shared 2-vCPU host, speed switches between a fast and a slow state every few
# tens of seconds, so throughputs are totals over interleaved calls (a mean
# over both states), not medians that snap to one of them.
SHARES = {"cache": 0.15, "train": 0.6, "eval": 0.25}
# catalog-1k builds ~2,000 items per `cache` call (~8 s); a larger cache share
# lets a run take a second build later in the run.
CATALOG_SHARES = {"cache": 0.35, "train": 0.4, "eval": 0.25}
WARMUP_STEPS = 2  # per `train` call: first steps allocate and fault pages in
TAIL_BEYOND = 10

# Shared by every workload: batch 32, sequence length 10, dropout 0.1.
COMMON = ("train.batch=32", "seq.max_len=10", "train.dropout=0.1", "train.lr=0.001")
# The asymmetric config of acceptance criterion c7.
C7 = ("variant=va", "text.layers=24", "text.hidden=48", "image.layers=12", "image.hidden=32",
      "gen.users=200", "gen.items=50")
MICRO_C7 = ("text.layers=8", "text.hidden=24", "text.vocab=64", "image.layers=4",
            "image.hidden=16", "image.vocab=64", "san.bottleneck=4", "seq.dim=16",
            "gen.users=25", "gen.items=15", "gen.min_len=6", "gen.max_len=9", "train.batch=8")


@dataclass(frozen=True)
class Workload:
    name: str
    settings: tuple[str, ...]
    epochs: int
    micro_settings: tuple[str, ...]
    check_hr: bool = False
    shares: dict[str, float] = field(default_factory=lambda: SHARES)


WORKLOADS = {w.name: w for w in (
    Workload("train-cached-asym", C7 + ("regime=dpeft_cached",), 5, MICRO_C7, check_hr=True),
    Workload("train-uncached-asym", C7 + ("regime=dpeft_uncached",), 2, MICRO_C7),
    Workload("catalog-1k", ("variant=vs", "text.layers=12", "text.hidden=64", "image.layers=12",
                            "image.hidden=64", "gen.users=400", "gen.items=1000"), 2,
             ("text.layers=4", "text.hidden=16", "text.vocab=64", "image.layers=4",
              "image.hidden=16", "image.vocab=64", "san.bottleneck=4", "seq.dim=16",
              "gen.users=30", "gen.items=40", "train.batch=8"), shares=CATALOG_SHARES),
)}


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the one untraced hook
# ---------------------------------------------------------------------------

class StepRecorder:
    """Wraps `recsys.train_step` with one perf_counter pair per step."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.users: list[int] = []
        self.losses: list[float] = []
        self._orig = None

    def install(self) -> None:
        orig = self._orig = recsys.train_step

        def timed_step(rec, users, *args, **kwargs):
            t0 = time.perf_counter()
            loss = orig(rec, users, *args, **kwargs)
            self.ends.append(time.perf_counter())
            self.starts.append(t0)
            self.users.append(len(users))
            self.losses.append(loss)
            return loss

        recsys.train_step = timed_step

    def uninstall(self) -> None:
        recsys.train_step = self._orig


# ---------------------------------------------------------------------------
# driving the CLI
# ---------------------------------------------------------------------------

@dataclass
class Op:
    command: str
    rc: int
    seconds: float
    failed_checks: list[str]

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.failed_checks)


class CliCalls:
    """One workload's CLI calls, their timings and their checks."""

    def __init__(self, workload: Workload, seed: int, micro: bool, work: Path, tracer=None):
        settings = workload.settings + COMMON + (workload.micro_settings if micro else ())
        self.base = ["--out", str(work), "--seed", str(seed)]
        for item in settings:
            self.base += ["--set", item]
        self.workload = workload
        self.tracer = tracer
        self.ops: list[Op] = []

    def call(self, command: str, *extra: str, traced: bool = False) -> tuple[Op, str, float]:
        """Run one CLI command; returns the op, its stdout and its start time."""
        buf = io.StringIO()
        with contextlib.ExitStack() as stack:
            if traced:
                self.tracer.install()
                stack.callback(self.tracer.uninstall)
                stack.enter_context(self.tracer.span(f"cli.{command}"))
            stack.enter_context(contextlib.redirect_stdout(buf))
            t0 = time.perf_counter()
            rc = cli.main([command, *self.base, *extra])
            seconds = time.perf_counter() - t0
        op = Op(command, rc, seconds, [])
        self.ops.append(op)
        return op, buf.getvalue(), t0


def _fields(text: str, tag: str) -> list[dict[str, str]]:
    """`key=value` fields of every stdout line that starts with `tag`."""
    return [dict(re.findall(r"(\S+?)=(\S+)", line))
            for line in text.splitlines() if line.startswith(tag + " ")]


def run_workload(workload: Workload, seed: int, seconds: float, micro: bool, work: Path,
                 tracer: Tracer | None = None) -> dict:
    steps = StepRecorder()
    steps.install()
    try:
        run = _Run(CliCalls(workload, seed, micro, work, tracer), steps)
        elapsed = _schedule(run, seconds)
        return run.result(elapsed)
    finally:
        steps.uninstall()


def _schedule(run: "_Run", seconds: float) -> float:
    """Interleave the phases so each one samples the whole run, not one stretch of it.

    Every phase runs once, in order (train needs the cache, eval a checkpoint),
    twice over when traced so that each has a traced and an untraced call;
    then the phase furthest behind its share of the elapsed time runs next,
    among those whose last call still fits in the budget.
    """
    shares = run.s.workload.shares
    start = time.perf_counter()
    spent = dict.fromkeys(shares, 0.0)
    last = {}
    for phase in list(shares) * (2 if run.s.tracer else 1):
        last[phase] = getattr(run, phase)()
        spent[phase] += last[phase]
    while True:
        now = time.perf_counter() - start
        fits = [p for p in shares if now + last[p] <= seconds]
        if not fits:
            return now
        phase = max(fits, key=lambda p: shares[p] * now - spent[p])
        last[phase] = getattr(run, phase)()
        spent[phase] += last[phase]


class _Run:
    """The three phases of a run and the samples they leave."""

    def __init__(self, cli_calls: CliCalls, steps: StepRecorder):
        self.s = cli_calls
        self.steps = steps
        # samples are keyed by whether the call was traced
        self.builds = {False: [], True: []}  # (items encoded, seconds)
        self.evals = {False: [], True: []}  # (users ranked, seconds)
        self.setup_s = {False: [], True: []}
        self.call_steps = {False: [], True: []}  # step indices of each `train` call
        self.catalog = 0
        self.loss_lines: list[str] = []
        self.hr: dict[str, float] = {}
        cli_calls.call("gen")

    def _traced(self, samples: dict) -> bool:
        """Traced runs alternate, first call traced; untraced runs never trace."""
        return self.s.tracer is not None and len(samples[True]) <= len(samples[False])

    def cache(self) -> float:
        traced = self._traced(self.builds)
        op, out, _ = self.s.call("cache", traced=traced)
        lines = _fields(out, "CACHE")
        for line in lines:
            report = verify_cache(line["path"])
            if not report.ok:
                op.failed_checks.append(f"verify_cache: {report}")
        self.catalog = int(lines[0]["items"]) if lines else 0
        self.builds[traced].append((sum(int(line["items"]) for line in lines), op.seconds))
        return op.seconds

    def train(self) -> float:
        """`gen` then `train`: set-up is the gen time plus train's time before its first step."""
        steps = self.steps
        traced = self._traced(self.call_steps)
        gen, _, _ = self.s.call("gen", traced=traced)
        first = len(steps.starts)
        op, out, t0 = self.s.call("train", "--set", f"train.epochs={self.s.workload.epochs}",
                                  traced=traced)
        if len(steps.starts) > first:
            self.setup_s[traced].append(gen.seconds + steps.starts[first] - t0)
        self.call_steps[traced].append(range(first, len(steps.starts)))
        losses = [float(f["value"]) for f in _fields(out, "LOSS")]
        if not self.loss_lines:
            self.loss_lines = [line for line in out.splitlines() if line.startswith("LOSS ")]
        if not all(math.isfinite(x) for x in steps.losses[first:]):
            op.failed_checks.append("non-finite step loss")
        if len(losses) < 2 or not losses[-1] < losses[0]:
            op.failed_checks.append(f"last epoch loss not below the first: {losses}")
        return gen.seconds + op.seconds

    def eval(self) -> float:
        traced = self._traced(self.evals)
        op, out, _ = self.s.call("eval", "--baseline", traced=traced)
        evaluated = _fields(out, "EVAL")
        if evaluated:
            self.evals[traced].append((int(evaluated[0]["users"]), op.seconds))
        self.hr = {tag: float(f[0]["hr10"]) for tag in ("METRICS", "BASELINE")
                   if (f := _fields(out, tag))}
        if self.s.workload.check_hr and not (
                len(self.hr) == 2 and self.hr["METRICS"] >= self.hr["BASELINE"]):
            op.failed_checks.append(f"hr10 below the popularity baseline: {self.hr}")
        return op.seconds

    def _step_ms(self, traced: bool) -> tuple[list[int], list[float]]:
        """Indices and times of the post-warm-up steps of traced or untraced calls."""
        steps = self.steps
        index = [i for r in self.call_steps[traced] for i in r[WARMUP_STEPS:]]
        return index, [(steps.ends[i] - steps.starts[i]) * 1000.0 for i in index]

    def _samples(self, traced: bool) -> dict:
        steps = self.steps
        return {
            "setup_s": self.setup_s[traced],
            "cache_s": [t for _, t in self.builds[traced]],
            "eval_s": [t for _, t in self.evals[traced]],
            "step_ms_by_call": [[(steps.ends[i] - steps.starts[i]) * 1000.0 for i in r]
                                for r in self.call_steps[traced]],
            "step_users_by_call": [[steps.users[i] for i in r] for r in self.call_steps[traced]],
        }

    def result(self, elapsed: float) -> dict:
        """End-to-end metrics from the untraced calls; tracing overhead from both kinds."""
        s, steps = self.s, self.steps
        post_warmup, step_ms = self._step_ms(False)
        setup_s, builds, evals = self.setup_s[False], self.builds[False], self.evals[False]
        _, traced_ms = self._step_ms(True)
        if not step_ms or not evals or not setup_s or (s.tracer and not traced_ms):
            raise RuntimeError("run produced no post-warm-up steps, evals or setups; "
                               f"ops: {[(o.command, o.rc) for o in s.ops]}")
        ranked = sorted(step_ms)
        # the highest percentile with TAIL_BEYOND steps beyond it; the maximum on short runs
        tail_index = len(ranked) - 1 - (TAIL_BEYOND if len(ranked) > TAIL_BEYOND else 0)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "cache_build_items_per_s": _rate(builds),
            "train_users_per_s": (sum(steps.users[i] for i in post_warmup)
                                  / (sum(step_ms) / 1000.0)),
            "step_ms_p50": statistics.median(step_ms),
            "step_ms_tail": ranked[tail_index],
            "eval_users_per_s": _rate(evals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result = {
            "metrics": metrics,
            "step_ms_tail_percentile": 100.0 * (tail_index + 1) / len(ranked),
            "steps_beyond_tail": len(ranked) - tail_index - 1,
            "steps_measured": len(step_ms),
            "steps_total": len(steps.starts),
            "catalog_items": self.catalog,
            "cache_builds": len(builds),
            "train_calls": len(setup_s),
            "eval_passes": len(evals),
            "samples": self._samples(False),
            "hr10": self.hr,
            "loss_lines": self.loss_lines,
            "elapsed_s": elapsed,
            "ops": [{"command": o.command, "rc": o.rc, "seconds": o.seconds,
                     "failed_checks": o.failed_checks} for o in s.ops],
            "attempted": len(s.ops),
            "failed": sum(o.failed for o in s.ops),
        }
        if s.tracer is not None:
            result["traced_samples"] = self._samples(True)
            result["overhead"] = {
                "trace.step_overhead_pct":
                    100.0 * (statistics.median(traced_ms) / metrics["step_ms_p50"] - 1.0),
                "trace.eval_overhead_pct":
                    100.0 * (metrics["eval_users_per_s"] / _rate(self.evals[True]) - 1.0),
                "trace.cache_build_overhead_pct":
                    100.0 * (metrics["cache_build_items_per_s"] / _rate(self.builds[True]) - 1.0),
            }
        return result


def _rate(samples: list[tuple[int, float]]) -> float:
    """Work done per second over all samples of (work, seconds)."""
    return sum(n for n, _ in samples) / sum(t for _, t in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", help="traced runs: where to write the spans")
    parser.add_argument("--work", required=True, help="working directory for CLI outputs")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.traced else None
    work = Path(args.work)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.micro, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, WARMUP_STEPS)
        result["layers"].update(result["overhead"])
        tracer.install()
        try:
            result["tpme"] = tpme_table(tracer)
        finally:
            tracer.uninstall()
        result["layers"].update(tpme_metrics(result["tpme"]))
        result["self_times"] = self_times(tracer)
        if args.spans:
            tracer.dump(args.spans)
    result["environment"] = environment(args.seed)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
