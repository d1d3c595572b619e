"""The benchmark's own tests: micro-size runs of every workload through run.py.

Each run is a real child process on a tiny model, so these check the result
line's schema, the metric names against BENCHMARK.json, the counts that must
repeat exactly, and the cached/uncached loss invariant seen from outside.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload: str, trace: int, seed: int = SEED, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--micro"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@functools.lru_cache(maxsize=None)
def _result(workload: str, trace: int) -> tuple[dict, dict]:
    """The result line and the full result file of one micro run."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = proc.stderr.strip().splitlines()[-1].split("wrote ", 1)[1]
    return line, json.loads(Path(path).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_schema_matches_benchmark_json(workload, trace):
    line, summary = _result(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    # the harness measures exactly what BENCHMARK.json declares, nothing it drops
    measured = summary["run"]["layers"] if trace else summary["run"]["metrics"]
    assert set(measured) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    line, _ = _result(workload, 0)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_deterministic_counts_repeat_exactly():
    counts = ("autodiff.tape_entries_per_step", "recsys.seq_states_calls_per_step",
              "recsys.candidates_per_step", "autodiff.trainable_params",
              "backbone.encode_calls", "cache.bytes_written",
              "costmodel.fft.tape_entries", "costmodel.dpeft_cached.retained_bytes")
    first, summary = _result("train-cached-asym", 1)
    proc = _run("train-cached-asym", 1)
    second = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    # one cache build encodes every catalog item once per modality, and cached
    # steps and cached evals encode nothing
    catalog = summary["run"]["catalog_items"]
    assert first["metrics"]["backbone.encode_calls"]["value"] == 2 * catalog


def test_cached_and_uncached_runs_print_identical_loss_lines():
    _, cached = _result("train-cached-asym", 0)
    _, uncached = _result("train-uncached-asym", 0)
    cached_lines = cached["run"]["loss_lines"]
    uncached_lines = uncached["run"]["loss_lines"]
    # the uncached workload trains fewer epochs; the shared prefix must match
    assert len(uncached_lines) >= 2
    assert cached_lines[:len(uncached_lines)] == uncached_lines


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
