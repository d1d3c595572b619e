"""Benchmark entry point: run one workload once and print its result line.

    python3 perfbench/run.py --workload train-cached-asym --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in a child process
(`harness.py`) with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 set in the
child's environment only, and the checkout's `src` on its PYTHONPATH.

--trace 0  prints the end-to-end metrics of an untraced run.
--trace 1  traces every other call of each phase and prints the per-layer
           metrics, with the tracing overhead against the untraced calls.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are the
ones BENCHMARK.json declares. The whole result, with the run
environment, goes to perfbench/out/results/ and a traced run's spans to
perfbench/out/spans/. `--micro` shrinks every workload to a few seconds of
work, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170.0


def _child(args, stem: str) -> dict:
    """Run harness.py in a child process and return its result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result_path = OUT / "work" / f"{stem}.json"
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--traced", str(args.trace),
           "--result", str(result_path), "--work", str(OUT / "work" / stem)]
    if args.trace:
        cmd += ["--spans", str(OUT / "spans" / f"{stem}.jsonl")]
    if args.micro:
        cmd.append("--micro")
    # stdout of the child is the CLI's chatter, kept off this process's stdout
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--micro", action="store_true",
                        help="tiny model and data, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    if not (ROOT / "src" / "iisan" / "cli.py").is_file():
        print(f"run.py: no iisan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    for sub in ("results", "spans", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    try:
        child = _child(args, stem)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    values = child["layers"] if args.trace else child["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"run.py: the run did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    failed = child["failed"]
    line = {"correct": failed == 0, "attempted": child["attempted"], "failed": failed,
            "metrics": metrics}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "micro": args.micro, "result": line, "run": child}
    result_path = OUT / "results" / f"{stem}.json"
    result_path.write_text(json.dumps(summary, indent=1))
    print(f"run.py: wrote {result_path}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
