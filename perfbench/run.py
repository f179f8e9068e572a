#!/usr/bin/env python3
"""Retrieval engine benchmark: end-to-end metrics, or per-layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload deep-paths --seed 1 --seconds 15 --trace 0

prints a report line and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` every workload runs, each in its own process, followed by a
table of all metrics. BLAS threads are capped at the number of processors
before numpy loads. See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> None:
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def _run_all(args: argparse.Namespace, workloads: list[str]) -> int:
    """Run every workload in a child process and print one table."""
    results = {}
    for name in workloads:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'metric':<34} {'value':>14}  unit")
    for name, result in results.items():
        print(f"{name:<14} {'correct':<34} {str(result['correct']):>14}")
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<34} {m['value']:>14.4f}  {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="input seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed loop (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run that reports the per-layer metrics")
    args = parser.parse_args()

    for needed in (ROOT / "src" / "helprag" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2

    _cap_blas_threads()
    if args.workload is None:
        return _run_all(args, workloads)

    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import bench  # after the BLAS cap: numpy reads it when it loads
    from workloads import WORKLOADS as SPECS

    result = bench.run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(result["metrics"]):
        print("error: measured metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
