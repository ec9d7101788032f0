"""Benchmark entry point for ``kgedistill``.

One workload, in this process::

    python3 kgebench/run.py --workload fb15k237_eval --seed 1 --seconds 25 --trace 0

Every workload, each in a fresh child process, with a table of results::

    python3 kgebench/run.py --all --seed 1 --seconds 25

Run from the root of a source checkout; the package is imported from
``src/``. BLAS threads are pinned to the number of usable cores before numpy
is imported. The last line of a single-workload run is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it are the run's header record and a
readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="kgedistill benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(workloads))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args, bench) -> int:
    run = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = run["ops"]
    print(json.dumps({"header": run["header"], "notes": ops.notes}, sort_keys=True))
    for name, (value, unit) in run["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# ops_failed/ops_total = {ops.failed}/{ops.attempted}")
    result = {
        "correct": ops.correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, workloads) -> int:
    status = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        report, result = json.loads(lines[0]), json.loads(lines[-1])
        print(f"== {name} (seed {args.seed}) correct={result['correct']} "
              f"ops_failed/ops_total={result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
        for note in report["notes"]:
            print(f"   ! {note}")
    return status


def main(argv=None) -> int:
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    if not (ROOT / "src" / "kgedistill" / "__init__.py").is_file():
        print(f"kgebench: no kgedistill package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports numpy, so only after the thread pin

    args = parse_args(argv, bench.WORKLOADS)
    return run_all(args, bench.WORKLOADS) if args.all else run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
