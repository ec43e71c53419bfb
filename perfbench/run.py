#!/usr/bin/env python3
"""mapvins benchmark: one workload per run, or every workload in turn.

    python3 perfbench/run.py --workload localize-multimap --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single-workload run prints its metrics (name, value, unit) on stderr and,
as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.  ``all`` runs each
workload in its own process, untraced and then traced, and prints a table.
Run from the root of a mapvins source tree: the library is imported from
``src/`` beside this directory, never from an installed copy.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy loads: the workloads are one
# thread of work, and a second BLAS thread only adds scheduling noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("localize-multimap", "localize-odometry", "match-hostile")


def _import_library():
    """Put ``src/`` first on the path and check mapvins comes from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mapvins
    origin = Path(mapvins.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"mapvins imported from {origin}, not from {src}")


def run_one(args) -> int:
    try:
        _import_library()
    except ImportError as exc:
        print(f"cannot import mapvins from this tree: {exc}", file=sys.stderr)
        return 2
    import workloads

    outcome, facts = workloads.run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ROOT / ".bench_work")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:18s} {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:18s} attempted {outcome.attempted} failed {outcome.failed}",
          file=sys.stderr)
    if args.trace:  # traced minus untraced realtime_factor is the tracing overhead
        print(f"{args.workload:18s} traced realtime_factor {facts['realtime_factor']:.6g}",
              file=sys.stderr)
    for miss in outcome.misses:
        print(f"FAILED OPERATION: {miss}", file=sys.stderr)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} trace={trace}: FAILED (exit {proc.returncode})")
                status = 1
                continue
            doc = json.loads(lines[-1])
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"correct={doc['correct']} attempted={doc['attempted']} "
                  f"failed={doc['failed']}")
            for name, m in doc["metrics"].items():
                print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
