#!/usr/bin/env python3
"""Quick smoke check of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, through all of its
output checks, and asserts that the traced run's wrappers and the frame
clock put every wrapped module attribute back, so an untraced run that
follows really is untraced.
"""

import inspect
import json
import sys

import run as entry

entry._import_library()

import layers  # noqa: E402
import mapvins.harness as harness  # noqa: E402
import workloads  # noqa: E402


def attributes():
    sites = [(p.module, p.attr) for p in layers.probes()]
    sites.append((harness, "clone_and_marginalize"))
    return {(id(m), a): inspect.getattr_static(m, a) for m, a in sites}


def main() -> int:
    spec = json.loads((entry.ROOT / "BENCHMARK.json").read_text())
    names = {False: {m["name"] for m in spec["end_to_end"]},
             True: {m["name"] for m in spec["per_layer"]}}
    before = attributes()
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            outcome, facts = workloads.run(name, seed=7, seconds=0.5, trace=trace,
                                           workroot=entry.ROOT / ".bench_work", tiny=True)
            label = f"{name} trace={int(trace)}"
            if not outcome.correct:
                failures.append(f"{label}: {outcome.problems}")
            if outcome.attempted < 1 or outcome.failed != 0:
                failures.append(f"{label}: attempted {outcome.attempted} "
                                f"failed {outcome.failed}")
            if not facts["restored"]:
                failures.append(f"{label}: wrappers left in place")
            if set(outcome.metrics) != names[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(outcome.metrics) ^ names[trace])}")
            if attributes() != before:
                failures.append(f"{label}: module attributes differ after the run")
            print(f"{label}: correct={outcome.correct} attempted={outcome.attempted} "
                  f"failed={outcome.failed} metrics={len(outcome.metrics)}")
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    if not failures:
        print("smoke check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
