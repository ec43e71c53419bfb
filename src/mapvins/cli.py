"""Command-line interface.

Subcommands mirror the experiment stages: ``simulate`` builds and archives a
scenario, ``localize`` runs the full causal pipeline, ``evaluate`` computes
metrics from trajectory files, and ``compare`` runs paired-seed mode
comparisons.  The initializer's and RANSAC's analytic properties are checked
by the acceptance suite (``tests/test_acceptance.py``) and timed by
``perfbench/``.

Every command exits nonzero iff one of the properties it checks fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mapvins.metrics as metrics
from mapvins.harness import (
    ExperimentConfig,
    compare_modes,
    export_scenario,
    load_config,
    run_scenario,
    save_config,
)
from mapvins.sim import Scenario


def _load_or_default(path) -> ExperimentConfig:
    return load_config(path) if path else ExperimentConfig()


def cmd_simulate(args) -> int:
    cfg = _load_or_default(args.config)
    if args.seed is not None:
        cfg.scenario.seed = args.seed
    scenario = Scenario(cfg.scenario)
    out = Path(args.out)
    export_scenario(scenario, out)
    save_config(cfg, out / "config.yaml")
    print(f"scenario seed={cfg.scenario.seed}: {len(scenario.frame_times)} frames, "
          f"{len(scenario.maps)} maps, {len(scenario.map_events)} match events "
          f"-> {out}")
    return 0


def cmd_localize(args) -> int:
    cfg = _load_or_default(args.config)
    report = run_scenario(cfg, out_dir=args.out)
    bad = [r for r in report["runs"] if r["status"] != "ok"]
    for r in report["runs"]:
        if r["status"] == "ok":
            print(f"seed {r['seed']}: local_rmse={r['summary']['local_rmse']:.4f} "
                  f"map_rmse={r['summary']['map_rmse']}")
        else:
            print(f"seed {r['seed']}: FAILED {r['reason']}")
    return 1 if bad else 0


def cmd_evaluate(args) -> int:
    est = metrics.load_trajectory(args.est)
    gt = metrics.load_trajectory(args.gt)
    if args.mode == "local":
        value = metrics.local_trajectory_error(est, gt, args.tolerance)
    elif args.mode == "map":
        value = metrics.map_trajectory_error(est, gt, args.tolerance)
    else:
        value = metrics.mapping_keyframe_error(est, gt, args.tolerance)
    print(f"{args.mode}_rmse {value:.6f}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_or_default(args.config)
    doc = compare_modes(cfg, out_dir=args.out)
    failures = 0
    summary = doc["summary"]
    for name, stats in sorted(summary.items()):
        print(f"{name}: mean_local={stats['mean_local_rmse']} "
              f"mean_map={stats['mean_map_rmse']} (n={stats['n_ok']})")
    single = {k: v for k, v in summary.items() if k.startswith("map")}
    if "fused" in summary and single:
        worse = max(v["mean_map_rmse"] for v in single.values()
                    if v["mean_map_rmse"] is not None)
        fused = summary["fused"]["mean_map_rmse"]
        ok = fused is not None and fused <= worse
        failures += not ok
        print(f"ordering fused<=worse_single: {fused} <= {worse} "
              f"[{'ok' if ok else 'FAIL'}]")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mapvins", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="build and archive a synthetic scenario")
    p.add_argument("--config", help="experiment YAML (defaults used if omitted)")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="run the causal localization pipeline")
    p.add_argument("--config", help="experiment YAML")
    p.add_argument("--out", help="output directory for reports and pose logs")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("evaluate", help="metrics from trajectory files")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mode", choices=["local", "map", "ate"], default="local")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired-seed mode comparison")
    p.add_argument("--config", help="experiment YAML")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
