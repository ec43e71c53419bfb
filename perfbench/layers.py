"""Which mapvins call sites a traced run wraps, and the per-module metrics.

Every wrapped attribute is a call site some code path really uses:
``run_localization`` calls the filter, initializer and RANSAC through names
it imported into ``mapvins.harness``; ``initialize_frame`` calls its stages
through ``mapvins.initializer`` globals; RANSAC reaches its polish through
``mapvins.solvers``.  The benchmark's own direct calls (map files, problem
generation, standalone queries) go through the module attributes too, so one
set of wrappers sees both.

Time metrics are mean milliseconds per call (seconds for scenario builds);
count metrics are means per call.  A module a workload never calls reports 0.
"""

from __future__ import annotations

import numpy as np

import mapvins.harness as harness
import mapvins.initializer as initializer
import mapvins.mapmodel as mapmodel
import mapvins.metrics as metrics
import mapvins.sim as sim
import mapvins.solvers as solvers
from tracing import Probe, Tracer

# span names of the calls the benchmark makes itself (not wrappers)
SCENARIO_SPAN = "sim.scenario_build"
PROBLEM_SPAN = "sim.matching_problem"


def _state_report(*pairs):
    def counter(args, kwargs, state):
        report = state.last_report
        return {key: getattr(report, attr) for key, attr in pairs}
    return counter


def _ransac_recall(args, kwargs, result):
    corrs = args[0]
    true = {i for i, c in enumerate(corrs) if c.is_inlier}
    return {"true": len(true), "hit": len(true & set(result.inlier_indices))}


def _run_counts(args, kwargs, result):
    maps = list(result.summary["map_rmse"].values())
    return {"frames": len(result.records),
            "local_rmse": result.summary["local_rmse"],
            "map_rmse": float(np.mean(maps)) if maps else 0.0}


def probes() -> list[Probe]:
    """Every call site the traced run wraps."""
    out = [
        Probe(harness, "run_localization", "harness.run", _run_counts),
        # filter, as run_localization calls it
        Probe(harness, "propagate", "msckf.propagate",
              lambda a, k, r: {"imu_samples": len(a[1])}),
        Probe(harness, "clone_and_marginalize", "msckf.clone",
              lambda a, k, r: {"state_dim": r.dim}),
        Probe(harness, "update_local", "msckf.update_local",
              _state_report(("rows", "rows"), ("used", "used"), ("gated", "gated"))),
        Probe(harness, "update_map", "msckf.update_map",
              _state_report(("rows", "rows"), ("gated", "gated"))),
        Probe(harness, "register_map", "msckf.register_map"),
        Probe(harness, "current_pose_in_map", "msckf.pose_readout"),
        # matching, from the pipeline and from the standalone queries
        Probe(harness, "initialize", "initializer.initialize"),
        Probe(initializer, "initialize", "initializer.initialize"),
        Probe(harness, "ransac_pose", "solvers.ransac", _ransac_recall),
        Probe(solvers, "ransac_pose", "solvers.ransac", _ransac_recall),
        Probe(solvers, "align_correspondences", "solvers.align"),
        Probe(initializer, "align_correspondences", "solvers.align"),
        Probe(solvers, "refine_yaw_pose", "solvers.refine"),
        Probe(initializer, "refine_yaw_pose", "solvers.refine"),
        # initializer stages, as initialize_frame / solve_translation call them
        Probe(initializer, "build_tims", "initializer.build_tims",
              lambda a, k, r: {"tim_count": len(r)}),
        Probe(initializer, "vote_yaw", "initializer.vote_yaw"),
        Probe(initializer, "solve_translation", "initializer.solve_translation"),
        Probe(initializer, "compatibility_graph", "initializer.compat_graph",
              lambda a, k, r: {"edges": int(r.sum()) // 2}),
        Probe(initializer, "max_cliques", "initializer.max_cliques",
              lambda a, k, r: {"size": len(r[0])}),
        # metrics, as the harness summary calls them
        Probe(metrics, "local_trajectory_error", "metrics.call"),
        Probe(metrics, "map_trajectory_error", "metrics.call"),
        Probe(metrics.Trajectory, "from_samples", "metrics.call"),
        # map files
        Probe(mapmodel, "save_map", "mapmodel.save_map"),
        Probe(mapmodel, "load_map", "mapmodel.load_map"),
    ]
    return out


def _mean(values, scale=1.0) -> float:
    values = np.asarray(values, dtype=float)
    return float(values.mean() * scale) if len(values) else 0.0


def _tail(values, percentile, scale=1.0) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, percentile) * scale) if len(values) else 0.0


def per_layer(tracer: Tracer, ops: int, tail_percentile: float,
              map_bytes: list[int], extra: dict) -> dict:
    """Per-module metrics ``{name: (value, unit)}`` from one traced run."""
    ms = 1e3
    d = tracer.durations
    c = tracer.count_values
    ransac_true = c("solvers.ransac", "true").sum()
    ransac_hit = c("solvers.ransac", "hit").sum()
    runs = max(1, len(tracer.named("harness.run")))
    out = {
        "sim.scenario_build_s": (_mean(d(SCENARIO_SPAN)), "s"),
        "sim.matching_problem_ms": (_mean(d(PROBLEM_SPAN), ms), "ms"),
        "mapmodel.save_map_ms": (_mean(d("mapmodel.save_map"), ms), "ms"),
        "mapmodel.load_map_ms": (_mean(d("mapmodel.load_map"), ms), "ms"),
        "mapmodel.map_bytes": (_mean(map_bytes), "bytes"),
        "solvers.align_ms": (_mean(d("solvers.align"), ms), "ms"),
        "solvers.ransac_ms": (_mean(d("solvers.ransac"), ms), "ms"),
        "solvers.ransac_ms_p50": (_tail(d("solvers.ransac"), 50, ms), "ms"),
        "solvers.ransac_ms_tail": (_tail(d("solvers.ransac"), tail_percentile, ms), "ms"),
        "solvers.ransac_self_ms": (_mean(tracer.self_times("solvers.ransac"), ms), "ms"),
        "solvers.refine_ms": (_mean(d("solvers.refine"), ms), "ms"),
        "solvers.ransac_calls": (len(tracer.named("solvers.ransac")) / max(1, ops),
                                 "calls/op"),
        "solvers.inlier_recall": (float(ransac_hit / ransac_true) if ransac_true else 0.0,
                                  "ratio"),
        "solvers.ransac_fail_ratio": (_raised_share(tracer, "solvers.ransac"), "ratio"),
        "initializer.initialize_ms": (_mean(d("initializer.initialize"), ms), "ms"),
        "initializer.fail_ratio": (_raised_share(tracer, "initializer.initialize"), "ratio"),
        "initializer.initialize_ms_p50": (_tail(d("initializer.initialize"), 50, ms), "ms"),
        "initializer.initialize_ms_tail": (
            _tail(d("initializer.initialize"), tail_percentile, ms), "ms"),
        "initializer.build_tims_ms": (_mean(d("initializer.build_tims"), ms), "ms"),
        "initializer.tim_count": (_mean(c("initializer.build_tims", "tim_count")), "count"),
        "initializer.vote_yaw_ms": (_mean(d("initializer.vote_yaw"), ms), "ms"),
        "initializer.compat_graph_ms": (_mean(d("initializer.compat_graph"), ms), "ms"),
        "initializer.graph_edges": (_mean(c("initializer.compat_graph", "edges")), "count"),
        "initializer.max_cliques_ms": (_mean(d("initializer.max_cliques"), ms), "ms"),
        "initializer.clique_size": (_mean(c("initializer.max_cliques", "size")), "count"),
        "initializer.solve_translation_ms": (
            _mean(d("initializer.solve_translation"), ms), "ms"),
        "msckf.propagate_ms": (_mean(d("msckf.propagate"), ms), "ms"),
        "msckf.imu_samples": (_mean(c("msckf.propagate", "imu_samples")), "count"),
        "msckf.clone_ms": (_mean(d("msckf.clone"), ms), "ms"),
        "msckf.state_dim": (_mean(c("msckf.clone", "state_dim")), "count"),
        "msckf.update_local_ms": (_mean(d("msckf.update_local"), ms), "ms"),
        "msckf.local_rows": (_mean(c("msckf.update_local", "rows")), "count"),
        "msckf.local_tracks_used": (_mean(c("msckf.update_local", "used")), "count"),
        "msckf.local_tracks_gated": (_mean(c("msckf.update_local", "gated")), "count"),
        "msckf.update_map_ms": (_mean(d("msckf.update_map"), ms), "ms"),
        "msckf.map_rows": (_mean(c("msckf.update_map", "rows")), "count"),
        "msckf.map_landmarks_gated": (_mean(c("msckf.update_map", "gated")), "count"),
        "msckf.register_map_ms": (_mean(d("msckf.register_map"), ms), "ms"),
        "msckf.pose_readout_ms": (_mean(d("msckf.pose_readout"), ms), "ms"),
        "metrics.summary_ms": (_top_level_total(tracer, "metrics.call") * ms / runs
                               if tracer.named("harness.run") else 0.0, "ms"),
        "metrics.local_rmse_m": (_mean(c("harness.run", "local_rmse")), "m"),
        "metrics.map_rmse_m": (_mean(c("harness.run", "map_rmse")), "m"),
        "harness.run_ms": (_mean(d("harness.run"), ms), "ms"),
        "harness.self_ms": (_mean(tracer.self_times("harness.run"), ms), "ms"),
        "harness.frames": (_mean(c("harness.run", "frames")), "count"),
    }
    out.update(extra)
    return out


def _raised_share(tracer: Tracer, name: str) -> float:
    """Share of calls that raised (a rejected query or map event)."""
    spans = tracer.named(name)
    return sum(s.counts.get("raised", 0) for s in spans) / len(spans) if spans else 0.0


def _top_level_total(tracer: Tracer, name: str) -> float:
    """Total time of ``name`` spans not nested inside another ``name`` span."""
    by_id = {s.span_id: s for s in tracer.spans}
    total = 0.0
    for s in tracer.named(name):
        parent = by_id.get(s.parent)
        if parent is None or parent.name != name:
            total += s.end - s.start
    return total


# per-module metrics a workload's own checks produce; 0 where not applicable
EXTRA_LAYER_METRICS = {
    "initializer.t_err_mm": "mm",
    "solvers.t_err_mm": "mm",
}
