"""End-to-end experiment harness.

Wires simulator -> initializer -> matching -> filter -> metrics into
reproducible runs.  Every number in a report is recomputable from the
archived scenario config and seed; wall-clock timings are written to a
separate file so report files are byte-stable across repeated invocations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

import mapvins.metrics as metrics
from mapvins.geometry import RigidTransform, Rotation, YawPose, decompose_yaw, yaw_rotation
from mapvins.initializer import InitConfig, InitializationError, initialize
from mapvins.mapmodel import save_map
from mapvins.msckf import (
    FeatureTrack,
    FilterConfig,
    FilterState,
    MapMatchItem,
    MapObservation,
    TrackObservation,
    clone_and_marginalize,
    current_pose_in_map,
    propagate,
    register_map,
    update_local,
    update_map,
)
from mapvins.sim import ImuNoiseParams, Scenario, ScenarioConfig
from mapvins.solvers import MatchingFailureError, RansacConfig, ransac_pose


@dataclass
class ExperimentConfig:
    """One declarative experiment: scenario sweep + estimator knobs."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    init: InitConfig = field(default_factory=InitConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    seeds: list[int] = field(default_factory=lambda: [0])
    use_maps: bool = True
    min_init_matches: int = 10
    output_dir: str | None = None

    def validate(self):
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.scenario.duration <= 0:
            raise ValueError("scenario duration must be positive")
        return self


def _config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {
        "scenario": asdict(cfg.scenario),
        "filter": asdict(cfg.filter),
        "init": asdict(cfg.init),
        "ransac": asdict(cfg.ransac),
        "seeds": list(cfg.seeds),
        "use_maps": cfg.use_maps,
        "min_init_matches": cfg.min_init_matches,
    }
    doc["scenario"]["imu_noise"] = asdict(cfg.scenario.imu_noise)
    return doc


def load_config(path) -> ExperimentConfig:
    doc = yaml.safe_load(Path(path).read_text()) or {}
    return config_from_dict(doc)


def config_from_dict(doc: dict) -> ExperimentConfig:
    known = {"scenario", "filter", "init", "ransac", "seeds", "use_maps",
             "min_init_matches", "output_dir"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    scenario_doc = dict(doc.get("scenario", {}))
    noise = scenario_doc.pop("imu_noise", {})
    if isinstance(noise, dict):
        noise.setdefault("bias_g0", (0.0, 0.0, 0.0))
        noise.setdefault("bias_a0", (0.0, 0.0, 0.0))
        noise["bias_g0"] = tuple(noise["bias_g0"])
        noise["bias_a0"] = tuple(noise["bias_a0"])
        scenario_doc["imu_noise"] = ImuNoiseParams(**noise)
    if "trajectory_params" in scenario_doc and scenario_doc["trajectory_params"] is None:
        scenario_doc["trajectory_params"] = {}
    for tuple_field in ("local_feature_depth", "map_depth"):
        if tuple_field in scenario_doc:
            scenario_doc[tuple_field] = tuple(scenario_doc[tuple_field])
    if "map_quality" in scenario_doc and scenario_doc["map_quality"]:
        scenario_doc["map_quality"] = {int(k): v for k, v in
                                       scenario_doc["map_quality"].items()}
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(**scenario_doc),
        filter=FilterConfig(**doc.get("filter", {})),
        init=InitConfig(**doc.get("init", {})),
        ransac=RansacConfig(**doc.get("ransac", {})),
        seeds=list(doc.get("seeds", [0])),
        use_maps=bool(doc.get("use_maps", True)),
        min_init_matches=int(doc.get("min_init_matches", 10)),
        output_dir=doc.get("output_dir"),
    )
    return cfg.validate()


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(_config_to_dict(cfg), sort_keys=True))


# -- single run -----------------------------------------------------------------


@dataclass
class RunResult:
    seed: int
    records: list[dict]
    init_stats: list[dict]
    match_stats: list[dict]
    failures: list[str]
    summary: dict


def _leveled_camera_in_local(state: FilterState, camera) -> RigidTransform:
    """The gravity-leveled reference-camera frame at the current estimate."""
    world_from_cam = state.world_from_imu() @ camera.imu_from_camera
    cam_yaw, _ = decompose_yaw(world_from_cam.rotation)
    return RigidTransform(yaw_rotation(cam_yaw), world_from_cam.translation)


def _pose_from_init(state: FilterState, camera, cam_from_map: YawPose) -> RigidTransform:
    """Convert a solver/initializer pose into map_from_local."""
    local_from_level = _leveled_camera_in_local(state, camera)
    map_from_level = cam_from_map.inverse().to_rigid()
    return map_from_level @ local_from_level.inverse()


class _TrackManager:
    """Accumulates per-feature pixel tracks and decides when to flush them."""

    def __init__(self, window_size: int):
        self.window = window_size
        self.active: dict[tuple[int, int], list[TrackObservation]] = {}

    def add_frame(self, frame: int, observations):
        seen = set()
        ready: list[FeatureTrack] = []
        for obs in observations:
            key = (obs.feature_id, obs.camera_id)
            seen.add(key)
            track = self.active.setdefault(key, [])
            track.append(TrackObservation(frame, obs.camera_id, obs.pixel))
            if len(track) >= self.window:
                ready.append(FeatureTrack(obs.feature_id, tuple(track)))
                self.active[key] = []
        for key in list(self.active):
            if key not in seen and self.active[key]:
                if len(self.active[key]) >= 2:
                    ready.append(FeatureTrack(key[0], tuple(self.active[key])))
                del self.active[key]
        return ready


def run_localization(scenario: Scenario, cfg: ExperimentConfig,
                     use_maps: bool | None = None,
                     camera_subset: list[int] | None = None,
                     truncate_fraction: float = 1.0) -> RunResult:
    """Run the causal pipeline over one scenario.

    ``camera_subset`` restricts which cameras feed both local tracking and
    map matching (mode comparisons); ``truncate_fraction`` stops after that
    fraction of camera frames (causality replays).  Poses are logged once
    per processed frame and never revised.
    """
    use_maps = cfg.use_maps if use_maps is None else use_maps
    rig = scenario.rig if camera_subset is None else \
        [c for c in scenario.rig if c.camera_id in camera_subset]
    cam_ids = {c.camera_id for c in rig}
    reference_camera = min(cam_ids)

    state = FilterState(cfg.filter, rig, start_time=scenario.trajectory.times[0])
    state.set_pose(scenario.trajectory.pose(0), scenario.trajectory.velocities[0])
    state.set_imu_covariance(1e-4, 1e-3, 1e-4,
                             max(cfg.filter.sigma_wg * 10, 1e-8),
                             max(cfg.filter.sigma_wa * 10, 1e-7))

    tracker = _TrackManager(cfg.filter.window_size)
    records: list[dict] = []
    init_stats: list[dict] = []
    match_stats: list[dict] = []
    failures: list[str] = []

    events_by_frame: dict[int, list] = {}
    for ev in scenario.map_events:
        events_by_frame.setdefault(ev.frame, []).append(ev)
    assoc_by_map: dict[int, list] = {}
    for src_map, src_lm, dst_map, dst_lm in scenario.associations:
        assoc_by_map.setdefault(src_map, []).append((src_lm, dst_map, dst_lm))
        assoc_by_map.setdefault(dst_map, []).append((dst_lm, src_map, src_lm))

    n_frames = len(scenario.frame_indices)
    last_frame = max(1, int(math.floor(truncate_fraction * n_frames)))
    imu = scenario.imu
    imu_times = np.array([s.t for s in imu])

    prev_idx = 0
    for frame in range(last_frame):
        fi = int(scenario.frame_indices[frame])
        t_frame = float(scenario.trajectory.times[fi])
        if frame > 0:
            hi = int(np.searchsorted(imu_times, t_frame + 1e-9))
            batch = imu[prev_idx:hi]
            if len(batch) >= 2:
                propagate(state, batch)
            prev_idx = hi - 1
        clone_and_marginalize(state, frame)

        observations = [o for o in scenario.local_observations[frame]
                        if o.camera_id in cam_ids]
        ready = tracker.add_frame(frame, observations)
        if ready:
            update_local(state, ready)

        if use_maps:
            for ev in events_by_frame.get(frame, []):
                corrs = [c for c in ev.correspondences if c.camera_id in cam_ids]
                if len(corrs) < 2:
                    continue
                attitude = state.world_from_imu().rotation
                if ev.map_id not in state.bundles:
                    if len(corrs) < cfg.min_init_matches:
                        continue
                    try:
                        init = initialize(corrs, cfg.init, rig, attitude,
                                          reference_camera)
                    except InitializationError as exc:
                        failures.append(f"init map {ev.map_id} frame {frame}: {exc}")
                        continue
                    ref_cam = next(c for c in rig if c.camera_id == reference_camera)
                    map_from_local = _pose_from_init(state, ref_cam, init.refined_pose)
                    bundle = next(b for b in scenario.maps if b.map_id == ev.map_id)
                    register_map(state, bundle, map_from_local)
                    init_stats.append({
                        "frame": frame, "map_id": ev.map_id,
                        "consensus": init.consensus,
                        "n_matches": len(corrs),
                        "n_inliers": len(init.translation_inliers),
                    })
                    continue
                ransac_cfg = replace(
                    cfg.ransac,
                    seed=int(np.random.default_rng(
                        (cfg.scenario.seed, frame, ev.map_id)).integers(2 ** 31)))
                try:
                    result = ransac_pose(corrs, ransac_cfg, rig, attitude,
                                         reference_camera)
                except MatchingFailureError as exc:
                    match_stats.append({"frame": frame, "map_id": ev.map_id,
                                        "success": False, "reason": str(exc)})
                    continue
                match_stats.append({"frame": frame, "map_id": ev.map_id,
                                    "success": True,
                                    "inlier_ratio": result.inlier_ratio})
                bundle = state.bundles[ev.map_id]
                items = []
                anchors = {}
                for idx in result.inlier_indices:
                    c = corrs[idx]
                    if c.landmark_id not in bundle.landmarks:
                        continue
                    items.append(MapMatchItem(c.camera_id,
                                              np.asarray(c.pixel, dtype=float),
                                              c.landmark_id))
                    anchors[c.landmark_id] = \
                        bundle.landmarks[c.landmark_id].observing_keyframes
                matched_ids = {i.landmark_id for i in items}
                cross = [(lm, other_map, other_lm)
                         for lm, other_map, other_lm in assoc_by_map.get(ev.map_id, [])
                         if lm in matched_ids and other_map in state.bundles]
                obs = MapObservation(ev.map_id, items, anchors, cross)
                update_map(state, obs)

        pose_local = state.world_from_imu()
        rec = {
            "frame": frame,
            "t": t_frame,
            "p_local": pose_local.translation.tolist(),
            "q_local": pose_local.rotation.quaternion.tolist(),
            "maps": {},
            "cov_trace": float(np.trace(state.P[:state.active_dim,
                                                :state.active_dim])),
        }
        for map_id in state.bundles:
            pose_map = current_pose_in_map(state, map_id)
            rec["maps"][str(map_id)] = {
                "p": pose_map.translation.tolist(),
                "q": pose_map.rotation.quaternion.tolist(),
            }
        records.append(rec)

    summary = _summarize(scenario, records, last_frame)
    return RunResult(cfg.scenario.seed, records, init_stats, match_stats,
                     failures, summary)


def _summarize(scenario: Scenario, records: list[dict], last_frame: int) -> dict:
    """Causal error metrics of a run against simulator ground truth."""
    gt_samples = []
    est_samples = []
    for rec in records:
        fi = int(scenario.frame_indices[rec["frame"]])
        gt_samples.append((rec["t"], scenario.trajectory.pose(fi)))
        est_samples.append((rec["t"], RigidTransform(
            Rotation(np.array(rec["q_local"])), np.array(rec["p_local"]))))
    gt_local = metrics.Trajectory.from_samples(gt_samples, "gt")
    est_local = metrics.Trajectory.from_samples(est_samples, "est")
    out = {
        "n_frames": len(records),
        "local_rmse": metrics.local_trajectory_error(est_local, gt_local)
        if len(records) > 1 else 0.0,
    }
    map_errors = {}
    for bundle in scenario.maps:
        mid = str(bundle.map_id)
        est_m, gt_m = [], []
        for rec in records:
            if mid in rec["maps"]:
                fi = int(scenario.frame_indices[rec["frame"]])
                gt_pose = scenario.map_from_world[bundle.map_id].to_rigid() \
                    @ scenario.trajectory.pose(fi)
                gt_m.append((rec["t"], gt_pose))
                est_m.append((rec["t"], RigidTransform(
                    Rotation(np.array(rec["maps"][mid]["q"])),
                    np.array(rec["maps"][mid]["p"]))))
        if len(est_m) > 1:
            map_errors[mid] = metrics.map_trajectory_error(
                metrics.Trajectory.from_samples(est_m),
                metrics.Trajectory.from_samples(gt_m))
    out["map_rmse"] = map_errors
    return out


def map_frame_error_series(scenario: Scenario, result: RunResult,
                           map_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-record map-frame position error (t, error) for one map."""
    ts, errs = [], []
    mid = str(map_id)
    for rec in result.records:
        entry = rec["maps"].get(mid)
        if entry is None:
            continue
        fi = int(scenario.frame_indices[rec["frame"]])
        gt_pose = scenario.map_from_world[map_id].to_rigid() \
            @ scenario.trajectory.pose(fi)
        ts.append(rec["t"])
        errs.append(float(np.linalg.norm(np.array(entry["p"]) - gt_pose.translation)))
    return np.array(ts), np.array(errs)


def local_frame_error_series(scenario: Scenario, result: RunResult):
    ts, errs = [], []
    for rec in result.records:
        fi = int(scenario.frame_indices[rec["frame"]])
        gt = scenario.trajectory.positions[fi]
        ts.append(rec["t"])
        errs.append(float(np.linalg.norm(np.array(rec["p_local"]) - gt)))
    return np.array(ts), np.array(errs)


# -- experiment drivers ------------------------------------------------------------


def run_scenario(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed of an experiment; write reports when out_dir given.

    A failed run records its reason and the sweep continues.  report.json is
    deterministic (no wall-clock content); timings go to timings.txt.
    """
    cfg.validate()
    t_start = time.perf_counter()
    report = {"config": _config_to_dict(cfg), "runs": []}
    all_results = {}
    for seed in sorted(cfg.seeds):
        scen_cfg = replace(cfg.scenario, seed=seed)
        try:
            scenario = Scenario(scen_cfg)
            result = run_localization(scenario, replace(cfg, scenario=scen_cfg))
            entry = {
                "seed": seed,
                "status": "ok",
                "summary": result.summary,
                "n_init": len(result.init_stats),
                "match_successes": sum(1 for m in result.match_stats if m["success"]),
                "match_attempts": len(result.match_stats),
                "failures": result.failures,
            }
            all_results[seed] = (scenario, result)
        except Exception as exc:  # a failed run never aborts the sweep
            entry = {"seed": seed, "status": "failed", "reason": repr(exc)}
        report["runs"].append(entry)
    elapsed = time.perf_counter() - t_start

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.yaml")
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        (out / "timings.txt").write_text(f"wall_time_s {elapsed:.3f}\n")
        runs_dir = out / "runs"
        runs_dir.mkdir(exist_ok=True)
        for seed, (scenario, result) in all_results.items():
            write_pose_log(result, runs_dir / f"seed{seed}.jsonl")
    report["_results"] = all_results
    return report


def write_pose_log(result: RunResult, path) -> None:
    """Pose log external interface: one JSON record per timestep."""
    with open(path, "w") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def compare_modes(cfg: ExperimentConfig, modes: dict[str, dict] | None = None,
                  out_dir=None) -> dict:
    """Paired-seed comparison across estimator modes.

    Default modes: local-only, each single map, all maps fused.  Mode
    overrides may set ``use_maps``, ``camera_subset``, or ``map_subset``.
    """
    cfg.validate()
    if modes is None:
        modes = {"local_only": {"use_maps": False}, "fused": {}}
        for m in range(1, cfg.scenario.num_maps + 1):
            modes[f"map{m}"] = {"map_subset": [m]}
    table: dict[str, dict[int, dict]] = {name: {} for name in modes}
    for seed in sorted(cfg.seeds):
        scen_cfg = replace(cfg.scenario, seed=seed)
        scenario = Scenario(scen_cfg)
        for name, spec in modes.items():
            run_cfg = replace(cfg, scenario=scen_cfg)
            scenario_for_mode = scenario
            if "map_subset" in spec:
                scenario_for_mode = _RestrictedScenario(scenario, spec["map_subset"])
            try:
                result = run_localization(
                    scenario_for_mode, run_cfg,
                    use_maps=spec.get("use_maps", True),
                    camera_subset=spec.get("camera_subset"))
                table[name][seed] = {"status": "ok", **result.summary}
            except Exception as exc:
                table[name][seed] = {"status": "failed", "reason": repr(exc)}

    summary = {}
    for name, rows in table.items():
        locals_ = [r["local_rmse"] for r in rows.values() if r["status"] == "ok"]
        maps_ = [min(r["map_rmse"].values()) for r in rows.values()
                 if r["status"] == "ok" and r.get("map_rmse")]
        summary[name] = {
            "mean_local_rmse": float(np.mean(locals_)) if locals_ else None,
            "std_local_rmse": float(np.std(locals_)) if locals_ else None,
            "mean_map_rmse": float(np.mean(maps_)) if maps_ else None,
            "std_map_rmse": float(np.std(maps_)) if maps_ else None,
            "n_ok": len(locals_),
        }
    doc = {"per_seed": table, "summary": summary}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.yaml")
        (out / "compare.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    return doc


class _RestrictedScenario:
    """A scenario view exposing only a subset of its maps."""

    def __init__(self, scenario: Scenario, map_ids):
        self._scenario = scenario
        keep = set(map_ids)
        self.maps = [b for b in scenario.maps if b.map_id in keep]
        self.map_events = [e for e in scenario.map_events if e.map_id in keep]
        self.associations = [a for a in scenario.associations
                             if a[0] in keep and a[2] in keep]
        self.map_from_world = {k: v for k, v in scenario.map_from_world.items()
                               if k in keep}

    def __getattr__(self, name):
        return getattr(self._scenario, name)


def export_scenario(scenario: Scenario, out_dir) -> None:
    """Write a scenario to disk: maps in the map format plus a JSON body."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for bundle in scenario.maps:
        save_map(bundle, out / f"map{bundle.map_id}.map")
    (out / "scenario.json").write_text(scenario.to_json())
