"""The three benchmark workloads: set-up, timed loop, and output checks.

A run builds its inputs from ``--seed``, warms the code paths once, then
repeats whole rounds of the same operations until ``--seconds`` of measured
time have passed.  Set-up (scenario or problem generation, map files) is
timed apart from the measured loop.  With ``trace=False`` the only
instrument is one timestamp per camera frame; with ``trace=True`` every
probe in :mod:`layers` records a span.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import accuracy
import layers
import mapvins.harness as harness
import mapvins.initializer as initializer
import mapvins.mapmodel as mapmodel
import mapvins.sim as sim
import mapvins.solvers as solvers
from mapvins.geometry import wrap_angle
from tracing import FrameClock, Patched, Tracer, span_wrapper

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

# correctness bounds, fixed in advance
MAP_ERROR_BOUND_M = 0.5        # map-frame error after a map registers
DRIFT_FRACTION = 0.05          # local-only error per metre travelled
POSE_YAW_TOL_DEG = 0.5         # standalone query pose vs generator truth
POSE_T_TOL_M = 0.05
RANSAC_FAILURE_TARGET = 1e-9   # iterations chosen so a miss is negligible
WARMUP_DURATION_S = 2.0        # sensor time of the untimed warm-up scenario

END_TO_END_UNITS = {
    "setup_s": "s",
    "realtime_factor": "x",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "pos_err_mm": "mm",
    "peak_rss_mb": "MB",
}


class NullTracer:
    """Untraced runs call straight through."""

    def call(self, name, fn, *args, counter=None, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    problems: list[str]    # failed checks: the run is not correct
    misses: list[str]      # failed operations, counted in ``failed``


def scenario_seed(seed: int, slot: int) -> int:
    return 1000 * int(seed) + int(slot)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- localization workloads ------------------------------------------------------


class LocalizeWorkload:
    """The full causal pipeline, one freshly built scenario per round.

    ``tail_percentile`` is the highest standard percentile with at least
    ten frames beyond it in every run.
    """

    def __init__(self, config: str, tail_percentile: float, workdir: Path,
                 tiny: bool = False):
        self.tail_percentile = 90.0 if tiny else tail_percentile
        self.cfg = harness.load_config(CONFIGS / config)
        if tiny:
            self.cfg = replace(self.cfg, scenario=replace(
                self.cfg.scenario, duration=min(self.cfg.scenario.duration, 6.0)))
        self.workdir = workdir
        self.problems: list[str] = []
        self.misses: list[str] = []
        self.map_bytes: list[int] = []
        self.setup_times: list[float] = []

    # set-up ----------------------------------------------------------------

    def _next_round(self, seed: int, index: int, tracer):
        """Build round ``index``'s scenario (timed as set-up, not measured)."""
        scen_cfg = replace(self.cfg.scenario,
                           seed=scenario_seed(seed, self.cfg.seeds[0] + index))
        t0 = time.perf_counter()
        scenario = tracer.call(layers.SCENARIO_SPAN, sim.Scenario, scen_cfg)
        if self.cfg.use_maps:
            scenario.maps = self._round_trip(scenario.maps, index)
        self.setup_times.append(time.perf_counter() - t0)
        return scenario, replace(self.cfg, scenario=scen_cfg)

    def _round_trip(self, bundles, index):
        """save -> load -> save every map; the product path runs on the loaded maps."""
        loaded = []
        for bundle in bundles:
            first = self.workdir / f"r{index}_m{bundle.map_id}_a.map"
            second = self.workdir / f"r{index}_m{bundle.map_id}_b.map"
            mapmodel.save_map(bundle, first)
            again = mapmodel.load_map(first)
            mapmodel.save_map(again, second)
            data = first.read_bytes()
            if data != second.read_bytes():
                self.problems.append(f"map {bundle.map_id}: save->load->save "
                                     "is not byte-identical")
            self.map_bytes.append(len(data))
            loaded.append(again)
        return loaded

    def warmup(self, seed: int) -> None:
        scen_cfg = replace(self.cfg.scenario, seed=scenario_seed(seed, 999),
                           duration=WARMUP_DURATION_S)
        harness.run_localization(sim.Scenario(scen_cfg), replace(self.cfg, scenario=scen_cfg))

    # timed loop -----------------------------------------------------------------

    def measure(self, seed: int, seconds: float, tracer, clock: FrameClock | None):
        """Whole scenarios until ``seconds`` are measured and the tail has 10 frames.

        Each run is checked as soon as it ends, outside the measured time,
        and only what the metrics need is kept, so memory does not grow
        with the number of rounds.
        """
        self.gaps, self.errors = [], []
        self.sensor_s = 0.0
        self.frames = self.cycles = 0
        elapsed = 0.0
        while elapsed < seconds or self.cycles * (1.0 - self.tail_percentile / 100.0) < 10.0:
            index = len(self.errors)
            scenario, run_cfg = self._next_round(seed, index, tracer)
            t0 = time.perf_counter()
            result = harness.run_localization(scenario, run_cfg)
            wall = time.perf_counter() - t0
            if clock is not None:
                self.gaps.append(clock.take())
            elapsed += wall
            self.sensor_s += scenario.config.duration
            self.frames += len(result.records)
            self.cycles += len(result.records) - 1
            self.errors.append(self._check_run(scenario, result))
            if index == 0:
                self.first = (scenario, run_cfg, _pose_log(result))
        return elapsed

    # checks and metrics -------------------------------------------------------------

    def check(self) -> tuple[int, int]:
        """Returns (frames attempted, frames failed); each run was checked already.

        The operation is a camera frame, and it succeeds when it yields its
        pose record; the checks fail the whole run otherwise, so no frame is
        ever counted as failed.  A map event the pipeline rejects (RANSAC
        below its inlier floor) is the filter skipping one update, not a
        lost frame: the traced run reports it as ``solvers.ransac_fail_ratio``.
        """
        scenario, run_cfg, log = self.first
        if _pose_log(harness.run_localization(scenario, run_cfg)) != log:
            self.problems.append("a repeated run of one scenario changed the pose log")
        return self.frames, 0

    def _error_summary(self) -> float:
        """Median over the run's scenarios of each scenario's mean error (m).

        Accuracy varies mostly from scenario to scenario (a map registration
        offset, a bias draw), so the median of per-scenario means had the
        smallest seed-to-seed spread of the summaries tried: pooled mean,
        pooled median, median of per-scenario medians.
        """
        return float(np.median([np.mean(e) for e in self.errors]))

    def _check_run(self, scenario, result) -> np.ndarray:
        """Check one run; returns the position errors ``pos_err_mm`` uses (m).

        With maps: every map-frame pose against ``map_from_world`` applied to
        truth, no alignment.  Local only: the relative position error over
        one-second windows, which measures drift rate; the first-frame-aligned
        error of a local-only run is dominated by each scenario's bias draw.
        """
        n_frames = len(scenario.frame_indices)
        frames = [r["frame"] for r in result.records]
        if frames != list(range(n_frames)):
            self.problems.append("records are not one per frame in frame order")
        covs = np.array([r["cov_trace"] for r in result.records])
        if not (np.all(np.isfinite(covs)) and np.all(covs > 0)):
            self.problems.append("cov_trace not finite and positive")
        local = accuracy.local_errors(scenario, result.records)
        if not accuracy.agrees(accuracy.rmse(local), result.summary["local_rmse"]):
            self.problems.append(
                f"local RMSE {accuracy.rmse(local)!r} disagrees with harness "
                f"{result.summary['local_rmse']!r}")
        if not self.cfg.use_maps:
            limit = DRIFT_FRACTION * accuracy.path_length(scenario)
            if local.max() > limit:
                self.problems.append(f"drift {local.max():.3f} m exceeds {limit:.3f} m")
            window = int(round(self.cfg.scenario.cam_rate))
            return accuracy.relative_errors(scenario, result.records, window)
        registered = {s["map_id"] for s in result.init_stats}
        expected = {b.map_id for b in scenario.maps}
        if registered != expected:
            self.problems.append(f"maps {sorted(expected - registered)} never registered")
        errors = []
        for map_id in sorted(registered):
            errs = accuracy.map_errors(scenario, result.records, map_id)
            theirs = result.summary["map_rmse"].get(str(map_id))
            if theirs is None or not accuracy.agrees(accuracy.rmse(errs), theirs):
                self.problems.append(f"map {map_id} RMSE disagrees with harness")
            if errs.max() > MAP_ERROR_BOUND_M:
                self.problems.append(
                    f"map {map_id} error {errs.max():.3f} m exceeds "
                    f"{MAP_ERROR_BOUND_M} m after registration")
            errors.append(errs)
        return np.concatenate(errors) if errors else np.zeros(0)

    def realtime_factor(self, elapsed) -> float:
        return self.sensor_s / elapsed

    def end_to_end(self, elapsed) -> dict:
        gaps = np.concatenate(self.gaps)
        return {
            "setup_s": float(np.median(self.setup_times)),
            "realtime_factor": self.realtime_factor(elapsed),
            "frame_ms_p50": float(np.percentile(gaps, 50) * 1e3),
            "frame_ms_tail": float(np.percentile(gaps, self.tail_percentile) * 1e3),
            "pos_err_mm": self._error_summary() * 1e3,
        }

    def extra_layers(self) -> dict:
        return {name: (0.0, unit) for name, unit in layers.EXTRA_LAYER_METRICS.items()}

    def operations(self) -> int:
        return self.frames


def _pose_log(result) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in result.records)


# -- standalone matching -------------------------------------------------------------


@dataclass
class Query:
    """One single-camera 2D-3D query and the generator's truth."""

    kind: str
    corrs: list
    camera: object
    attitude: object         # world_from_camera rotation: pitch and roll known
    truth: object            # cam_from_map YawPose in the leveled camera frame
    inlier_rate: float
    ransac_seed: int


# The paper's Table-3 cases (N, inlier rate), built exactly as the
# acceptance suite and ``mapvins init-bench`` build them: fixed instances.
TABLE3_CASES = [(26, 0.82), (68, 0.78), (15, 0.47), (49, 0.65), (82, 0.72), (138, 0.38)]
# hostile single-camera queries: (N, outlier rate)
MONO_CASES = [(80, 0.60), (120, 0.70), (200, 0.80), (400, 0.85)]
TINY_MONO = [(40, 0.6)]


def ransac_iterations(inlier_rate: float) -> int:
    """Fewest 2-point iterations whose success probability meets the target."""
    target = 1.0 - RANSAC_FAILURE_TARGET
    lo, hi = 1, 1
    while solvers.ransac_success_probability(inlier_rate, 2, hi) < target:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if solvers.ransac_success_probability(inlier_rate, 2, mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return hi


def reprojection_errors(query: Query, pose, indices) -> np.ndarray:
    """Pinhole reprojection error (px) of the given matches under ``pose``.

    ``pose`` maps map points into the leveled camera frame; the camera's
    own pitch and roll (``attitude`` without its yaw) take them on into the
    camera frame.
    """
    r_wc = query.attitude.as_matrix()
    tilt = accuracy.yaw_matrix(-math.atan2(r_wc[1, 0], r_wc[0, 0])) @ r_wc
    r_yaw = accuracy.yaw_matrix(pose.yaw)
    cam = query.camera
    errs = []
    for i in indices:
        c = query.corrs[i]
        p = tilt.T @ (r_yaw @ np.asarray(c.point) + np.asarray(pose.translation))
        if p[2] <= 0:
            errs.append(math.inf)
            continue
        pix = np.array([cam.fx * p[0] / p[2] + cam.cx, cam.fy * p[1] / p[2] + cam.cy])
        errs.append(float(np.linalg.norm(pix - np.asarray(c.pixel))))
    return np.array(errs)


def pose_errors(pose, truth) -> tuple[float, float]:
    """(yaw error in degrees, translation error in metres)."""
    return (math.degrees(abs(wrap_angle(pose.yaw - truth.yaw))),
            float(np.linalg.norm(np.asarray(pose.translation) - truth.translation)))


class MatchWorkload:
    """Cold-start initialization plus tracking RANSAC on standalone queries."""

    def __init__(self, tiny: bool = False):
        self.cfg = harness.load_config(CONFIGS / "match-hostile.yaml")
        self.mono_cases = TINY_MONO if tiny else MONO_CASES
        self.table3 = TABLE3_CASES[2:3] if tiny else TABLE3_CASES
        self.tail_percentile = 50.0 if tiny else 75.0
        self.problems: list[str] = []
        self.misses: list[str] = []
        self.map_bytes: list[int] = []     # no map files here
        self.setup_times: list[float] = []

    def _round(self, seed: int, index: int, tracer) -> list[Query]:
        """One round's queries; every round is the same mix of cases."""
        sigma = self.cfg.init.sigma_px
        rng = np.random.default_rng([int(seed), index])
        queries = []
        for n, w in self.table3:
            corrs, cam, wfc, truth = tracer.call(
                layers.PROBLEM_SPAN, sim.make_matching_problem, n, w, sigma,
                seed=n, tilt=0.1)
            queries.append(Query("table3", corrs, cam, wfc.rotation, truth, w, n))
        for n, outlier in self.mono_cases:
            corrs, cam, wfc, truth = tracer.call(
                layers.PROBLEM_SPAN, sim.make_matching_problem, n, 1.0 - outlier, sigma,
                seed=int(rng.integers(2 ** 31)), tilt=0.1)
            queries.append(Query("mono", corrs, cam, wfc.rotation, truth,
                                 1.0 - outlier, int(rng.integers(2 ** 31))))
        return queries

    def warmup(self, seed: int) -> None:
        corrs, cam, wfc, _ = sim.make_matching_problem(30, 0.5, 1.0, seed=12345, tilt=0.1)
        initializer.initialize(corrs, self.cfg.init, [cam], wfc.rotation)
        solvers.ransac_pose(corrs, replace(self.cfg.ransac, iterations=50), [cam],
                            wfc.rotation)

    def measure(self, seed: int, seconds: float, tracer, clock) -> float:
        """Whole rounds until ``seconds`` are measured and the tail has 10 queries.

        Each round's queries are generated just before it; generation counts
        as set-up, not as measured time.
        """
        self.results = []    # (query, init result | exception, ransac result | exc, s, s)
        elapsed = 0.0
        while elapsed < seconds or len(self.results) * (
                1.0 - self.tail_percentile / 100.0) < 10.0:
            t0 = time.perf_counter()
            queries = self._round(seed, len(self.setup_times), tracer)
            self.setup_times.append(time.perf_counter() - t0)
            for q in queries:
                t0 = time.perf_counter()
                try:
                    init = initializer.initialize(q.corrs, self.cfg.init, [q.camera],
                                                  q.attitude, 0)
                except initializer.InitializationError as exc:
                    init = exc
                t1 = time.perf_counter()
                cfg = replace(self.cfg.ransac, seed=q.ransac_seed,
                              iterations=ransac_iterations(q.inlier_rate))
                try:
                    res = solvers.ransac_pose(q.corrs, cfg, [q.camera], q.attitude, 0)
                except solvers.MatchingFailureError as exc:
                    res = exc
                t2 = time.perf_counter()
                self.results.append((q, init, res, t1 - t0, t2 - t1))
                elapsed += t2 - t0
        return elapsed

    def check(self) -> tuple[int, int]:
        failed = 0
        threshold = self.cfg.ransac.threshold_px
        self.init_err, self.ransac_err = [], []
        for q, init, res, _, _ in self.results:
            if isinstance(init, Exception) or isinstance(res, Exception):
                failed += 1
                self.misses.append(f"{q.kind} N={len(q.corrs)}: {init!r} / {res!r}")
                continue
            iy, it = pose_errors(init.refined_pose, q.truth)
            ry, rt = pose_errors(res.cam_from_map, q.truth)
            self.init_err.append(it)
            self.ransac_err.append(rt)
            if max(iy, ry) > POSE_YAW_TOL_DEG or max(it, rt) > POSE_T_TOL_M:
                failed += 1
                self.misses.append(
                    f"{q.kind} N={len(q.corrs)}: initializer {iy:.3f} deg {it * 1e3:.1f} mm, "
                    f"RANSAC {ry:.3f} deg {rt * 1e3:.1f} mm")
            true_inliers = {i for i, c in enumerate(q.corrs) if c.is_inlier}
            if not true_inliers <= set(init.translation_inliers):
                self.problems.append(f"{q.kind} N={len(q.corrs)}: initializer "
                                     "dropped a true inlier")
            errs = reprojection_errors(q, res.cam_from_map, res.inlier_indices)
            if np.any(errs > threshold + 1e-9):
                self.problems.append(f"{q.kind} N={len(q.corrs)}: RANSAC inlier "
                                     f"reprojects at {errs.max():.3f} px")
        # determinism: one query of each kind, initialized again
        seen = set()
        for q, init, _, _, _ in self.results:
            if q.kind in seen or isinstance(init, Exception):
                continue
            seen.add(q.kind)
            again = initializer.initialize(q.corrs, self.cfg.init, [q.camera], q.attitude, 0)
            same = (again.refined_pose.yaw == init.refined_pose.yaw and np.array_equal(
                again.refined_pose.translation, init.refined_pose.translation))
            if not same:
                self.problems.append(f"{q.kind}: repeated initialize changed the pose")
        return len(self.results), failed

    def realtime_factor(self, elapsed) -> float:
        """Each query stands for one camera frame at the scenario's frame rate."""
        return len(self.results) / self.cfg.scenario.cam_rate / elapsed

    def end_to_end(self, elapsed) -> dict:
        per_query = np.array([a + b for _, _, _, a, b in self.results])
        return {
            "setup_s": float(np.median(self.setup_times)),
            "realtime_factor": self.realtime_factor(elapsed),
            "frame_ms_p50": float(np.percentile(per_query, 50) * 1e3),
            "frame_ms_tail": float(np.percentile(per_query, self.tail_percentile) * 1e3),
            # mean, not median: errors are capped by the 5 cm miss rule, and a
            # median would sit on one fixed Table-3 instance in every run
            "pos_err_mm": float(np.mean(self.init_err + self.ransac_err) * 1e3),
        }

    def extra_layers(self) -> dict:
        return {
            "initializer.t_err_mm": (float(np.median(self.init_err) * 1e3)
                                     if self.init_err else 0.0, "mm"),
            "solvers.t_err_mm": (float(np.median(self.ransac_err) * 1e3)
                                 if self.ransac_err else 0.0, "mm"),
        }

    def operations(self) -> int:
        return len(self.results)


# -- one run -----------------------------------------------------------------------------

# workload -> (config, tail percentile)
LOCALIZE = {
    "localize-multimap": ("localize-multimap.yaml", 98.0),
    "localize-odometry": ("localize-odometry.yaml", 99.0),
}
WORKLOADS = (*LOCALIZE, "match-hostile")


def make_workload(name: str, workdir: Path, tiny: bool = False):
    if name in LOCALIZE:
        return LocalizeWorkload(*LOCALIZE[name], workdir, tiny)
    if name == "match-hostile":
        return MatchWorkload(tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def run(name: str, seed: int, seconds: float, trace: bool, workroot: Path,
        tiny: bool = False) -> tuple[Outcome, dict]:
    """One benchmark run; returns the outcome and facts for the smoke check."""
    workroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
    try:
        workload = make_workload(name, workdir, tiny)
        workload.warmup(seed)
        if trace:
            tracer = Tracer()
            patch = Patched(layers.probes(), span_wrapper(tracer))
            with patch:
                elapsed = workload.measure(seed, seconds, tracer, None)
            restored = patch.restored()
        else:
            clock = FrameClock(harness)
            with clock:
                elapsed = workload.measure(seed, seconds, NullTracer(), clock)
            restored = clock.restored()
        attempted, failed = workload.check()
        if not restored:
            workload.problems.append("wrappers did not restore the module attributes")
        if trace:
            metrics = layers.per_layer(tracer, workload.operations(),
                                       workload.tail_percentile, workload.map_bytes,
                                       workload.extra_layers())
        else:
            e2e = workload.end_to_end(elapsed)
            e2e["peak_rss_mb"] = peak_rss_mb()
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        outcome = Outcome(not workload.problems, attempted, failed, metrics,
                          workload.problems, workload.misses)
        facts = {"restored": restored,
                 "realtime_factor": workload.realtime_factor(elapsed)}
        return outcome, facts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
