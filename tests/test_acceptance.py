"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np

import mapvins.metrics as metrics
from mapvins.geometry import RigidTransform, Rotation, wrap_angle, yaw_rotation
from mapvins.harness import ExperimentConfig, _RestrictedScenario, run_localization, \
    local_frame_error_series, map_frame_error_series
from mapvins.initializer import InitConfig, initialize
from mapvins.msckf import (
    FilterConfig,
    FilterState,
    propagate,
)
from mapvins.sim import (
    ImuNoiseParams,
    Scenario,
    ScenarioConfig,
    generate_trajectory,
    make_matching_problem,
    make_rig,
)
from mapvins.solvers import (
    MatchingFailureError,
    RansacConfig,
    align_correspondences,
    ransac_matching_frame,
    ransac_success_probability,
)

from test_initializer import aligned_problem, brute_force_max_cliques
from test_msckf import snapshot_nuisance


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def pose_ok(result, truth, tol_m, tol_rad):
    yerr = abs(wrap_angle(result.cam_from_map.yaw - truth.yaw))
    terr = np.linalg.norm(result.cam_from_map.translation - truth.translation)
    return yerr < tol_rad and terr < tol_m


def test_criterion_1_success_probability_fidelity():
    """Empirical RANSAC success matches 1-(1-w^n)^k within +/-0.03; < 30 s."""
    t_start = time.perf_counter()
    worst = 0.0
    details = []
    for w in (0.2, 0.5):
        corrs, camera, wfc, truth = make_matching_problem(400, w, 0.0, seed=77)
        frame = align_correspondences(corrs, [camera], wfc.rotation)
        for k in (10, 50):
            wins = 0
            for s in range(1000):
                try:
                    res = ransac_matching_frame(
                        frame, RansacConfig(iterations=k, threshold_px=1e-5,
                                            min_inliers=2, seed=s))
                    wins += pose_ok(res, truth, 1e-5, 1e-6)
                except MatchingFailureError:
                    pass
            diff = abs(wins / 1000 - ransac_success_probability(w, 2, k))
            worst = max(worst, diff)
            details.append(f"w={w},k={k}: diff={diff:.4f}")
    elapsed = time.perf_counter() - t_start
    report("criterion 1 (success-probability fidelity)",
           worst <= 0.03 and elapsed < 30.0,
           f"worst diff {worst:.4f}, {elapsed:.1f}s; " + "; ".join(details))


def test_criterion_2_two_point_sampling_advantage():
    """2-point sampler beats a 3-sample baseline by >= 0.15 at w=0.2, k=100."""
    corrs, camera, wfc, truth = make_matching_problem(400, 0.2, 0.0, seed=78)
    frame = align_correspondences(corrs, [camera], wfc.rotation)
    rates = {}
    for n_sample in (2, 3):
        wins = 0
        trials = 300
        for s in range(trials):
            try:
                res = ransac_matching_frame(
                    frame, RansacConfig(iterations=100, threshold_px=1e-5,
                                        min_inliers=2, sample_size=n_sample, seed=s))
                wins += pose_ok(res, truth, 1e-5, 1e-6)
            except MatchingFailureError:
                pass
        rates[n_sample] = wins / trials
    gap = rates[2] - rates[3]
    report("criterion 2 (2-point vs 3-point sampling)", gap >= 0.15,
           f"2pt={rates[2]:.3f} 3pt={rates[3]:.3f} gap={gap:.3f}")


TABLE3_CASES = [(26, 0.82), (68, 0.78), (15, 0.47), (49, 0.65), (82, 0.72), (138, 0.38)]


def test_criterion_3_deterministic_initialization():
    """100 repeats bit-identical; error <= 0.05 m / 0.5 deg; <= 2 s per case."""
    all_ok = True
    details = []
    for n, w in TABLE3_CASES:
        corrs, camera, wfc, truth = make_matching_problem(n, w, 1.0, seed=n, tilt=0.1)
        poses = set()
        worst_time = 0.0
        for _ in range(100):
            t0 = time.perf_counter()
            res = initialize(corrs, InitConfig(sigma_px=1.0), [camera], wfc.rotation)
            worst_time = max(worst_time, time.perf_counter() - t0)
            poses.add((res.refined_pose.yaw, tuple(res.refined_pose.translation)))
        yaw, trans = next(iter(poses))
        yerr = abs(wrap_angle(yaw - truth.yaw))
        terr = float(np.linalg.norm(np.array(trans) - truth.translation))
        case_ok = (len(poses) == 1 and yerr <= math.radians(0.5) and terr <= 0.05
                   and worst_time <= 2.0)
        all_ok &= case_ok
        details.append(f"N={n}: std={'0' if len(poses) == 1 else '>0'} "
                       f"terr={terr:.3f} yerr={math.degrees(yerr):.3f}deg "
                       f"tmax={worst_time:.2f}s")
    report("criterion 3 (deterministic initialization)", all_ok, "; ".join(details))


def test_criterion_4_inlier_recall_and_exact_clique():
    """100% ground-truth inlier recall on 150 instances; clique = subset oracle."""
    perfect = 0
    total = 0
    for w_bar in (0.6, 0.7, 0.8):
        for s in range(50):
            frame, truth, true_inliers = aligned_problem(60, 1.0 - w_bar, 1.0,
                                                         seed=9000 + s)
            from mapvins.initializer import initialize_frame
            res = initialize_frame(frame, InitConfig(sigma_px=1.0))
            total += 1
            perfect += true_inliers <= set(res.translation_inliers)
    clique_ok = True
    from mapvins.initializer import (InitConfig as IC, _provisional_depths, build_tims,
                                     compatibility_graph, solve_translation)
    for seed in (30, 31, 32, 33, 34, 35):
        frame, truth, _ = aligned_problem(20, 0.5, 1.0, seed=seed)
        cfg = IC(sigma_px=1.0)
        idx = list(range(20))
        depths = _provisional_depths(frame, idx, truth.yaw, truth.translation)
        bounds = np.full(20, cfg.translation_bound())
        tims = build_tims(frame)
        adjacency = compatibility_graph(frame, tims, idx, truth.yaw, depths, bounds, 1.0)
        _, clique = solve_translation(frame, tims, idx, truth.yaw,
                                      cfg.translation_bound(), slack_px=1.0,
                                      depths=depths)
        oracle_size, oracle_sets = brute_force_max_cliques(adjacency)
        clique_ok &= (len(clique) == oracle_size and set(clique) in oracle_sets)
    report("criterion 4 (100% inlier recall + exact clique)",
           perfect == total and clique_ok,
           f"recall {perfect}/{total}, clique oracle "
           f"{'match' if clique_ok else 'MISMATCH'}")


def test_criterion_5_filter_correctness():
    """Null-space orthogonality, covariance health, Schmidt contract, IMU roundtrip."""
    # (d) zero-noise IMU roundtrip
    truth = generate_trajectory("circle", 10.0, 200.0, radius=5.0, angular_rate=0.5)
    st = FilterState(FilterConfig(), make_rig(1))
    st.set_pose(truth.pose(0), truth.velocities[0])
    propagate(st, truth.imu)
    roundtrip = float(np.linalg.norm(st.p - truth.positions[-1]))

    # (a)-(c): instrumented fuzz over a noisy 1000-frame pipeline
    cfg = ExperimentConfig()
    cfg.scenario = ScenarioConfig(
        kind="circle", duration=100.0, seed=42, num_maps=1,
        trajectory_params={"radius": 20.0, "angular_rate": 0.15},
        imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02,
                                 sigma_wg=1e-5, sigma_wa=2e-5),
        local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.3,
        map_update_period=1.0, correspondences_per_event=40)
    for name, val in (("sigma_g", 0.002), ("sigma_a", 0.02), ("sigma_wg", 1e-5),
                      ("sigma_wa", 2e-5), ("local_sigma_px", 0.5)):
        setattr(cfg.filter, name, val)
    cfg.ransac.polish = True
    scenario = Scenario(cfg.scenario)

    from mapvins import msckf as filt
    from mapvins import harness as hn
    max_null = 0.0
    sym_ok = True
    psd_ok = True
    schmidt_ok = True
    steps = 0

    orig_local, orig_map = filt.update_local, filt.update_map

    def checked_local(state, tracks):
        nonlocal max_null, steps
        out = orig_local(state, tracks)
        if state.last_report.rows:
            max_null = max(max_null, state.last_report.max_nullspace_residual)
        steps += 1
        _check_cov(state)
        return out

    def checked_map(state, obs):
        nonlocal max_null, schmidt_ok, steps
        # snapshot the nuisance block present before the update (lifting new
        # anchors is state augmentation, tracked separately)
        pre_means, pre_nn = snapshot_nuisance(state)
        out = orig_map(state, obs)
        if state.last_report.rows:
            max_null = max(max_null, state.last_report.max_nullspace_residual)
        post_means, post_nn = snapshot_nuisance(state)
        n_pre = 6 * len(pre_means)
        for k, (q, p) in pre_means.items():
            schmidt_ok &= np.array_equal(post_means[k][0], q)
            schmidt_ok &= np.array_equal(post_means[k][1], p)
        schmidt_ok &= np.array_equal(post_nn[:n_pre, :n_pre], pre_nn)
        steps += 1
        _check_cov(state)
        return out

    def _check_cov(state):
        nonlocal sym_ok, psd_ok
        n = state.dim
        block = state.P[:n, :n]
        sym_ok &= bool(np.abs(block - block.T).max() < 1e-9)
        psd_ok &= bool(np.linalg.eigvalsh(block).min() > -1e-9)

    filt.update_local = checked_local
    filt.update_map = checked_map
    hn.update_local = checked_local
    hn.update_map = checked_map
    try:
        result = run_localization(scenario, cfg)
    finally:
        filt.update_local, filt.update_map = orig_local, orig_map
        hn.update_local, hn.update_map = orig_local, orig_map

    frames = len(result.records)  # the fuzz run spans 1000 filter steps
    ok = (max_null < 1e-10 and sym_ok and psd_ok and schmidt_ok
          and roundtrip < 1e-5 and frames >= 1000 and steps >= 800)
    report("criterion 5 (filter correctness)", ok,
           f"nullspace max {max_null:.2e}, sym={sym_ok}, psd={psd_ok}, "
           f"schmidt={schmidt_ok}, roundtrip={roundtrip:.2e} m, "
           f"{frames} steps / {steps} checked updates")


def quarter_max(ts, errs, q):
    t0 = ts[0] + (q - 1) * (ts[-1] - ts[0]) / 4
    t1 = ts[0] + q * (ts[-1] - ts[0]) / 4
    mask = (ts >= t0) & (ts <= t1)
    return float(errs[mask].max())


def test_criterion_6_bounded_error():
    """Map-aided error bounded (Q4/Q2 <= 1.1) while local-only grows >= 2x."""
    t_start = time.perf_counter()
    map_ratios, local_ratios = [], []
    for seed in range(5):
        cfg = ExperimentConfig()
        cfg.scenario = ScenarioConfig(
            kind="circle", duration=63.0, seed=seed, num_maps=1,
            trajectory_params={"radius": 32.0, "angular_rate": 0.1},  # ~201 m path
            imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02,
                                     sigma_wg=1e-5, sigma_wa=2e-5),
            local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.25,
            map_update_period=1.0, correspondences_per_event=60)
        cfg.filter.sigma_g = 0.002
        cfg.filter.sigma_a = 0.02
        cfg.filter.sigma_wg = 1e-5
        cfg.filter.sigma_wa = 2e-5
        cfg.filter.local_sigma_px = 0.5
        cfg.ransac.polish = True
        scenario = Scenario(cfg.scenario)
        res_map = run_localization(scenario, cfg, use_maps=True)
        res_loc = run_localization(scenario, cfg, use_maps=False)
        ts, errs = map_frame_error_series(scenario, res_map, 1)
        lts, lerrs = local_frame_error_series(scenario, res_loc)
        map_ratios.append(quarter_max(ts, errs, 4) / quarter_max(ts, errs, 2))
        local_ratios.append(quarter_max(lts, lerrs, 4) / quarter_max(lts, lerrs, 2))
    elapsed = time.perf_counter() - t_start
    ok = (all(r <= 1.1 for r in map_ratios)
          and all(r >= 2.0 for r in local_ratios)
          and elapsed < 120.0)
    report("criterion 6 (bounded error with map constraints)", ok,
           f"map Q4/Q2 {['%.2f' % r for r in map_ratios]}, "
           f"local {['%.2f' % r for r in local_ratios]}, {elapsed:.0f}s")


def test_criterion_7_multimap_and_multicam_orderings():
    """Fused <= worse single map (mean+std, >=8/10 seeds); 4cam < 1cam (>=8/10)."""
    fused_err, map1_err, map2_err = [], [], []
    map_wins = 0
    for seed in range(10):
        sc = ScenarioConfig(
            kind="circle", duration=24.0, seed=seed, num_maps=2,
            trajectory_params={"radius": 16.0, "angular_rate": 0.2},
            imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02,
                                     sigma_wg=1e-5, sigma_wa=2e-5),
            local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.25,
            map_update_period=1.0, correspondences_per_event=40,
            map_quality={2: {"count_factor": 0.5, "extra_outliers": 0.3}})
        cfg = ExperimentConfig(scenario=sc)
        cfg.filter.sigma_g = 0.002
        cfg.filter.sigma_a = 0.02
        cfg.filter.sigma_wg = 1e-5
        cfg.filter.sigma_wa = 2e-5
        cfg.filter.local_sigma_px = 0.5
        cfg.ransac.polish = True
        scenario = Scenario(sc)
        e_f = run_localization(scenario, cfg).summary["local_rmse"]
        e_1 = run_localization(_RestrictedScenario(scenario, [1]), cfg).summary["local_rmse"]
        e_2 = run_localization(_RestrictedScenario(scenario, [2]), cfg).summary["local_rmse"]
        fused_err.append(e_f)
        map1_err.append(e_1)
        map2_err.append(e_2)
        map_wins += e_f <= max(e_1, e_2)
    worse_mean = max(np.mean(map1_err), np.mean(map2_err))
    worse_std = max(np.std(map1_err), np.std(map2_err))
    multimap_ok = (map_wins >= 8
                   and np.mean(fused_err) <= worse_mean
                   and np.std(fused_err) <= worse_std)

    cam_wins = 0
    for seed in range(10):
        sc = ScenarioConfig(
            kind="circle", duration=24.0, seed=seed, num_maps=1, num_cameras=4,
            trajectory_params={"radius": 16.0, "angular_rate": 0.2},
            imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02,
                                     sigma_wg=1e-5, sigma_wa=2e-5),
            local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.45,
            map_update_period=1.0, correspondences_per_event=8)
        cfg = ExperimentConfig(scenario=sc)
        cfg.filter.sigma_g = 0.002
        cfg.filter.sigma_a = 0.02
        cfg.filter.sigma_wg = 1e-5
        cfg.filter.sigma_wa = 2e-5
        cfg.filter.local_sigma_px = 0.5
        cfg.ransac.polish = True
        cfg.ransac.min_inliers = 5
        cfg.min_init_matches = 8
        scenario = Scenario(sc)

        def map_err(res):
            vals = list(res.summary["map_rmse"].values())
            return vals[0] if vals else float("inf")

        e4 = map_err(run_localization(scenario, cfg))
        e1 = map_err(run_localization(scenario, cfg, camera_subset=[0]))
        cam_wins += e4 < e1
    ok = multimap_ok and cam_wins >= 8
    report("criterion 7 (multi-map and multi-camera orderings)", ok,
           f"multimap wins {map_wins}/10 (fused mean {np.mean(fused_err):.3f} "
           f"<= worse mean {worse_mean:.3f}), multicam wins {cam_wins}/10")


def test_criterion_8_metrics_suite():
    """Trivial metric examples exact; invariance on 100 random trajectories."""
    rng = np.random.default_rng(88)

    def random_traj(n=15):
        positions = np.cumsum(rng.normal(0, 0.5, size=(n, 3)), axis=0)
        poses = tuple(RigidTransform(Rotation(rng.normal(size=4)), p)
                      for p in positions)
        return metrics.Trajectory(0.1 * np.arange(n), poses, "t")

    def shift(traj, offset):
        return metrics.Trajectory(traj.times,
                                  tuple(offset @ p for p in traj.poses), "s")

    ok = True
    # trivial examples, exact
    traj = random_traj()
    ok &= metrics.map_trajectory_error(traj, traj) == 0.0
    ok &= metrics.local_trajectory_error(traj, traj) < 1e-12
    t = RigidTransform(yaw_rotation(0.3), [1, 2, 3])
    ok &= metrics.alignment_error(t, t) == (0.0, 0.0)
    dt, dr = metrics.alignment_error(
        RigidTransform(Rotation.identity(), np.zeros(3)),
        RigidTransform(yaw_rotation(math.pi / 2), np.zeros(3)))
    ok &= dt == 0.0 and abs(dr - math.pi / 2) < 1e-12
    align = metrics.align_se3(traj, traj)
    ok &= align.rotation.angle() < 1e-12 and np.linalg.norm(align.translation) < 1e-12

    # constant offset (3,4,0) -> exactly 5.0
    moved = metrics.Trajectory(
        traj.times,
        tuple(RigidTransform(p.rotation, p.translation + np.array([3.0, 4.0, 0.0]))
              for p in traj.poses), "m")
    offset_err = metrics.map_trajectory_error(moved, traj)
    ok &= abs(offset_err - 5.0) <= 1e-12

    # invariance of the local metric under global rigid motion, 100 trials
    worst = 0.0
    for _ in range(100):
        est = random_traj()
        gt = metrics.Trajectory(
            est.times,
            tuple(RigidTransform(p.rotation, p.translation + rng.normal(0, 0.05, 3))
                  for p in est.poses), "gt")
        base = metrics.local_trajectory_error(est, gt)
        world = RigidTransform(Rotation(rng.normal(size=4)), rng.normal(0, 5, 3))
        movedv = metrics.local_trajectory_error(shift(est, world), shift(gt, world))
        worst = max(worst, abs(movedv - base))
    ok &= worst < 1e-9
    report("criterion 8 (metrics suite)", ok,
           f"offset err |{offset_err:.12f}-5|<=1e-12, invariance worst {worst:.2e}")


def test_criterion_9_causality():
    """Feeding the first 60% of a scenario reproduces the log prefix exactly."""
    cfg = ExperimentConfig()
    cfg.scenario = ScenarioConfig(
        kind="circle", duration=20.0, seed=31, num_maps=2,
        trajectory_params={"radius": 12.0, "angular_rate": 0.25},
        imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02,
                                 sigma_wg=1e-5, sigma_wa=2e-5),
        local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.3,
        map_update_period=1.0)
    cfg.filter.sigma_g = 0.002
    cfg.filter.sigma_a = 0.02
    cfg.filter.sigma_wg = 1e-5
    cfg.filter.sigma_wa = 2e-5
    cfg.filter.local_sigma_px = 0.5
    cfg.ransac.polish = True
    scenario = Scenario(cfg.scenario)
    full = run_localization(scenario, cfg)
    part = run_localization(scenario, cfg, truncate_fraction=0.6)
    full_prefix = "\n".join(json.dumps(r, sort_keys=True)
                            for r in full.records[:len(part.records)])
    part_log = "\n".join(json.dumps(r, sort_keys=True) for r in part.records)
    ok = len(part.records) < len(full.records) and part_log == full_prefix
    report("criterion 9 (causality of the pose log)", ok,
           f"{len(part.records)} prefix records byte-identical")
