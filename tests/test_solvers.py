import math

import numpy as np
import pytest

import mapvins.geometry as g
import mapvins.solvers as solvers
from mapvins.geometry import RigidTransform, YawPose, wrap_angle
from mapvins.sim import Scenario, ScenarioConfig, make_matching_problem
from mapvins.solvers import (
    MatchingFailureError,
    RansacConfig,
    align_correspondences,
    fit_translations,
    ransac_matching_frame,
    ransac_pose,
    ransac_success_probability,
    _solve_pairs,
    _Verifier,
)

from two_point_oracle import (
    DegenerateSampleError,
    basis_fit,
    exact_frame,
    rig_event,
    solve_2pt,
)


def kernel(frame, pairs):
    """``_solve_pairs`` on the (i, j) pairs: per pair, its [(yaw, t), ...]."""
    i, j = (np.array(col, dtype=int) for col in zip(*pairs))
    pair, yaw, t = _solve_pairs(frame, i, j)
    return [[(yaw[k], t[k]) for k in np.flatnonzero(pair == p)] for p in range(len(pairs))]


def candidate_errors(yaw, t, frame):
    """Largest sine between a match's ray and its point under (yaw, t)."""
    pose = YawPose(yaw, t)
    worst = 0.0
    for point, center, ray in zip(frame.points, frame.centers, frame.rays):
        x = pose.apply(point) - center
        worst = max(worst, float(np.linalg.norm(np.cross(x / np.linalg.norm(x), ray))))
    return worst


def assert_matches_oracle(frame, pairs, yaw, t, pair):
    """Kernel candidates equal the SVD oracle's, pair by pair and root by root.

    Returns the number of pairs the oracle finds infeasible or degenerate.
    """
    assert np.all(np.diff(pair) >= 0)  # (pair, root) order
    empty = 0
    for p, (a, b) in enumerate(pairs):
        try:
            readable = solve_2pt(frame, a, b)
        except DegenerateSampleError:
            readable = []
        empty += not readable
        sel = np.flatnonzero(pair == p)
        assert len(readable) == len(sel)
        for cand, k in zip(readable, sel):
            assert abs(wrap_angle(cand.pose.yaw - yaw[k])) < 1e-9
            assert np.abs(cand.pose.translation - t[k]).max() < 1e-7
    return empty


class TestSolveTwoPoint:
    def test_identity_pose_recovered(self):
        frame = exact_frame([[1.0, 0.0, 5.0], [0.0, 1.0, 4.0]])
        cands = kernel(frame, [(0, 1)])[0]
        assert len(cands) == len(solve_2pt(frame, 0, 1))
        yaw, t = min(cands, key=lambda c: abs(c[0]) + np.linalg.norm(c[1]))
        assert abs(yaw) < 1e-10
        assert np.linalg.norm(t) < 1e-10

    def test_thirty_degree_pose_recovered(self):
        # Oracle: forward projection of the map-observation model
        rng = np.random.default_rng(2)
        truth = YawPose(math.radians(30.0), np.array([1.0, 2.0, 0.5]))
        for _ in range(50):
            pts = rng.uniform([-4, -4, 3], [4, 4, 10], size=(2, 3))
            if np.linalg.norm(pts[0] - pts[1]) < 0.5:
                continue
            cands = kernel(exact_frame(pts, truth), [(0, 1)])[0]
            errs = [abs(wrap_angle(yaw - truth.yaw)) + np.linalg.norm(t - truth.translation)
                    for yaw, t in cands]
            assert min(errs) < 1e-8

    def test_both_roots_satisfy_ray_constraints(self):
        rng = np.random.default_rng(3)
        truth = YawPose(-0.9, np.array([0.4, -1.0, 2.0]))
        for _ in range(50):
            frame = exact_frame(rng.uniform([-4, -4, 2], [4, 4, 9], size=(2, 3)), truth)
            cands = kernel(frame, [(0, 1)])[0]
            assert len(cands) == len(solve_2pt(frame, 0, 1))
            for yaw, t in cands:
                assert candidate_errors(yaw, t, frame) < 1e-9

    def test_identical_landmarks_degenerate(self):
        truth = YawPose(0.2, np.array([1.0, 0.0, 0.0]))
        frame = exact_frame([[2.0, 1.0, 5.0]] * 2, truth,
                            rays=[exact_frame([[2.0, 1.0, 5.0]], truth).rays[0],
                                  [0.0, 0.0, 1.0]])
        with pytest.raises(DegenerateSampleError):
            solve_2pt(frame, 0, 1)
        assert kernel(frame, [(0, 1)]) == [[]]

    def test_vertical_offset_yaw_unobservable(self):
        # delta-F purely vertical and rays coplanar with it: every yaw fits
        frame = exact_frame([[1.0, 1.0, 2.0], [1.0, 1.0, 5.0]])
        with pytest.raises(DegenerateSampleError):
            solve_2pt(frame, 0, 1)
        assert kernel(frame, [(0, 1)]) == [[]]

    def test_vertical_offset_inconsistent_has_no_solution(self):
        points = [[1.0, 1.0, 2.0], [1.0, 1.0, 5.0]]
        skewed = exact_frame(points, rays=[exact_frame(points).rays[0], [0.0, 1.0, 0.0]])
        assert solve_2pt(skewed, 0, 1) == []
        assert kernel(skewed, [(0, 1)]) == [[]]

    def test_fast_path_matches_readable_path(self):
        # one pair per call
        corrs, camera, wfc, _ = make_matching_problem(60, 1.0, 1.0, seed=3, tilt=0.15)
        frame = align_correspondences(corrs, [camera], wfc.rotation)
        rng = np.random.default_rng(1)
        for _ in range(200):
            i, j = (int(x) for x in rng.choice(60, 2, replace=False))
            pair, yaw, t = _solve_pairs(frame, np.array([i]), np.array([j]))
            assert_matches_oracle(frame, [(i, j)], yaw, t, pair)

    def test_batched_kernel_matches_readable_path(self):
        # 300 pairs in one call: 194 from a one-camera frame, 100 from a
        # four-camera frame (nonzero ray centers, pairs across cameras), and
        # pairs for each rejection mask: a rank-deficient translation block
        # (two map points on one ray, exactly and to 1e-12 m), coincident
        # map points, a vertical offset every yaw fits (exactly, and with a
        # 1e-13 m horizontal offset), and a vertical offset no yaw fits.
        # Outliers add pairs with |s| > 1.
        corrs, camera, wfc, _ = make_matching_problem(60, 0.5, 1.0, seed=3, tilt=0.15)
        mono = align_correspondences(corrs, [camera], wfc.rotation)
        rig, *_ = rig_event(3, 0)
        truth = YawPose(0.2, np.array([1.0, 0.0, 0.0]))
        special_points = [[1.0, 2.0, 4.0], [3.0, 6.0, 12.0], [2.0, 1.0, 5.0],
                          [2.0, 1.0, 5.0], [1.0, 1.0, 2.0], [1.0, 1.0, 5.0],
                          [1.0, 1.0, 2.0], [1.0, 1.0, 5.0], [1.0, 2.0, 4.0],
                          [3.0, 6.0, 12.0 + 1e-12], [1.0, 1.0, 2.0], [1.0 + 1e-13, 1.0, 5.0]]
        special_rays = exact_frame(special_points).rays
        special_rays[2] = exact_frame(special_points[2:3], truth).rays[0]
        special_rays[3] = [0.0, 0.0, 1.0]
        special_rays[7] = [0.0, 1.0, 0.0]
        n_special = len(special_points)
        frame = exact_frame(np.vstack([mono.points, rig.points, special_points]),
                            centers=np.vstack([mono.centers, rig.centers,
                                               np.zeros((n_special, 3))]),
                            rays=np.vstack([mono.rays, rig.rays, special_rays]))
        n_mono, n_rig = len(mono), len(rig)
        base = n_mono + n_rig
        special_pairs = [(base + k, base + k + 1) for k in range(0, n_special, 2)]
        rng = np.random.default_rng(1)
        pairs = [tuple(int(x) for x in rng.choice(n_mono, 2, replace=False))
                 for _ in range(200 - len(special_pairs))]
        for k, sp in enumerate(special_pairs):
            pairs.insert(40 * k + 7, sp)
        rig_pairs = [tuple(n_mono + int(x) for x in rng.choice(n_rig, 2, replace=False))
                     for _ in range(100)]
        assert sum(rig.camera_ids[a - n_mono] != rig.camera_ids[b - n_mono]
                   for a, b in rig_pairs) >= 20
        assert np.abs(rig.centers).max() > 0.01
        pairs += rig_pairs
        i, j = (np.array(col) for col in zip(*pairs))
        pair, yaw, t = _solve_pairs(frame, i, j)
        for a, b in special_pairs:
            try:
                assert solve_2pt(frame, a, b) == []
            except DegenerateSampleError:
                pass
        assert assert_matches_oracle(frame, pairs, yaw, t, pair) > len(special_pairs)


def noisy_frame(n, seed, centers=False):
    """Rays through exact points at a random pose, then tilted by ~1e-3 rad."""
    rng = np.random.default_rng(seed)
    truth = YawPose(rng.uniform(-math.pi, math.pi), rng.normal(0.0, 2.0, 3))
    points = rng.uniform([-4, -4, 3], [4, 4, 12], size=(n, 3))
    c = rng.normal(0.0, 0.3, (n, 3)) if centers else np.zeros((n, 3))
    x = np.array([truth.apply(p) for p in points]) - c + rng.normal(0.0, 0.01, (n, 3))
    return exact_frame(points, centers=c, rays=x / np.linalg.norm(x, axis=1, keepdims=True)), truth


class TestFitTranslations:
    """The ray-distance kernel against the ray-basis rows it replaced."""

    def test_exact_pairs_recover_truth(self):
        rng = np.random.default_rng(4)
        truth = YawPose(0.7, np.array([1.0, -2.0, 0.5]))
        centers = rng.normal(0.0, 0.3, (12, 3))
        for c in (None, centers):  # one camera, then rig centres
            frame = exact_frame(rng.uniform([-4, -4, 3], [4, 4, 12], size=(12, 3)), truth,
                                centers=c)
            pairs = np.array([(k, k + 1) for k in range(0, 12, 2)])
            t, rss = fit_translations(frame, pairs, truth.yaw)
            assert np.abs(t - truth.translation).max() < 1e-9
            assert rss.max() < 1e-9
            for p, (i, j) in enumerate(pairs):
                t_old, _ = basis_fit(frame, [i, j], truth.yaw, normal_equations=True)
                assert np.abs(t[p] - t_old).max() < 1e-9

    def test_weighted_groups_match_basis_rows(self):
        # noisy rays, rig centres, per-group yaw and per-match weights: the
        # 4x3 normal equations (pairs) and lstsq (groups of 5)
        frame, truth = noisy_frame(40, 5, centers=True)
        rng = np.random.default_rng(6)
        for m, normal in ((2, True), (5, False)):
            members = np.array([rng.choice(40, m, replace=False) for _ in range(30)])
            yaws = truth.yaw + rng.normal(0.0, 0.01, 30)
            w = rng.uniform(100.0, 1e4, (30, m))
            t, rss = fit_translations(frame, members, yaws, w)
            for g in range(30):
                t_old, rss_old = basis_fit(frame, members[g], yaws[g], w[g],
                                           normal_equations=normal)
                assert np.abs(t[g] - t_old).max() < 1e-9 * (1.0 + np.abs(t_old).max())
                assert rss[g] == pytest.approx(rss_old, rel=1e-9, abs=1e-9)

    def test_tied_clique_batch_equals_one_call_per_clique(self):
        frame, truth = noisy_frame(30, 7)
        cliques = np.array([[0, 3, 5, 8], [1, 3, 5, 9], [2, 4, 6, 8], [0, 1, 2, 3]])
        w = np.random.default_rng(8).uniform(1e3, 1e4, 30)
        t, rss = fit_translations(frame, cliques, truth.yaw, w[cliques])
        for g, clique in enumerate(cliques):
            t_one, rss_one = fit_translations(frame, clique[None, :], truth.yaw,
                                              w[clique][None, :])
            np.testing.assert_array_equal(t[g], t_one[0])
            assert rss[g] == rss_one[0]
            t_old, rss_old = basis_fit(frame, clique, truth.yaw, w[clique])
            assert np.abs(t[g] - t_old).max() < 1e-9
            assert rss[g] == pytest.approx(rss_old, rel=1e-9)

    def test_single_match_gets_minimum_norm(self):
        frame, truth = noisy_frame(6, 9, centers=True)
        t, rss = fit_translations(frame, np.arange(6)[:, None], truth.yaw)
        np.testing.assert_array_equal(rss, 0.0)
        for k in range(6):
            t_old, rss_old = basis_fit(frame, [k], truth.yaw)
            assert rss_old < 1e-12
            assert np.abs(t[k] - t_old).max() < 1e-12
            assert abs(t[k] @ frame.rays[k]) < 1e-12  # no part along the ray

    def test_parallel_rays(self):
        # exactly parallel (one axis-aligned, where the unregularized normal
        # matrix is exactly singular): t is free along the ray, the part
        # across it and the residual are the minimum-norm fit's
        ray = np.array([0.0, 0.0, 1.0])
        tilted = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
        for r in (ray, tilted):
            frame = exact_frame([[1.0, 2.0, 5.0], [1.5, 1.0, 9.0]], rays=[r, r])
            t, rss = fit_translations(frame, [[0, 1]], 0.4)
            t_old, rss_old = basis_fit(frame, [0, 1], 0.4)
            across = np.eye(3) - np.outer(r, r)
            assert np.all(np.isfinite(t))
            assert np.abs(across @ (t[0] - t_old)).max() < 1e-9
            assert rss[0] == pytest.approx(rss_old, rel=1e-9)

    def test_near_parallel_rays(self):
        # 1e-3 rad apart: the normal matrix's small eigenvalue is 5e-7
        frame, truth = noisy_frame(2, 10)
        r0 = frame.rays[0]
        side = np.cross(r0, [0.0, 0.0, 1.0])
        r1 = r0 + 1e-3 * side / np.linalg.norm(side)
        frame = exact_frame(frame.points, rays=[r0, r1 / np.linalg.norm(r1)])
        t, rss = fit_translations(frame, [[0, 1]], truth.yaw)
        t_old, rss_old = basis_fit(frame, [0, 1], truth.yaw)
        assert np.abs(t[0] - t_old).max() < 1e-6 * (1.0 + np.abs(t_old).max())
        assert rss[0] == pytest.approx(rss_old, rel=1e-6, abs=1e-9)


class TestVerifier:
    def test_candidate_blocks_keep_errors(self, monkeypatch):
        # 600 candidates in blocks of 256 (default) and of 7: a block's
        # projection is its own matrix product, so values may move by an ulp
        frame, true_cfm, _ = rig_event(4, 1)
        rng = np.random.default_rng(1)
        yaws = rng.uniform(-math.pi, math.pi, 600)
        ts = true_cfm.translation + rng.normal(0.0, 1.0, (600, 3))
        whole = _Verifier(frame).batch_errors(yaws, ts)
        monkeypatch.setattr(solvers, "_VERIFY_BLOCK", 7)
        blocked = _Verifier(frame).batch_errors(yaws, ts)
        np.testing.assert_array_equal(np.isinf(blocked), np.isinf(whole))
        assert np.isinf(whole).any() and np.isfinite(whole).any()
        finite = np.isfinite(whole)
        np.testing.assert_allclose(blocked[finite], whole[finite], rtol=1e-12, atol=1e-9)

    def test_batch_errors_match_per_match_projection(self):
        frame, true_cfm, _ = rig_event(3, 0)
        assert len(set(frame.camera_ids.tolist())) > 1
        true_yaw, _ = g.decompose_yaw(true_cfm.rotation)
        rng = np.random.default_rng(0)
        yaws = np.concatenate([[true_yaw, true_yaw + math.pi],  # 2nd: points behind
                               rng.uniform(-math.pi, math.pi, 6)])
        ts = np.vstack([true_cfm.translation, true_cfm.translation,
                        true_cfm.translation + rng.normal(0.0, 0.5, (6, 3))])
        errs = _Verifier(frame).batch_errors(yaws, ts)
        assert errs.shape == (len(yaws), len(frame))
        for c, (yaw, t) in enumerate(zip(yaws, ts)):
            pose = YawPose(yaw, t)
            for k, cam_id in enumerate(frame.camera_ids):
                p_cam = frame.cam_from_solving[cam_id].apply(pose.apply(frame.points[k]))
                if p_cam[2] <= 1e-3:
                    assert errs[c, k] == np.inf
                    continue
                pix = frame.cameras[cam_id].project(p_cam)
                expected = np.linalg.norm(pix - frame.pixels[k])
                assert errs[c, k] == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert (errs[0] < 3.0).sum() > len(frame) / 2  # truth fits
        assert np.isinf(errs[1]).any()


class TestRansac:
    def test_all_exact_inliers(self):
        corrs, camera, wfc, truth = make_matching_problem(50, 1.0, 0.0, seed=4)
        res = ransac_pose(corrs, RansacConfig(iterations=30, threshold_px=1.0,
                                              min_inliers=5, seed=0),
                          [camera], wfc.rotation)
        assert res.inlier_ratio == 1.0
        assert abs(wrap_angle(res.cam_from_map.yaw - truth.yaw)) < 1e-6
        assert np.linalg.norm(res.cam_from_map.translation - truth.translation) < 1e-6

    def test_inliers_reproject_within_threshold(self):
        # MatchResult invariant, assertable directly
        for seed in range(5):
            corrs, camera, wfc, _ = make_matching_problem(120, 0.4, 1.0,
                                                          seed=seed, tilt=0.1)
            for polish in (False, True):
                cfg = RansacConfig(iterations=80, threshold_px=3.0, min_inliers=5,
                                   seed=seed, polish=polish)
                res = ransac_pose(corrs, cfg, [camera], wfc.rotation)
                frame = align_correspondences(corrs, [camera], wfc.rotation)
                for idx in res.inlier_indices:
                    p_cam = (frame.cam_from_solving[frame.camera_ids[idx]]
                             .apply(res.cam_from_map.apply(frame.points[idx])))
                    assert p_cam[2] > 0
                    pix = camera.project(p_cam)
                    assert np.linalg.norm(pix - frame.pixels[idx]) <= cfg.threshold_px + 1e-9

    def test_extreme_outliers_monte_carlo(self):
        # 80% outliers, 200 matches, k=100, sigma=1px: >= 95/100 seeded trials
        # inside (0.1 m, 0.5 deg).  Pilot measured 97/100 (3 inherent sampling
        # misses, consistent with the success-probability formula).
        wins = 0
        for seed in range(100):
            corrs, camera, wfc, truth = make_matching_problem(
                200, 0.2, 1.0, seed=1000 + seed, tilt=0.1)
            try:
                res = ransac_pose(corrs, RansacConfig(iterations=100, threshold_px=3.0,
                                                      min_inliers=5, seed=seed,
                                                      polish=True),
                                  [camera], wfc.rotation)
            except MatchingFailureError:
                continue
            yerr = abs(wrap_angle(res.cam_from_map.yaw - truth.yaw))
            terr = np.linalg.norm(res.cam_from_map.translation - truth.translation)
            wins += yerr < math.radians(0.5) and terr < 0.1
        assert wins >= 95

    def test_weighted_sampling_beats_unweighted(self):
        corrs, camera, wfc, truth = make_matching_problem(150, 0.2, 1.0, seed=5)
        frame = align_correspondences(corrs, [camera], wfc.rotation)
        scores = {False: 0, True: 0}
        for s in range(100):
            for weighted in (False, True):
                try:
                    res = ransac_matching_frame(
                        frame, RansacConfig(iterations=20, threshold_px=3.0,
                                            min_inliers=5, use_weights=weighted, seed=s))
                    yerr = abs(wrap_angle(res.cam_from_map.yaw - truth.yaw))
                    terr = np.linalg.norm(res.cam_from_map.translation
                                          - truth.translation)
                    scores[weighted] += yerr < math.radians(0.5) and terr < 0.1
                except MatchingFailureError:
                    pass
        assert scores[True] >= scores[False]
        assert scores[True] - scores[False] > 20  # pilot: 151 vs 59 over 200

    def test_multi_camera_beats_mono_when_sparse(self):
        # Equal per-camera statistics; pooling raises the absolute inlier count.
        mono_ok = multi_ok = 0
        for seed in range(60):
            cfg = ScenarioConfig(duration=2.0, seed=seed, num_cameras=4, num_maps=1,
                                 correspondences_per_event=7, outlier_rate=0.65,
                                 sigma_px=1.0, map_update_period=10.0)
            sc = Scenario(cfg)
            ev = sc.map_events[0]
            truth_pose = sc.frame_pose(ev.frame)
            mfw = sc.map_from_world[ev.map_id]

            def run(correspondences, rig):
                try:
                    res = ransac_pose(correspondences,
                                      RansacConfig(iterations=100, threshold_px=3.0,
                                                   min_inliers=4, seed=seed, polish=True),
                                      rig, truth_pose.rotation)
                except MatchingFailureError:
                    return False
                world_from_cam = truth_pose @ rig[0].imu_from_camera
                _, tilt = g.decompose_yaw(world_from_cam.rotation)
                level_from_world = RigidTransform(tilt, np.zeros(3)) @ world_from_cam.inverse()
                true_cfm = level_from_world @ mfw.inverse().to_rigid()
                ty, _ = g.decompose_yaw(true_cfm.rotation)
                yerr = abs(wrap_angle(res.cam_from_map.yaw - ty))
                terr = np.linalg.norm(res.cam_from_map.translation - true_cfm.translation)
                return yerr < math.radians(1.0) and terr < 0.3

            mono_ok += run([c for c in ev.correspondences if c.camera_id == 0],
                           sc.rig[:1])
            multi_ok += run(ev.correspondences, sc.rig)
        assert multi_ok >= mono_ok
        assert multi_ok > mono_ok  # pilot margin: 38 vs 23 over 100

    def test_seed_determinism(self):
        corrs, camera, wfc, _ = make_matching_problem(80, 0.5, 1.0, seed=6)
        cfg = RansacConfig(iterations=50, threshold_px=3.0, min_inliers=5, seed=12)
        a = ransac_pose(corrs, cfg, [camera], wfc.rotation)
        b = ransac_pose(corrs, cfg, [camera], wfc.rotation)
        assert a.cam_from_map.yaw == b.cam_from_map.yaw
        assert np.array_equal(a.cam_from_map.translation, b.cam_from_map.translation)
        assert a.inlier_indices == b.inlier_indices

    def test_too_few_correspondences(self):
        corrs, camera, wfc, _ = make_matching_problem(1, 1.0, 0.0, seed=7)
        with pytest.raises(MatchingFailureError):
            ransac_pose(corrs, RansacConfig(), [camera], wfc.rotation)

    def test_no_candidate_meets_floor(self):
        corrs, camera, wfc, _ = make_matching_problem(30, 0.0, 1.0, seed=8)
        with pytest.raises(MatchingFailureError):
            ransac_pose(corrs, RansacConfig(iterations=20, threshold_px=1.0,
                                            min_inliers=10, seed=0),
                        [camera], wfc.rotation)

    def test_no_pose_candidate_has_its_own_reason(self):
        # every map point coincides, so no 2-point sample yields a candidate
        from dataclasses import replace
        corrs, camera, wfc, _ = make_matching_problem(20, 1.0, 0.0, seed=10)
        corrs = [replace(c, point=corrs[0].point) for c in corrs]
        with pytest.raises(MatchingFailureError, match="no sample yielded a pose candidate"):
            ransac_pose(corrs, RansacConfig(iterations=20, seed=0), [camera], wfc.rotation)

    def test_mixed_map_ids_rejected(self):
        corrs, camera, wfc, _ = make_matching_problem(10, 1.0, 0.0, seed=9)
        from dataclasses import replace
        corrs[0] = replace(corrs[0], map_id=5)
        with pytest.raises(ValueError, match="mix map ids"):
            align_correspondences(corrs, [camera], wfc.rotation)


class TestSuccessProbability:
    def test_perfect_inlier_rate(self):
        for n in (1, 2, 3):
            for k in (1, 10):
                assert ransac_success_probability(1.0, n, k) == 1.0

    def test_direct_substitution(self):
        assert ransac_success_probability(0.5, 2, 1) == pytest.approx(0.25)

    def test_two_point_beats_three_point(self):
        # the motivation for the 2-point sampler: smaller n converges faster
        p2 = ransac_success_probability(0.2, 2, 100)
        p3 = ransac_success_probability(0.2, 3, 100)
        assert p2 > p3
        assert p2 - p3 > 0.15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ransac_success_probability(1.5, 2, 10)
        with pytest.raises(ValueError):
            ransac_success_probability(0.5, 0, 10)

    def test_empirical_smoke(self):
        # lightweight fidelity check; the full 1000-trial sweep lives in the
        # acceptance suite
        corrs, camera, wfc, truth = make_matching_problem(400, 0.5, 0.0, seed=77)
        frame = align_correspondences(corrs, [camera], wfc.rotation)
        wins = 0
        trials = 300
        for s in range(trials):
            try:
                res = ransac_matching_frame(
                    frame, RansacConfig(iterations=10, threshold_px=1e-5,
                                        min_inliers=2, seed=s))
                ok = (abs(wrap_angle(res.cam_from_map.yaw - truth.yaw)) < 1e-6
                      and np.linalg.norm(res.cam_from_map.translation
                                         - truth.translation) < 1e-5)
                wins += ok
            except MatchingFailureError:
                pass
        assert abs(wins / trials - ransac_success_probability(0.5, 2, 10)) < 0.06
