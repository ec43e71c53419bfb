import math
import time
import tracemalloc

import numpy as np
import pytest

import mapvins.geometry as g
import mapvins.initializer as initializer
from mapvins.geometry import YawPose, wrap_angle
from mapvins.initializer import (
    InitConfig,
    InitializationError,
    TimArrays,
    build_tims,
    compatibility_graph,
    initialize_frame,
    max_cliques,
    solve_translation,
    vote_yaw,
    _arc_counts,
    _pair_midpoints,
    _pair_residuals,
    _pixel_weights,
    _provisional_depths,
    _well_conditioned,
    _yaw_grid,
)
from mapvins.sim import make_matching_problem
from mapvins.solvers import align_correspondences, fit_translations

from test_solvers import noisy_frame
from two_point_oracle import basis_fit, exact_frame, rig_event


def aligned_problem(n, inlier_rate, sigma_px, seed, tilt=0.1):
    corrs, camera, wfc, truth = make_matching_problem(n, inlier_rate, sigma_px,
                                                      seed=seed, tilt=tilt)
    frame = align_correspondences(corrs, [camera], wfc.rotation)
    true_inliers = {i for i, c in enumerate(corrs) if c.is_inlier}
    return frame, truth, true_inliers


def tim_rows(*rows):
    """TimArrays from (i, j, d1, d2, d3, bound) tuples, with unit sin_angle."""
    cols = list(zip(*rows)) if rows else [()] * 6
    return TimArrays(*(np.array(c, dtype=int) for c in cols[:2]),
                     *(np.array(c, dtype=float) for c in cols[2:]),
                     np.ones(len(rows)))


def direct_counts(d1, d2, d3, slack, n_points, fine):
    """Oracle: every constraint evaluated at every grid point."""
    grid = _yaw_grid(n_points, fine)
    sin_g, cos_g = np.sin(grid), np.cos(grid)
    counts = np.zeros(n_points, dtype=np.int64)
    for lo in range(0, n_points, 4096):
        vals = (np.outer(d1, sin_g[lo:lo + 4096]) + np.outer(d2, cos_g[lo:lo + 4096])
                + d3[:, None])
        counts[lo:lo + 4096] = (np.abs(vals) <= slack[:, None]).sum(axis=0)
    return counts


def grid_of(step, refine_factor=50):
    n_cells = max(8, int(math.ceil(2.0 * math.pi / step)))
    return n_cells * refine_factor, 2.0 * math.pi / n_cells / refine_factor


def max_clique(adjacency):
    """One exact maximum clique (first tie in deterministic search order)."""
    return max_cliques(adjacency, cap=1)[0]


def brute_force_max_cliques(adjacency):
    """Independent oracle: enumerate all vertex subsets by bitmask."""
    n = len(adjacency)
    assert n <= 20
    adj_mask = np.zeros(n, dtype=np.uint32)
    for i in range(n):
        adj_mask[i] = (1 << i) | sum(1 << j for j in range(n) if adjacency[i, j])
    masks = np.arange(1 << n, dtype=np.uint32)
    valid = np.ones(len(masks), dtype=bool)
    for i in range(n):
        has_i = (masks >> i) & 1 == 1
        fits = (masks & ~adj_mask[i]) == 0
        valid &= ~has_i | fits
    sizes = np.zeros(len(masks), dtype=np.uint8)
    for i in range(n):
        sizes += ((masks >> i) & 1).astype(np.uint8)
    sizes[~valid] = 0
    best = int(sizes.max())
    winners = [set(np.flatnonzero([(m >> i) & 1 for i in range(n)]))
               for m in masks[sizes == best]]
    return best, winners


def set_max_cliques(adjacency, cap=512):
    """Oracle: the branch and bound of ``max_cliques`` on Python sets.

    Same vertex order, colouring order, ``cap`` and tie rule.
    """
    n = len(adjacency)
    if n == 0:
        return [[]]
    adj = [set(np.flatnonzero(adjacency[v])) - {v} for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    best_size = 0
    found = []

    def greedy_color(cands):
        colors, assigned = [], {}
        for v in cands:
            for ci, cls in enumerate(colors):
                if not (adj[v] & cls):
                    cls.add(v)
                    assigned[v] = ci + 1
                    break
            else:
                colors.append({v})
                assigned[v] = len(colors)
        return assigned

    def expand(clique, cands):
        nonlocal best_size, found
        if not cands:
            if len(clique) > best_size:
                best_size = len(clique)
                found = [sorted(clique)]
            elif len(clique) == best_size and len(found) < cap:
                found.append(sorted(clique))
            return
        color_of = greedy_color(cands)
        cands = sorted(cands, key=lambda v: (color_of[v], v))
        while cands:
            v = cands[-1]
            reach = len(clique) + color_of[v]
            if reach < best_size or (reach == best_size and len(found) >= cap):
                return
            cands = cands[:-1]
            expand(clique + [v], [u for u in cands if u in adj[v]])

    expand([], order)
    return [[int(v) for v in c] for c in found]


def all_pairs(n):
    ii, jj = np.triu_indices(n, k=1)
    return np.column_stack([ii, jj])


def line_pair_frame(theta, gap):
    """Two matches at yaw 0 whose rays are ``theta`` apart and lines ``gap`` apart.

    Ray 1 turns ray 0 by theta towards a side vector; the base points
    ``a = c - F`` differ by ``gap`` along the common normal plus offsets
    along the ray and the side vector, so the lines are exactly ``gap``
    apart whatever theta.
    """
    r0 = np.array([0.2, -0.1, 1.0]) / np.linalg.norm([0.2, -0.1, 1.0])
    side = np.cross(r0, [0.0, 1.0, 0.0])
    side /= np.linalg.norm(side)
    r1 = math.cos(theta) * r0 + math.sin(theta) * side
    a_0 = np.array([0.3, 0.2, -0.5])
    a_1 = a_0 + gap * np.cross(r0, side) + 2.0 * r0 + 0.4 * side
    points = np.array([[1.0, 2.0, 5.0], [1.5, 1.0, 9.0]])
    return exact_frame(points, centers=np.array([a_0, a_1]) + points, rays=[r0, r1])


class TestBuildTims:
    def test_exact_inliers_vanish_at_true_yaw(self):
        truth = YawPose(0.42, np.array([0.7, -0.4, 1.1]))
        rng = np.random.default_rng(1)
        pts = rng.uniform([-4, -4, 3], [4, 4, 9], size=(6, 3))
        tims = build_tims(exact_frame(pts, truth), sigma_px=0.0)
        assert len(tims) == len(pts) * (len(pts) - 1) // 2  # K(K-1)/2
        assert np.all(np.abs(tims.values(truth.yaw)) < 1e-10)
        assert np.all(tims.bound > 0)

    def test_inlier_outlier_pairs_typically_violate(self):
        frame, truth, true_inliers = aligned_problem(40, 0.5, 1.0, seed=2)
        tims = build_tims(frame, sigma_px=1.0)
        inl = list(true_inliers)
        mixed = np.isin(tims.i, inl) != np.isin(tims.j, inl)
        violations = np.count_nonzero(np.abs(tims.values(truth.yaw))[mixed]
                                      > tims.bound[mixed])
        assert violations > 0.8 * np.count_nonzero(mixed)

    def test_inlier_pairs_respect_bound_at_true_yaw(self):
        for seed in range(5):
            frame, truth, true_inliers = aligned_problem(50, 0.6, 1.0, seed=seed)
            tims = build_tims(frame, sigma_px=1.0)
            inl = list(true_inliers)
            both = np.isin(tims.i, inl) & np.isin(tims.j, inl)
            assert np.all(np.abs(tims.values(truth.yaw))[both] <= tims.bound[both])

    def test_rig_inlier_pairs_respect_bound_at_true_yaw(self):
        # four-camera frames: a cross-camera pair's TIM needs its ray-center
        # offset, without which 6 such pairs per event break their bound
        for seed in (6, 8):
            frame, true_cfm, inl = rig_event(seed, 1)
            true_yaw, _ = g.decompose_yaw(true_cfm.rotation)
            tims = build_tims(frame, sigma_px=1.0)
            both = np.isin(tims.i, inl) & np.isin(tims.j, inl)
            cross = frame.camera_ids[tims.i] != frame.camera_ids[tims.j]
            assert np.count_nonzero(both & cross) > 0
            assert np.all(np.abs(tims.values(true_yaw))[both] <= tims.bound[both])

    def test_single_match_rejected(self):
        with pytest.raises(InitializationError):
            build_tims(exact_frame([[1.0, 0.0, 5.0]]))


class TestVoteYaw:
    def test_all_inlier_set_near_true_yaw(self):
        # Oracle: fine brute-force grid at step/100 with the same counting rule
        step = math.radians(0.25)
        truth = YawPose(0.7, np.array([0.5, 0.2, 0.8]))
        rng = np.random.default_rng(4)
        pts = rng.uniform([-4, -4, 3], [4, 4, 9], size=(10, 3))
        tims = build_tims(exact_frame(pts, truth), sigma_px=0.0)
        alpha, count = vote_yaw(tims, step)
        assert abs(wrap_angle(alpha - 0.7)) <= step
        assert count == len(tims)

    def test_consensus_count_matches_fine_grid_oracle(self):
        step = math.radians(0.25)
        for seed in range(6):
            frame, truth, _ = aligned_problem(40, 0.5, 1.0, seed=10 + seed)
            tims = build_tims(frame, sigma_px=1.0)
            alpha, count = vote_yaw(tims, step)
            d1, d2, d3, bounds = tims.d1, tims.d2, tims.d3, tims.bound
            slack = bounds + np.hypot(d1, d2) * (step / 50.0) / 2.0
            grid = np.arange(-math.pi, math.pi, step / 100.0)
            best = 0
            for lo in range(0, len(grid), 4096):
                cs = grid[lo:lo + 4096]
                vals = np.abs(np.outer(d1, np.sin(cs)) + np.outer(d2, np.cos(cs))
                              + d3[:, None])
                best = max(best, int((vals <= slack[:, None]).sum(axis=0).max()))
            assert count == best

    def test_eighty_percent_outliers(self):
        # The vote lands inside the inlier-consensus plateau (its width is set
        # by the recall-safe noise bounds; measured <= 1.6 deg at these seeds,
        # frozen at 2 deg) and every true-inlier TIM is retained.  The tight
        # 0.5 deg guarantee holds after the LS/polish stages, tested under
        # TestInitialize.
        step = math.radians(0.25)
        for seed in (20, 21, 22):
            frame, truth, true_inliers = aligned_problem(100, 0.2, 1.0, seed=seed)
            tims = build_tims(frame, sigma_px=1.0)
            alpha, _ = vote_yaw(tims, step)
            assert abs(wrap_angle(alpha - truth.yaw)) <= math.radians(2.0)
            fine_half = (step / 50.0) / 2.0
            inl = list(true_inliers)
            both = np.isin(tims.i, inl) & np.isin(tims.j, inl)
            pad = tims.bound + np.hypot(tims.d1, tims.d2) * fine_half
            assert np.all(np.abs(tims.values(alpha))[both] <= pad[both])

    def test_single_tim_returns_a_root(self):
        tim = tim_rows((0, 1, 1.0, 0.0, -0.5, 1e-6))  # sin(alpha) = 0.5
        alpha, count = vote_yaw(tim, math.radians(0.25))
        assert count == 1
        assert min(abs(wrap_angle(alpha - math.pi / 6)),
                   abs(wrap_angle(alpha - 5 * math.pi / 6))) < math.radians(0.01)
        # tie broken toward the smallest |alpha|
        assert abs(wrap_angle(alpha - math.pi / 6)) < math.radians(0.01)

    def test_empty_and_bad_step(self):
        with pytest.raises(InitializationError):
            vote_yaw(tim_rows(), math.radians(0.25))
        with pytest.raises(ValueError):
            vote_yaw(tim_rows((0, 1, 1, 0, 0, 1e-3)), 0.0)

    def test_ties_go_to_smallest_abs_yaw_then_negative(self):
        # Table-3 N = 15: 373 fine points tie at 34; the answer is the
        # lexicographic optimum (count, -|a|, -a) of a brute force over the grid
        step = math.radians(0.25)
        frame, *_ = aligned_problem(15, 0.47, 1.0, seed=15)
        tims = build_tims(frame, sigma_px=1.0)
        n_points, fine = grid_of(step)
        slack = tims.bound + np.hypot(tims.d1, tims.d2) * (fine / 2.0)
        counts = direct_counts(tims.d1, tims.d2, tims.d3, slack, n_points, fine)
        grid = _yaw_grid(n_points, fine)
        tied = np.flatnonzero(counts == counts.max())
        oracle = grid[tied[np.lexsort((grid[tied], np.abs(grid[tied])))[0]]]
        alpha, count = vote_yaw(tims, step)
        assert (alpha, count) == (oracle, counts.max())
        assert count == 34 and len(tied) > 1
        assert abs(alpha - 0.3135) < 5e-5
        # two constraints whose feasible sets mirror each other: +a and -a tie
        a = 0.4
        pair = tim_rows((0, 1, 1.0, 0.0, -math.sin(a), 1e-3),
                        (2, 3, 1.0, 0.0, math.sin(a), 1e-3))
        alpha, count = vote_yaw(pair, step)
        assert count == 1
        assert -a - math.radians(0.5) < alpha < 0.0
        slack = pair.bound + np.hypot(pair.d1, pair.d2) * (fine / 2.0)
        mirror = int(round(-alpha / fine + n_points / 2.0))
        assert grid[mirror] == -alpha
        assert _arc_counts(pair.d1, pair.d2, pair.d3, slack, n_points, fine)[mirror] == 1

    def test_grid_is_minus_pi_plus_k_fine(self):
        for step, refine in ((math.radians(0.25), 50), (math.radians(7.0), 7)):
            n_points, fine = grid_of(step, refine)
            grid = _yaw_grid(n_points, fine)
            assert np.abs(grid - (-math.pi + np.arange(n_points) * fine)).max() < 1e-14
            assert np.array_equal(grid[1:][::-1], -grid[1:])


class TestArcCounts:
    @staticmethod
    def constraint_set(rng, n_points, fine):
        """Random constraints plus every boundary case of the arc form."""
        k = 300
        d1, d2 = rng.normal(size=k), rng.normal(size=k)
        d3 = rng.normal(scale=0.7, size=k)
        slack = np.abs(rng.normal(scale=0.1, size=k))
        grid = _yaw_grid(n_points, fine)
        rows = [
            (0.0, 0.0, 0.1, 0.2),             # L = 0, feasible everywhere
            (0.0, 0.0, 0.3, 0.2),             # L = 0, feasible nowhere
            (0.0, 0.0, -0.2, 0.2),            # L = 0, on the bound
            (1.0, 0.0, 0.0, 2.0),             # full circle
            (0.6, -0.8, 0.1, 0.9),            # full circle, barely
            (1.0, 0.0, -2.0, 0.5),            # empty: lo > 1
            (0.0, 1.0, 2.0, 0.5),             # empty: hi < -1
            (1.0, 0.0, -0.75, 0.25),          # tangent: hi == 1 exactly
            (0.0, -1.0, 0.75, 0.25),          # tangent: lo == -1 exactly
            (1.0, 0.0, 0.0, 1.0),             # both tangents: full circle
            (1.0, 0.0, 0.0, 0.2),             # second arc crosses +-pi
            (0.0, 1.0, 0.9, 0.2),             # arc centred on +-pi
        ]
        # zero-width arcs exactly on grid points
        for idx in rng.integers(0, n_points, size=20):
            rows.append((1.0, 0.0, -math.sin(grid[idx]), 0.0))
        # near-tangent arcs at random phases, just inside and outside
        for eps in (-1e-12, 0.0, 1e-12, 1e-9):
            phase = rng.uniform(-math.pi, math.pi)
            c1, c2 = math.cos(phase), math.sin(phase)
            rows.append((c1, c2, -(math.hypot(c1, c2) * (1.0 + eps) - 0.05), 0.05))
        extra = np.array(rows)
        return (np.concatenate([d1, extra[:, 0]]), np.concatenate([d2, extra[:, 1]]),
                np.concatenate([d3, extra[:, 2]]),
                np.concatenate([slack, extra[:, 3]]))

    def test_counts_equal_direct_evaluation_at_every_point(self):
        rng = np.random.default_rng(11)
        for step, refine in ((math.radians(0.25), 50), (math.radians(7.0), 7)):
            n_points, fine = grid_of(step, refine)
            for _ in range(3):
                d1, d2, d3, slack = self.constraint_set(rng, n_points, fine)
                got = _arc_counts(d1, d2, d3, slack, n_points, fine)
                assert np.array_equal(got, direct_counts(d1, d2, d3, slack,
                                                         n_points, fine))

    def test_counts_equal_direct_evaluation_on_real_tims(self):
        step = math.radians(0.25)
        n_points, fine = grid_of(step)
        for n, w, seed in ((15, 0.47, 15), (60, 0.3, 9003), (80, 0.4, 80)):
            frame, *_ = aligned_problem(n, w, 1.0, seed=seed)
            tims = build_tims(frame, sigma_px=1.0)
            slack = tims.bound + np.hypot(tims.d1, tims.d2) * (fine / 2.0)
            got = _arc_counts(tims.d1, tims.d2, tims.d3, slack, n_points, fine)
            assert np.array_equal(got, direct_counts(tims.d1, tims.d2, tims.d3, slack,
                                                     n_points, fine))

    def test_vote_memory_is_linear(self):
        # N = 400 at 85 % outliers: 79,800 TIMs; dense grid products would
        # need hundreds of MB
        frame, *_ = aligned_problem(400, 0.15, 1.0, seed=400)
        tims = build_tims(frame, sigma_px=1.0)
        tracemalloc.start()
        try:
            vote_yaw(tims, math.radians(0.25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tims) == 79800
        assert peak < 64 * 2 ** 20


class TestSolveTranslation:
    def test_three_exact_inliers(self):
        truth = YawPose(-0.3, np.array([1.5, -0.8, 0.4]))
        pts = np.array([[2.0, 1.0, 6.0], [-1.5, 0.5, 4.0], [0.5, -2.0, 8.0]])
        frame = exact_frame(pts, truth)
        t_hat, clique = solve_translation(frame, build_tims(frame), [0, 1, 2], truth.yaw,
                                          1e-6)
        assert sorted(clique) == [0, 1, 2]
        assert np.linalg.norm(t_hat - truth.translation) < 1e-8

    def test_ten_inliers_ten_outliers_matches_subset_oracle(self):
        # Oracle: brute-force enumeration of all subsets (bitmask)
        for seed in (30, 31, 32):
            frame, truth, true_inliers = aligned_problem(20, 0.5, 1.0, seed=seed)
            cfg = InitConfig(sigma_px=1.0)
            idx = list(range(20))
            depths = _provisional_depths(frame, idx, truth.yaw, truth.translation)
            bounds = np.full(20, cfg.translation_bound())
            tims = build_tims(frame)
            adjacency = compatibility_graph(frame, tims, idx, truth.yaw, depths, bounds,
                                            slack_px=1.0)
            t_hat, clique = solve_translation(frame, tims, idx, truth.yaw,
                                              cfg.translation_bound(),
                                              slack_px=1.0, depths=depths)
            oracle_size, oracle_sets = brute_force_max_cliques(adjacency)
            assert len(clique) == oracle_size
            assert set(clique) in oracle_sets
            assert true_inliers <= set(clique)

    def test_all_mutually_incompatible(self):
        # wildly inconsistent correspondences: every pair infeasible
        rng = np.random.default_rng(5)
        rays, points = [], []
        for _ in range(4):
            ray = rng.normal(size=3)
            ray[2] = abs(ray[2]) + 0.5
            rays.append(ray / np.linalg.norm(ray))
            points.append(rng.uniform([-20, -20, 2], [20, 20, 30]))
        frame = exact_frame(points, rays=rays)
        _, clique = solve_translation(frame, build_tims(frame), [0, 1, 2, 3], 0.0, 1e-9)
        assert clique == [0]  # four one-match cliques fit exactly: the first wins

    def test_single_match_lies_on_its_ray(self):
        frame, truth, _ = aligned_problem(3, 1.0, 0.0, seed=6)
        t_hat, clique = solve_translation(frame, build_tims(frame), [2], truth.yaw, 1.0)
        assert clique == [2]
        x = YawPose(truth.yaw, t_hat).apply(frame.points[2])
        assert np.linalg.norm(np.cross(x, frame.rays[2])) < 1e-9
        assert abs(t_hat @ frame.rays[2]) < 1e-9  # min norm: nothing along the ray

    def test_conditioning_rule_matches_eigenvalues(self):
        # random rays, plus pairs at angles around the 1 - |c| = 2e-4 edge
        # (0.02 rad) and antiparallel ones
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4000, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        side = np.cross(a, rng.normal(size=(4000, 3)))
        side /= np.linalg.norm(side, axis=1, keepdims=True)
        angle = np.concatenate([rng.uniform(0.0, math.pi, 1000),
                                rng.uniform(0.015, 0.025, 2000),
                                math.pi - rng.uniform(0.015, 0.025, 1000)])
        b = np.cos(angle)[:, None] * a + np.sin(angle)[:, None] * side
        normal = 2.0 * np.eye(3) - a[:, :, None] * a[:, None, :] - b[:, :, None] * b[:, None, :]
        eig = np.linalg.eigvalsh(normal)
        expected = eig[:, 0] > 1e-4 * eig[:, -1]
        np.testing.assert_array_equal(_well_conditioned(np.einsum("pi,pi->p", a, b)),
                                      expected)
        assert 0 < expected[1000:].sum() < 3000

    def test_empty_input(self):
        frame, *_ = aligned_problem(5, 1.0, 0.0, seed=6)
        with pytest.raises(InitializationError):
            solve_translation(frame, build_tims(frame), [], 0.0, 1.0)


class TestPairResiduals:
    """The closed-form pair residual against the translation fits it replaced."""

    def test_exact_pairs_vanish_and_match_fit(self):
        rng = np.random.default_rng(12)
        truth = YawPose(-0.6, np.array([0.4, 1.2, -0.3]))
        points = rng.uniform([-4, -4, 3], [4, 4, 12], size=(10, 3))
        for centers in (None, rng.normal(0.0, 0.3, (10, 3))):  # one camera, then a rig
            frame = exact_frame(points, truth, centers=centers)
            idx = np.arange(10)
            ii, jj, rss = _pair_residuals(frame, build_tims(frame), idx, truth.yaw,
                                          np.ones(10))
            np.testing.assert_array_equal(np.column_stack([ii, jj]), all_pairs(10))
            assert rss.max() < 1e-9
            _, fit = fit_translations(frame, all_pairs(10), truth.yaw)
            assert np.abs(rss - fit).max() < 1e-9

    def test_weighted_noisy_pairs_match_fit_and_basis_rows(self):
        # rig centres, a yaw off truth and per-match pixel weights
        frame, truth = noisy_frame(30, 13, centers=True)
        rng = np.random.default_rng(14)
        idx = np.sort(rng.choice(30, 24, replace=False))
        w = _pixel_weights(frame, idx, rng.uniform(2.0, 15.0, 24))
        yaw = truth.yaw + 0.003
        ii, jj, rss = _pair_residuals(frame, build_tims(frame), idx, yaw, w)
        pairs = np.column_stack([idx[ii], idx[jj]])
        _, fit = fit_translations(frame, pairs, yaw, np.column_stack([w[ii], w[jj]]))
        np.testing.assert_allclose(rss, fit, rtol=1e-9, atol=1e-9)
        for p in range(0, len(pairs), 25):
            _, old = basis_fit(frame, pairs[p], yaw, [w[ii[p]], w[jj[p]]])
            assert rss[p] == pytest.approx(old, rel=1e-9, abs=1e-9)

    def test_subset_in_any_order(self):
        # pairs of an unsorted subset come back at their positions in idx
        frame, truth = noisy_frame(12, 15)
        idx = np.array([7, 2, 11, 4, 0])
        w = np.linspace(1.0, 3.0, 5)
        ii, jj, rss = _pair_residuals(frame, build_tims(frame), idx, truth.yaw, w)
        assert len(rss) == 10
        _, fit = fit_translations(frame, np.column_stack([idx[ii], idx[jj]]), truth.yaw,
                                  np.column_stack([w[ii], w[jj]]))
        np.testing.assert_allclose(rss, fit, rtol=1e-9, atol=1e-9)

    def test_parallel_rays(self):
        # exactly parallel, axis-aligned and tilted, and antiparallel: the
        # parallel-line distance
        ray = np.array([0.0, 0.0, 1.0])
        tilted = np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0])
        for r0, r1 in ((ray, ray), (tilted, tilted), (tilted, -tilted)):
            frame = exact_frame([[1.0, 2.0, 5.0], [1.5, 1.0, 9.0]], rays=[r0, r1])
            tims = build_tims(frame)
            assert tims.sin_angle[0] == 0.0
            w = np.array([4.0, 9.0])
            _, _, rss = _pair_residuals(frame, tims, np.arange(2), 0.4, w)
            _, fit = fit_translations(frame, [[0, 1]], 0.4, w[None, :])
            _, old = basis_fit(frame, [0, 1], 0.4, w)
            assert rss[0] == pytest.approx(fit[0], rel=1e-9)
            assert rss[0] == pytest.approx(old, rel=1e-9)

    def test_rays_a_milliradian_apart(self):
        frame = line_pair_frame(1e-3, 0.7)
        _, _, rss = _pair_residuals(frame, build_tims(frame), np.arange(2), 0.0,
                                    np.ones(2))
        _, fit = fit_translations(frame, [[0, 1]], 0.0)
        _, old = basis_fit(frame, [0, 1], 0.0)
        assert rss[0] == pytest.approx(0.7 / math.sqrt(2.0), rel=1e-12)
        assert rss[0] == pytest.approx(fit[0], rel=1e-9)
        assert rss[0] == pytest.approx(old, rel=1e-9)

    def test_near_parallel_where_the_fit_ridge_dominates(self):
        # 1e-8 and 1e-9 rad apart, the pair's small eigenvalue (theta^2 / 2)
        # is far below fit_translations' ridge of 1e-15 per unit weight, so
        # the ridge holds t near the origin and the fit's residual overshoots
        # the true minimum; the closed form stays within 1e-6 (relative) of
        # the constructed line distance, and never above the fit
        for theta in (1e-8, 1e-9):
            frame = line_pair_frame(theta, 0.7)
            _, _, rss = _pair_residuals(frame, build_tims(frame), np.arange(2), 0.0,
                                        np.ones(2))
            _, fit = fit_translations(frame, [[0, 1]], 0.0)
            assert rss[0] == pytest.approx(0.7 / math.sqrt(2.0), rel=1e-6)
            assert fit[0] > rss[0] * (1.0 + 1e-3)


class TestPairMidpoints:
    def test_match_unweighted_fit_on_well_conditioned_pairs(self):
        for centers in (False, True):
            frame, truth = noisy_frame(40, 16, centers=centers)
            idx = np.arange(3, 40)
            yaw = truth.yaw - 0.002
            pairs = idx[all_pairs(len(idx))]
            cos = np.einsum("pi,pi->p", frame.rays[pairs[:, 0]], frame.rays[pairs[:, 1]])
            good = _well_conditioned(cos)
            ts = _pair_midpoints(frame, build_tims(frame), idx, yaw)
            assert len(ts) == good.sum() > 0
            fit, _ = fit_translations(frame, pairs[good], yaw)
            assert np.abs(ts - fit).max() < 1e-9 * (1.0 + np.abs(fit).max())

    def test_ill_conditioned_pairs_are_dropped(self):
        ray = np.array([0.1, 0.2, 1.0]) / np.linalg.norm([0.1, 0.2, 1.0])
        other = np.array([-0.3, 0.1, 1.0]) / np.linalg.norm([-0.3, 0.1, 1.0])
        frame = exact_frame([[1.0, 2.0, 5.0], [1.5, 1.0, 9.0], [0.0, 0.0, 4.0]],
                            rays=[ray, ray, other])
        ts = _pair_midpoints(frame, build_tims(frame), np.arange(3), 0.2)
        fit, _ = fit_translations(frame, [[0, 2], [1, 2]], 0.2)
        assert np.abs(ts - fit).max() < 1e-9 * (1.0 + np.abs(fit).max())


class TestMaxClique:
    def test_hand_graph(self):
        # triangle 0-1-2 plus pendant 3
        adj = np.zeros((4, 4), dtype=bool)
        for a, b in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            adj[a, b] = adj[b, a] = True
        assert max_clique(adj) == [0, 1, 2]

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            adj = rng.uniform(size=(n, n)) < 0.4
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            size, winners = brute_force_max_cliques(adj)
            cliques = max_cliques(adj)
            assert len(cliques[0]) == size
            for c in cliques:
                assert set(c) in winners

    def test_empty_graph(self):
        assert max_clique(np.zeros((0, 0), dtype=bool)) == []
        assert max_clique(np.zeros((3, 3), dtype=bool)) in ([0], [1], [2])

    def test_bitset_search_equals_set_oracle(self):
        # identical lists in identical order, including where cap truncates
        # the ties and where the diagonal is set
        rng = np.random.default_rng(17)
        truncated = 0
        for trial in range(120):
            n = int(rng.integers(1, 70))
            adj = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.9), 1)
            adj = adj | adj.T
            if trial % 4 == 0:
                np.fill_diagonal(adj, True)
            for cap in (1, 3, 512):
                got = max_cliques(adj, cap=cap)
                assert got == set_max_cliques(adj, cap=cap)
                truncated += len(got) == cap < len(set_max_cliques(adj))
        assert truncated > 20

    def test_bitset_search_equals_set_oracle_on_initializer_graphs(self):
        frame, truth, _ = aligned_problem(120, 0.3, 1.0, seed=18)
        idx = np.arange(120)
        depths = _provisional_depths(frame, idx, truth.yaw, truth.translation)
        tims = build_tims(frame)
        for slack in (0.0, 3.0, 30.0):
            adj = compatibility_graph(frame, tims, idx, truth.yaw, depths,
                                      np.full(120, 3.0), slack)
            assert max_cliques(adj) == set_max_cliques(adj)


class TestInitialize:
    def test_repeats_are_bit_identical(self):
        frame, truth, _ = aligned_problem(26, 0.82, 1.0, seed=26)
        results = [initialize_frame(frame, InitConfig(sigma_px=1.0)) for _ in range(20)]
        first = results[0]
        for r in results[1:]:
            assert r.refined_pose.yaw == first.refined_pose.yaw
            assert np.array_equal(r.refined_pose.translation,
                                  first.refined_pose.translation)
            assert r.translation_inliers == first.translation_inliers

    def test_exact_inliers_polish_to_machine_precision(self):
        frame, truth, _ = aligned_problem(20, 1.0, 0.0, seed=8)
        res = initialize_frame(frame, InitConfig(sigma_px=0.0))
        assert abs(wrap_angle(res.refined_pose.yaw - truth.yaw)) < 1e-6
        assert np.linalg.norm(res.refined_pose.translation - truth.translation) < 1e-6

    def test_large_low_inlier_case_within_budget(self):
        frame, truth, _ = aligned_problem(150, 0.4, 1.0, seed=150)
        start = time.perf_counter()
        res = initialize_frame(frame, InitConfig(sigma_px=1.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert abs(wrap_angle(res.refined_pose.yaw - truth.yaw)) < math.radians(0.5)
        assert np.linalg.norm(res.refined_pose.translation - truth.translation) < 0.05

    def test_inlier_sets_nested(self):
        frame, truth, _ = aligned_problem(60, 0.4, 1.0, seed=9)
        res = initialize_frame(frame, InitConfig(sigma_px=1.0))
        assert set(res.translation_inliers) <= set(res.yaw_inliers)
        assert res.wall_time > 0

    def test_recall_smoke(self):
        # the full 150-instance sweep runs in the acceptance suite
        for seed in (40, 41, 42, 43):
            frame, truth, true_inliers = aligned_problem(60, 0.3, 1.0, seed=seed)
            res = initialize_frame(frame, InitConfig(sigma_px=1.0))
            assert true_inliers <= set(res.translation_inliers)

    def test_too_few_correspondences(self):
        with pytest.raises(InitializationError):
            initialize_frame(exact_frame([[1.0, 0.0, 5.0]]))

    def test_pair_blocks_do_not_change_results(self, monkeypatch):
        # the pair-wise stages run on TIM rows in blocks; 120 matches make
        # 7,140 pairs, one block by default and 74 blocks of 97 here
        frame, truth, _ = aligned_problem(120, 0.3, 1.0, seed=19)
        idx = np.arange(3, 120)

        def stages():
            tims = build_tims(frame)
            depths = initializer._median_pair_depths(frame, tims, idx, truth.yaw)
            return (tims, vote_yaw(tims, math.radians(0.25)), depths,
                    compatibility_graph(frame, tims, idx, truth.yaw, depths,
                                        np.full(len(idx), 3.0), 1.0),
                    initialize_frame(frame))

        whole = stages()
        monkeypatch.setattr(initializer, "_PAIR_BLOCK", 97)
        blocked = stages()
        for name in ("i", "j", "d1", "d2", "d3", "bound", "sin_angle"):
            np.testing.assert_array_equal(getattr(blocked[0], name), getattr(whole[0], name))
        assert blocked[1] == whole[1]
        np.testing.assert_array_equal(blocked[2], whole[2])
        np.testing.assert_array_equal(blocked[3], whole[3])
        a, b = blocked[4], whole[4]
        assert (a.yaw_inliers, a.translation_inliers) == (b.yaw_inliers, b.translation_inliers)
        assert a.refined_pose.yaw == b.refined_pose.yaw
        np.testing.assert_array_equal(a.refined_pose.translation, b.refined_pose.translation)
