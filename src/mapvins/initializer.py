"""Deterministic, globally optimal 4DoF initialization.

Pipeline: build translation-invariant measurements (TIMs) from all
correspondence pairs as arrays, count yaw votes on a fine grid from each
constraint's closed form (it holds on at most two yaw arcs, so counting is
interval stabbing in O(K + grid), with per-constraint slack covering the grid
spacing so no true inlier can be missed, and the count exact at every grid
point), then solve the 3DoF translation by exact maximum-clique search over a
pairwise compatibility graph, and finally polish with nonlinear least squares
on the surviving inliers.  Every translation solve of the last stages (the
provisional pair solves, the pair compatibility test, the tied cliques) is
one batched call of :func:`mapvins.solvers.fit_translations`.

Every stage is a pure deterministic function of its inputs: repeated calls
return bit-identical results, which is the property that distinguishes this
module from the RANSAC path.

Geometry of a TIM (see :mod:`mapvins.solvers`, which computes it for both
RANSAC and this module in :func:`mapvins.solvers.pair_tims`): match k's ray
leaves center c_k along r_k (c_k = 0 for one camera, the camera's position in
the solving frame on a rig).  A pair (i, j) is consistent with yaw alpha iff
the rotated baseline minus the center offset is coplanar with the two rays,
i.e.

    d(alpha) = (r_i x r_j) . (R(alpha) @ (F_i - F_j) - (c_i - c_j)) = 0

which expands to ``d1 sin(alpha) + d2 cos(alpha) + d3`` with coefficients
from the correspondence geometry alone.  Its noise bound propagates pixel
noise through both rays, the center offset included.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from mapvins.cameras import CameraModel
from mapvins.geometry import Rotation, YawPose, wrap_angle
from mapvins.sim import Correspondence
from mapvins.solvers import (
    MatchingFrame,
    align_correspondences,
    fit_translations,
    pair_tims,
    refine_yaw_pose,
)


class InitializationError(RuntimeError):
    """Initialization could not reach the configured consensus floor."""


@dataclass
class InitConfig:
    grid_step: float = math.radians(0.25)
    refine_factor: int = 50
    sigma_px: float = 1.0
    tim_bound_scale: float = 3.0
    translation_bound_px: float | None = None   # default: 3 sigma + floor
    min_consensus: int = 1
    polish: bool = True

    def translation_bound(self) -> float:
        if self.translation_bound_px is not None:
            return self.translation_bound_px
        return 3.0 * self.sigma_px + 1e-6


@dataclass(frozen=True)
class InitResult:
    pose: YawPose                      # consensus-stage estimate
    refined_pose: YawPose              # after nonlinear polish
    yaw_inliers: tuple[int, ...]       # correspondence indices kept by yaw voting
    translation_inliers: tuple[int, ...]  # subset surviving the clique stage
    consensus: int
    wall_time: float


@dataclass(frozen=True, eq=False)
class TimArrays:
    """All translation-invariant yaw constraints of a frame, one row per pair.

    Row k ties matches ``i[k] < j[k]``: yaw alpha is consistent with the pair
    when ``|d1 sin(alpha) + d2 cos(alpha) + d3| <= bound``.
    """

    i: np.ndarray
    j: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    bound: np.ndarray

    def __len__(self) -> int:
        return len(self.d1)

    def values(self, alpha: float) -> np.ndarray:
        """d(alpha) of every constraint."""
        return self.d1 * math.sin(alpha) + self.d2 * math.cos(alpha) + self.d3


def build_tims(frame: MatchingFrame, sigma_px: float = 1.0,
               bound_scale: float = 3.0) -> TimArrays:
    """All K(K-1)/2 pairwise yaw constraints with propagated noise bounds."""
    n = len(frame)
    if n < 2:
        raise InitializationError("need at least 2 correspondences")
    # per-match ray sensitivity to pixel noise (conservative spectral bound)
    intr = frame.intrinsics
    v = np.column_stack([(frame.pixels - intr[:, 2:]) / intr[:, :2], np.ones(n)])
    jac = 1.0 / (np.minimum(intr[:, 0], intr[:, 1]) * np.linalg.norm(v, axis=1))

    ii, jj = np.triu_indices(n, k=1)
    ray_i, ray_j = frame.rays[ii], frame.rays[jj]
    delta = frame.points[ii] - frame.points[jj]
    center_delta = frame.centers[ii] - frame.centers[jj]
    _, d1, d2, d3 = pair_tims(ray_i, ray_j, delta, center_delta)

    # d depends on each ray through (other_ray x w(alpha)), w(alpha) =
    # R(alpha) delta - (c_i - c_j); bound the dual vector norm over alpha by
    # |r x w0| + horizontal radius, w0 the yaw-free part of w, then combine
    # the two independent pixel noises in quadrature
    w0 = np.column_stack([np.zeros(len(ii)), np.zeros(len(ii)), delta[:, 2]]) - center_delta
    rho = np.linalg.norm(delta[:, :2], axis=1)
    g_i = np.linalg.norm(np.cross(ray_j, w0), axis=1) + rho
    g_j = np.linalg.norm(np.cross(ray_i, w0), axis=1) + rho
    sensitivity = np.sqrt((g_i * jac[ii]) ** 2 + (g_j * jac[jj]) ** 2)
    floor = 1e-9 * (1.0 + np.linalg.norm(delta, axis=1))
    bounds = bound_scale * sigma_px * math.sqrt(2.0) * sensitivity + floor
    return TimArrays(ii, jj, d1, d2, d3, bounds)


def _yaw_grid(n_points: int, fine: float) -> np.ndarray:
    """Grid a_k = -pi + k * fine, k in [0, n_points), with a_{M-k} = -a_k exactly."""
    return (np.arange(n_points) - n_points / 2.0) * fine


@functools.lru_cache(maxsize=4)
def _grid_tables(n_points: int, fine: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin and cos of the grid at unwrapped indices k in [-1, 2M + 1].

    Entry k + 1 holds index k, so callers index past both ends without a wrap.
    """
    grid = _yaw_grid(n_points, fine)
    tables = tuple(np.concatenate([v[-1:], v, v, v[:2]]) for v in (np.sin(grid), np.cos(grid)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _arc_counts(d1, d2, d3, slack, n_points: int, fine: float) -> np.ndarray:
    """Per grid point a_k, the number of constraints with |d(a_k)| <= slack.

    With L = hypot(d1, d2) > 0 and phi = atan2(d2, d1), d(a) = L sin(a + phi)
    + d3, so a constraint holds on theta = a + phi in [asin lo, asin hi] and
    [pi - asin hi, pi - asin lo], where lo, hi = (-+slack - d3) / L clipped to
    [-1, 1].  Full circles, empty sets and arcs that touch at a tangent all
    take this form.  Each arc becomes a range of grid indices (wrapping past
    +-pi), counted with one difference array in O(K + M).  Rounding moves an
    arc end by far less than the grid spacing, so across at most one grid
    point: each end is set by testing the two grid points beside it
    directly, and where the two arcs of one constraint then overlap the
    second is trimmed.  Every count equals the direct test
    ``|d1 sin a_k + d2 cos a_k + d3| <= slack``.  A constraint with L = 0
    holds everywhere or nowhere.
    """
    sin_t, cos_t = _grid_tables(n_points, fine)
    lips = np.hypot(d1, d2)
    flat = lips == 0.0
    counts = np.full(n_points, np.count_nonzero(np.abs(d3[flat]) <= slack[flat]))
    live = ~flat
    d1, d2, d3, slack, lips = d1[live], d2[live], d3[live], slack[live], lips[live]

    def holds(k):
        return np.abs(d1 * sin_t[k + 1] + d2 * cos_t[k + 1] + d3) <= slack

    def first_in(k):   # start of a range whose computed first point is k
        return np.where(holds(k - 1), k - 1, np.where(holds(k), k, k + 1))

    def last_in(k):    # end of a range whose computed last point is k
        return np.where(holds(k + 1), k + 1, np.where(holds(k), k, k - 1))

    asin_lo = np.arcsin(np.clip((-slack - d3) / lips, -1.0, 1.0))
    asin_hi = np.arcsin(np.clip((slack - d3) / lips, -1.0, 1.0))
    # arc ends in fractional grid index u = (theta - phi) / fine + M / 2
    offset = n_points / 2.0 - np.arctan2(d2, d1) / fine
    s1 = np.ceil(asin_lo / fine + offset).astype(np.int64)
    shift = s1 // n_points * n_points
    s1 -= shift
    e1 = np.floor(asin_hi / fine + offset).astype(np.int64) - shift
    s2 = np.ceil((math.pi - asin_hi) / fine + offset).astype(np.int64) - shift
    e2 = np.floor((math.pi - asin_lo) / fine + offset).astype(np.int64) - shift
    s1, e1, s2, e2 = first_in(s1), last_in(e1), first_in(s2), last_in(e2)
    shift = s1 // n_points * n_points   # s1 in [0, M), every index below 2M
    s1, e1, s2, e2 = s1 - shift, e1 - shift, s2 - shift, e2 - shift
    s2 = np.maximum(s2, e1 + 1)                 # the arcs touch near theta = pi/2
    e2 = np.minimum(e2, s1 + n_points - 1)      # and near theta = -pi/2

    f1, f2 = e1 >= s1, e2 >= s2
    starts = np.concatenate([s1[f1], s2[f2]])
    stops = np.concatenate([e1[f1], e2[f2]]) + 1
    high = starts >= n_points           # second arcs wholly past +pi
    starts[high] -= n_points
    stops[high] -= n_points
    wraps = stops > n_points            # ranges that run on from +pi to -pi
    stops[wraps] -= n_points
    diff = (np.bincount(starts, minlength=n_points + 1)
            - np.bincount(stops, minlength=n_points + 1))
    diff[0] += np.count_nonzero(wraps)
    return counts + np.cumsum(diff[:n_points])


def vote_yaw(tims: TimArrays, step: float,
             refine_factor: int = 50) -> tuple[float, int]:
    """Globally optimal yaw over a fine grid on [-pi, pi).

    The grid has M = n_cells * refine_factor points a_k = -pi + k * fine,
    k in [0, M), with n_cells = max(8, ceil(2 pi / step)) and fine = 2 pi / M.
    A constraint votes for a_k when ``|d(a_k)| <= bound + hypot(d1, d2) *
    fine / 2``: the slack covers half the spacing, so a constraint whose
    feasible yaw lies between two grid points is never missed.  Every grid
    count is exact (see :func:`_arc_counts`).  Returns the yaw with the
    largest count and that count; ties go to the smallest |a_k|, then to the
    smallest a_k.  Deterministic, O(K + M) in time and memory.
    """
    if step <= 0:
        raise ValueError("grid step must be positive")
    if len(tims) == 0:
        raise InitializationError("empty constraint set")
    n_cells = max(8, int(math.ceil(2.0 * math.pi / step)))
    fine = 2.0 * math.pi / n_cells / refine_factor
    n_points = n_cells * refine_factor
    slack = tims.bound + np.hypot(tims.d1, tims.d2) * (fine / 2.0)
    counts = _arc_counts(tims.d1, tims.d2, tims.d3, slack, n_points, fine)
    tied = np.flatnonzero(counts == counts.max())
    best = int(tied[np.argmin(np.abs(2 * tied - n_points))])
    return float((best - n_points / 2.0) * fine), int(counts[best])


def _least_squares_yaw(d1, d2, d3, alpha0: float) -> float:
    """Newton refinement of sum d(alpha)^2 over the given constraints."""
    alpha = alpha0
    for _ in range(8):
        s, c = math.sin(alpha), math.cos(alpha)
        r = d1 * s + d2 * c + d3
        dr = d1 * c - d2 * s
        g = 2.0 * float(r @ dr)
        h = 2.0 * float(dr @ dr - r @ (d1 * s + d2 * c))
        if h <= 0:
            break
        step = g / h
        alpha = wrap_angle(alpha - step)
        if abs(step) < 1e-15:
            break
    return alpha


def _provisional_depths(frame: MatchingFrame, idx, alpha: float,
                        translation) -> np.ndarray:
    """Depth of each match along its camera's optical axis at a trial pose."""
    return np.maximum(frame.camera_points(alpha, translation, idx)[:, 2], 0.5)


def _pixel_weights(frame: MatchingFrame, idx, depths: np.ndarray) -> np.ndarray:
    """Weights (f / depth)^2 that turn squared ray distances into squared pixels."""
    return (0.5 * (frame.intrinsics[idx, 0] + frame.intrinsics[idx, 1]) / depths) ** 2


def compatibility_graph(frame: MatchingFrame, idx, alpha: float,
                        depths: np.ndarray, bounds_px: np.ndarray,
                        slack_px: float) -> np.ndarray:
    """Boolean adjacency over ``idx`` for the translation consensus stage.

    A pair is compatible when the residual of its joint translation fit,
    with ray distances weighted into pixels by f/depth
    (:func:`mapvins.solvers.fit_translations`), stays within the stacked
    pixel bounds.  If a common translation satisfying both cones exists, the
    minimum weighted residual cannot exceed sqrt(b_i^2 + b_j^2) up to
    perspective linearization error, which a factor of 1.5 and ``slack_px``
    cover; this keeps true inlier pairs adjacent (recall safety).  Near-parallel
    (ill-conditioned) pairs come out with small residuals and are adjacent,
    which matches the geometry: their feasible translation set is huge.
    """
    idx = np.asarray(idx, dtype=int)
    m = len(idx)
    adjacency = np.zeros((m, m), dtype=bool)
    if m < 2:
        return adjacency
    ii, jj = np.triu_indices(m, k=1)
    w = _pixel_weights(frame, idx, depths)
    _, rss = fit_translations(frame, np.column_stack([idx[ii], idx[jj]]), alpha,
                              np.column_stack([w[ii], w[jj]]))
    ok = rss <= 1.5 * np.hypot(bounds_px[ii], bounds_px[jj]) + slack_px
    adjacency[ii[ok], jj[ok]] = True
    adjacency |= adjacency.T
    return adjacency


def max_cliques(adjacency: np.ndarray, cap: int = 512) -> list[list[int]]:
    """All maximum cliques (up to ``cap`` ties) via branch and bound.

    Greedy-coloring bounds prune the search; ties at the maximum size are
    collected so the caller can break them on model quality.  Deterministic:
    vertices are processed in a fixed degeneracy-style order.
    """
    n = len(adjacency)
    if n == 0:
        return [[]]
    adj = [set(np.flatnonzero(adjacency[v])) - {v} for v in range(n)]
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    best_size = 0
    found: list[list[int]] = []

    def greedy_color(cands: list[int]) -> dict[int, int]:
        colors: list[set[int]] = []
        assigned = {}
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

    def expand(clique: list[int], cands: list[int]):
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
    return found


def solve_translation(frame: MatchingFrame, indices, alpha: float,
                      bound_px: float, slack_px: float = 0.0,
                      depths: np.ndarray | None = None
                      ) -> tuple[np.ndarray, list[int]]:
    """Consensus translation at fixed yaw via exact maximum-clique search.

    Two correspondences are adjacent iff a common translation can satisfy
    both of their reprojection bounds (see :func:`compatibility_graph`); the
    returned inlier set is a maximum clique of that graph, and the
    translation is the weighted least-squares fit over the clique.  Tied
    cliques all have the maximum size, so one batched fit scores them; the
    smallest residual wins, then the first clique in sorted order.
    ``depths`` weight residuals into pixel units; when absent, a provisional
    translation (coordinate-wise median of well-conditioned pair solutions)
    supplies them.  A single match gets the minimum-norm translation onto
    its ray.
    """
    idx = np.asarray(list(indices), dtype=int)
    if len(idx) == 0:
        raise InitializationError("empty correspondence set for translation")
    if depths is None:
        depths = _median_pair_depths(frame, idx, alpha)
    adjacency = compatibility_graph(frame, idx, alpha, depths,
                                    np.full(len(idx), bound_px), slack_px)
    cliques = np.array(max_cliques(adjacency))          # (ties, clique size)
    w = _pixel_weights(frame, idx, depths)
    ts, rss = fit_translations(frame, idx[cliques], alpha, w[cliques])
    best = min(range(len(cliques)), key=lambda c: (rss[c], cliques[c].tolist()))
    return ts[best], idx[cliques[best]].tolist()


def _well_conditioned(rays_i: np.ndarray, rays_j: np.ndarray) -> np.ndarray:
    """Pairs of unit rays whose translation fit is well conditioned.

    A pair's normal matrix ``2I - r_i r_i^T - r_j r_j^T`` has eigenvalues 2
    and 1 -+ |r_i . r_j|: the smallest is above 1e-4 times the largest iff
    ``1 - |r_i . r_j| > 2e-4``.
    """
    return 1.0 - np.abs(np.einsum("pi,pi->p", rays_i, rays_j)) > 2e-4


def _median_pair_depths(frame: MatchingFrame, idx: np.ndarray, alpha: float) -> np.ndarray:
    """Provisional depths from the median of well-conditioned pair solves."""
    ii, jj = np.triu_indices(len(idx), k=1)
    good = _well_conditioned(frame.rays[idx[ii]], frame.rays[idx[jj]])
    if good.any():
        ts, _ = fit_translations(frame, np.column_stack([idx[ii[good]], idx[jj[good]]]),
                                 alpha)
        t_prov = np.median(ts, axis=0)
    else:
        t_prov = np.zeros(3)
    return _provisional_depths(frame, idx, alpha, t_prov)


def initialize_frame(frame: MatchingFrame, config: InitConfig | None = None) -> InitResult:
    """Run the full deterministic pipeline on prepared matches."""
    config = config or InitConfig()
    t0 = time.perf_counter()
    tims = build_tims(frame, config.sigma_px, config.tim_bound_scale)
    alpha_fine, consensus = vote_yaw(tims, config.grid_step, config.refine_factor)
    if consensus < config.min_consensus:
        raise InitializationError(
            f"yaw consensus {consensus} below floor {config.min_consensus}")

    fine_half = config.grid_step / config.refine_factor / 2.0
    retained = (np.abs(tims.values(alpha_fine))
                <= tims.bound + np.hypot(tims.d1, tims.d2) * fine_half)
    alpha_ls = alpha_fine
    if retained.any():
        alpha_ls = _least_squares_yaw(tims.d1[retained], tims.d2[retained],
                                      tims.d3[retained], alpha_fine)
    kept_idx = np.union1d(tims.i[retained], tims.j[retained]).tolist()
    if not kept_idx:
        kept_idx = list(range(len(frame)))

    # round 1: generous slack absorbs the residual yaw-estimate error, the
    # polish on the resulting clique then pins yaw accurately
    bound = config.translation_bound()
    t_1, clique_1 = solve_translation(frame, kept_idx, alpha_ls, bound,
                                      slack_px=3.0 * config.sigma_px)
    alpha_2, t_2 = alpha_ls, t_1
    if config.polish and len(clique_1) >= 2:
        mid = refine_yaw_pose(frame, clique_1, alpha_ls, t_1)
        alpha_2, t_2 = mid.yaw, mid.translation
    # round 2: depths from the polished pose make the pixel weighting tight
    depths = _provisional_depths(frame, kept_idx, alpha_2, t_2)
    t_hat, clique = solve_translation(frame, kept_idx, alpha_2, bound,
                                      slack_px=1.0 * config.sigma_px,
                                      depths=depths)
    pose = YawPose(alpha_2, t_hat)
    refined = pose
    if config.polish and len(clique) >= 2:
        refined = refine_yaw_pose(frame, clique, pose.yaw, pose.translation)
    return InitResult(pose, refined, tuple(kept_idx), tuple(clique),
                      consensus, time.perf_counter() - t0)


def initialize(corrs: list[Correspondence], config: InitConfig | None = None,
               rig: list[CameraModel] | None = None,
               body_attitude: Rotation | None = None,
               reference_camera: int = 0) -> InitResult:
    """Deterministic 4DoF initialization from raw correspondences.

    ``rig``/``body_attitude`` lift pixels into the gravity-aligned frame, as
    in :func:`mapvins.solvers.ransac_pose`.
    """
    if rig is None or body_attitude is None:
        raise ValueError("rig and body_attitude are required to align bearings")
    frame = align_correspondences(corrs, rig, body_attitude, reference_camera)
    return initialize_frame(frame, config)
