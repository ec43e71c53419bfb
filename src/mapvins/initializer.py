"""Deterministic, globally optimal 4DoF initialization.

Pipeline: build translation-invariant measurements (TIMs) from all
correspondence pairs as arrays, count yaw votes on a fine grid from each
constraint's closed form (it holds on at most two yaw arcs, so counting is
interval stabbing in O(K + grid), with per-constraint slack covering the grid
spacing so no true inlier can be missed, and the count exact at every grid
point), then solve the 3DoF translation by exact maximum-clique search over a
pairwise compatibility graph, and finally polish with nonlinear least squares
on the surviving inliers.  The translation stage works on the pairs in
closed form: at fixed yaw each match confines t to a line, a pair's
compatibility residual is the distance between its two lines, read off the
pair's TIM, and its provisional translation is the midpoint of their common
perpendicular.  The clique search runs on Python-int bitsets, and the tied
cliques and a single match are one batched call of
:func:`mapvins.solvers.fit_translations`.

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
from dataclasses import dataclass, fields

import numpy as np

from mapvins.cameras import CameraModel
from mapvins.geometry import Rotation, YawPose, wrap_angle, yaw_rotation
from mapvins.sim import Correspondence
from mapvins.solvers import (
    MatchingFrame,
    align_correspondences,
    fit_translations,
    pair_tims,
    refine_yaw_pose,
)


# TIM rows per pass of the pair-wise stages, so that their temporaries stay a
# few MB whatever the number of pairs
_PAIR_BLOCK = 1 << 14


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
    when ``|d1 sin(alpha) + d2 cos(alpha) + d3| <= bound``.  ``sin_angle``
    is ``|r_i x r_j|``, the norm of the pair normal the TIM is measured on.
    """

    i: np.ndarray
    j: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    bound: np.ndarray
    sin_angle: np.ndarray

    def __len__(self) -> int:
        return len(self.d1)

    def values(self, alpha: float) -> np.ndarray:
        """d(alpha) of every constraint."""
        return self.d1 * math.sin(alpha) + self.d2 * math.cos(alpha) + self.d3

    def blocks(self):
        """The rows as consecutive views of at most ``_PAIR_BLOCK`` rows."""
        for lo in range(0, len(self), _PAIR_BLOCK):
            block = slice(lo, lo + _PAIR_BLOCK)
            yield TimArrays(*(getattr(self, f.name)[block] for f in fields(self)))


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
    rows = np.empty((5, len(ii)))       # d1, d2, d3, bound, sin_angle
    for lo in range(0, len(ii), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        rows[:, block] = _tim_rows(frame, jac, ii[block], jj[block],
                                   bound_scale * sigma_px)
    return TimArrays(ii, jj, *rows)


def _tim_rows(frame: MatchingFrame, jac: np.ndarray, ii: np.ndarray, jj: np.ndarray,
              scale: float):
    """d1, d2, d3, noise bound and sin_angle of the pairs ``(ii[k], jj[k])``."""
    ray_i, ray_j = frame.rays[ii], frame.rays[jj]
    delta = frame.points[ii] - frame.points[jj]
    center_delta = frame.centers[ii] - frame.centers[jj]
    normal, d1, d2, d3 = pair_tims(ray_i, ray_j, delta, center_delta)

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
    bounds = scale * math.sqrt(2.0) * sensitivity + floor
    return d1, d2, d3, bounds, np.sqrt(np.einsum("kj,kj->k", normal, normal))


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
    smallest a_k.  Deterministic; each block of ``_PAIR_BLOCK`` constraints
    costs O(block + M) in time and memory.
    """
    if step <= 0:
        raise ValueError("grid step must be positive")
    if len(tims) == 0:
        raise InitializationError("empty constraint set")
    n_cells = max(8, int(math.ceil(2.0 * math.pi / step)))
    fine = 2.0 * math.pi / n_cells / refine_factor
    n_points = n_cells * refine_factor

    def block_counts(part: TimArrays) -> np.ndarray:
        slack = part.bound + np.hypot(part.d1, part.d2) * (fine / 2.0)
        return _arc_counts(part.d1, part.d2, part.d3, slack, n_points, fine)

    counts = sum(map(block_counts, tims.blocks()))    # counts add up over constraints
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


def _translation_lines(frame: MatchingFrame, idx, alpha: float) -> np.ndarray:
    """Base point ``a_k = c_k - R(alpha) F_k`` of each match's line of translations.

    At yaw alpha, match k's point lies on its ray for exactly the
    translations ``t = a_k + lambda r_k``.
    """
    return frame.centers[idx] - frame.points[idx] @ yaw_rotation(alpha).as_matrix().T


def _subset_pairs(frame: MatchingFrame, tims: TimArrays, idx: np.ndarray):
    """The TIM rows whose two matches are both in ``idx``, and their positions there."""
    pos = np.full(len(frame), -1)
    pos[idx] = np.arange(len(idx))
    ii, jj = pos[tims.i], pos[tims.j]
    rows = np.flatnonzero((ii >= 0) & (jj >= 0))
    return rows, ii[rows], jj[rows]


def _pair_residuals(frame: MatchingFrame, tims: TimArrays, idx: np.ndarray,
                    alpha: float, weights: np.ndarray):
    """Smallest weighted ray-distance residual of the pairs of ``idx`` in ``tims``.

    Pair (i, j) minimizes ``w_i |e_i|^2 + w_j |e_j|^2`` over t (the pair
    case of :func:`mapvins.solvers.fit_translations`) at
    ``sqrt(w_i w_j / (w_i + w_j)) D``, D the distance between the two lines
    of translations (:func:`_translation_lines`): the residuals of any t add
    up to at least D, and the common perpendicular reaches that.  D is
    ``|d(alpha)| / |r_i x r_j|``, read off the pair's TIM row; exactly
    parallel rays are ``|(I - r r^T)(a_i - a_j)|`` apart.  Returns the
    positions ``ii``, ``jj`` in ``idx`` of each pair and its residual.
    """
    rows, ii, jj = _subset_pairs(frame, tims, idx)
    sin_angle = tims.sin_angle[rows]
    parallel = sin_angle == 0.0
    dist = (np.abs(tims.d1[rows] * math.sin(alpha) + tims.d2[rows] * math.cos(alpha)
                   + tims.d3[rows]) / np.where(parallel, 1.0, sin_angle))
    parallel = np.flatnonzero(parallel)
    if len(parallel):
        base = _translation_lines(frame, idx, alpha)
        gap = base[ii[parallel]] - base[jj[parallel]]
        ray = frame.rays[idx[ii[parallel]]]
        gap -= ray * np.einsum("pi,pi->p", ray, gap)[:, None]
        dist[parallel] = np.linalg.norm(gap, axis=1)
    w_i, w_j = weights[ii], weights[jj]
    return ii, jj, np.sqrt(w_i * w_j / (w_i + w_j)) * dist


def compatibility_graph(frame: MatchingFrame, tims: TimArrays, idx, alpha: float,
                        depths: np.ndarray, bounds_px: np.ndarray,
                        slack_px: float) -> np.ndarray:
    """Boolean adjacency over ``idx`` for the translation consensus stage.

    A pair is compatible when the residual of its joint translation fit,
    with ray distances weighted into pixels by f/depth, stays within the
    stacked pixel bounds.  The residual is closed-form from the pair's TIM
    (:func:`_pair_residuals`), so the graph is elementwise over the TIM rows
    of ``tims``, taken ``_PAIR_BLOCK`` at a time.  If a common translation
    satisfying both cones exists, the minimum weighted residual cannot
    exceed sqrt(b_i^2 + b_j^2) up to perspective linearization error, which
    a factor of 1.5 and ``slack_px`` cover; this keeps true inlier pairs
    adjacent (recall safety).  Near-parallel pairs come out with small
    residuals and are adjacent, which matches the geometry: their feasible
    translation set is huge.
    """
    idx = np.asarray(idx, dtype=int)
    m = len(idx)
    adjacency = np.zeros((m, m), dtype=bool)
    if m < 2:
        return adjacency
    w = _pixel_weights(frame, idx, depths)
    for part in tims.blocks():
        ii, jj, rss = _pair_residuals(frame, part, idx, alpha, w)
        ok = rss <= 1.5 * np.hypot(bounds_px[ii], bounds_px[jj]) + slack_px
        adjacency[ii[ok], jj[ok]] = True
    adjacency |= adjacency.T
    return adjacency


def max_cliques(adjacency: np.ndarray, cap: int = 512) -> list[list[int]]:
    """All maximum cliques (up to ``cap`` ties) via branch and bound on bitsets.

    Adjacency rows and greedy colour classes are Python ints, bit u standing
    for vertex u (San Segundo, Rodriguez-Losada, Jimenez, Computers & OR
    2011).  Greedy-colouring bounds prune the search; ties at the maximum
    size are collected so the caller can break them on model quality.
    Deterministic: the search starts from the vertices by degree,
    descending, then by index; each branch colours its candidates in their
    given order and expands them by colour, then index, from the last.
    """
    n = len(adjacency)
    if n == 0:
        return [[]]
    graph = np.array(adjacency, dtype=bool)
    np.fill_diagonal(graph, False)
    adj = [int.from_bytes(row.tobytes(), "little")
           for row in np.packbits(graph, axis=1, bitorder="little")]
    degree = graph.sum(axis=1)
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    best_size = 0
    found: list[list[int]] = []

    def colour_sort(cands: list[int]) -> tuple[list[int], list[int]]:
        """Greedy colouring in ``cands`` order: vertices by (colour, index), colours."""
        classes: list[int] = []
        for v in cands:
            neighbours = adj[v]
            for ci, cls in enumerate(classes):
                if not neighbours & cls:
                    classes[ci] = cls | 1 << v
                    break
            else:
                classes.append(1 << v)
        ordered, colours = [], []
        for colour, cls in enumerate(classes, 1):
            while cls:
                low = cls & -cls
                ordered.append(low.bit_length() - 1)
                colours.append(colour)
                cls ^= low
        return ordered, colours

    def expand(clique: list[int], cands: list[int]):
        nonlocal best_size, found
        if not cands:
            if len(clique) > best_size:
                best_size = len(clique)
                found = [sorted(clique)]
            elif len(clique) == best_size and len(found) < cap:
                found.append(sorted(clique))
            return
        cands, colours = colour_sort(cands)
        while cands:
            reach = len(clique) + colours.pop()
            if reach < best_size or (reach == best_size and len(found) >= cap):
                return
            v = cands.pop()
            neighbours = adj[v]
            expand(clique + [v], [u for u in cands if neighbours >> u & 1])

    expand([], order)
    return found


def solve_translation(frame: MatchingFrame, tims: TimArrays, indices, alpha: float,
                      bound_px: float, slack_px: float = 0.0,
                      depths: np.ndarray | None = None
                      ) -> tuple[np.ndarray, list[int]]:
    """Consensus translation at fixed yaw via exact maximum-clique search.

    Two correspondences are adjacent iff a common translation can satisfy
    both of their reprojection bounds (see :func:`compatibility_graph`,
    which reads the pairs' TIM rows from ``tims``); the returned inlier set
    is a maximum clique of that graph, and the translation is the weighted
    least-squares fit over the clique.  Tied cliques all have the maximum
    size, so one batched fit scores them; the smallest residual wins, then
    the first clique in sorted order.  ``depths`` weight residuals into
    pixel units; when absent, a provisional translation (coordinate-wise
    median of well-conditioned pair solutions) supplies them.  A single
    match gets the minimum-norm translation onto its ray.
    """
    idx = np.asarray(list(indices), dtype=int)
    if len(idx) == 0:
        raise InitializationError("empty correspondence set for translation")
    if depths is None:
        depths = _median_pair_depths(frame, tims, idx, alpha)
    adjacency = compatibility_graph(frame, tims, idx, alpha, depths,
                                    np.full(len(idx), bound_px), slack_px)
    cliques = np.array(max_cliques(adjacency))          # (ties, clique size)
    w = _pixel_weights(frame, idx, depths)
    ts, rss = fit_translations(frame, idx[cliques], alpha, w[cliques])
    best = min(range(len(cliques)), key=lambda c: (rss[c], cliques[c].tolist()))
    return ts[best], idx[cliques[best]].tolist()


def _well_conditioned(cos: np.ndarray) -> np.ndarray:
    """Pairs whose translation fit is well conditioned, from their ray cosines.

    A pair's normal matrix ``2I - r_i r_i^T - r_j r_j^T`` has eigenvalues 2
    and 1 -+ |r_i . r_j|: the smallest is above 1e-4 times the largest iff
    ``1 - |r_i . r_j| > 2e-4``.
    """
    return 1.0 - np.abs(cos) > 2e-4


def _pair_midpoints(frame: MatchingFrame, tims: TimArrays, idx: np.ndarray,
                    alpha: float) -> np.ndarray:
    """Unweighted translations of the well-conditioned pairs of ``idx`` in ``tims``.

    A pair's unweighted fit (:func:`mapvins.solvers.fit_translations`) is
    the midpoint of the common perpendicular of its two lines of
    translations (:func:`_translation_lines`).  With ``g = a_i - a_j`` and
    ``c = r_i . r_j``, the feet are ``a_i + s r_i`` and ``a_j + u r_j``, where
    ``s = (c (r_j . g) - r_i . g) / (1 - c^2)`` and
    ``u = (r_j . g - c (r_i . g)) / (1 - c^2)``: three dot products per
    pair.  Returns (pairs, 3).
    """
    _, ii, jj = _subset_pairs(frame, tims, idx)
    rays = frame.rays[idx]
    ray_i, ray_j = np.take(rays, ii, axis=0), np.take(rays, jj, axis=0)
    cos = np.einsum("pi,pi->p", ray_i, ray_j)
    good = np.flatnonzero(_well_conditioned(cos))
    ii, jj, cos = ii[good], jj[good], cos[good]
    ray_i, ray_j = np.take(ray_i, good, axis=0), np.take(ray_j, good, axis=0)
    base = _translation_lines(frame, idx, alpha)
    base_i, base_j = np.take(base, ii, axis=0), np.take(base, jj, axis=0)
    gap = base_i - base_j
    along_i = np.einsum("pi,pi->p", ray_i, gap)
    along_j = np.einsum("pi,pi->p", ray_j, gap)
    sine2 = (1.0 - cos) * (1.0 + cos)
    s = (cos * along_j - along_i) / sine2
    u = (along_j - cos * along_i) / sine2
    return 0.5 * (base_i + base_j + s[:, None] * ray_i + u[:, None] * ray_j)


def _median_pair_depths(frame: MatchingFrame, tims: TimArrays, idx: np.ndarray,
                        alpha: float) -> np.ndarray:
    """Provisional depths from the median of well-conditioned pair solves."""
    ts = np.concatenate([_pair_midpoints(frame, part, idx, alpha) for part in tims.blocks()])
    t_prov = np.median(ts, axis=0) if len(ts) else np.zeros(3)
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
    t_1, clique_1 = solve_translation(frame, tims, kept_idx, alpha_ls, bound,
                                      slack_px=3.0 * config.sigma_px)
    alpha_2, t_2 = alpha_ls, t_1
    if config.polish and len(clique_1) >= 2:
        mid = refine_yaw_pose(frame, clique_1, alpha_ls, t_1)
        alpha_2, t_2 = mid.yaw, mid.translation
    # round 2: depths from the polished pose make the pixel weighting tight
    depths = _provisional_depths(frame, kept_idx, alpha_2, t_2)
    t_hat, clique = solve_translation(frame, tims, kept_idx, alpha_2, bound,
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
