"""IMU-aided minimal pose solvers and the RANSAC matching engine.

The estimation problem: with pitch and roll known from inertial sensing, the
pose between a gravity-aligned query frame and a gravity-aligned map frame
has 4 degrees of freedom, one yaw angle plus translation, ``X = R(alpha) F +
t``.  Everything works on rays with per-ray centers in one gravity-aligned
solving frame (a generalized camera: Pless, "Using Many Cameras as One", CVPR
2003), so the same code covers one camera (every center is 0) and a
calibrated rig whose correspondences are pooled.

Match k pins ``R(alpha) F_k + t`` to its ray ``c_k + lambda r_k``.  For a pair
(i, j) the translation cancels in the difference, which must lie in the
plane of the two rays:

    d(alpha) = (r_i x r_j) . (R(alpha) (F_i - F_j) - (c_i - c_j))
             = d1 sin(alpha) + d2 cos(alpha) + d3 = 0

This translation-invariant measurement (TIM) of the pair is computed in one
place, :func:`pair_tims`.  Its up-to-two roots are the yaw candidates of the
2-point solver (:func:`_solve_pairs`); the initializer votes on the same
TIMs and reads its pair compatibility residuals off them.  At a fixed yaw,
the translation of a 2-point pair, and of the initializer's tied cliques
and single matches, is one call of :func:`fit_translations`, which
minimizes the perpendicular distances ``(I - r_k r_k^T) (R(alpha) F_k + t -
c_k)`` of the points from their rays.

Solved pose convention: ``cam_from_map`` such that
``X_query = R(yaw) @ F_map + t``.  ``MatchResult.pose_in_map`` gives the
inverse, the query pose expressed in the queried map's frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from mapvins.cameras import CameraModel
from mapvins.geometry import RigidTransform, Rotation, YawPose, decompose_yaw
from mapvins.sim import Correspondence

_MIN_DEPTH = 1e-3
_RIDGE = 1e-15
_VERIFY_BLOCK = 256    # candidates per projection pass of _Verifier.batch_errors


class MatchingFailureError(RuntimeError):
    """RANSAC could not produce a verified pose; the message says why."""


@dataclass(frozen=True, eq=False)
class MatchingFrame:
    """Correspondences lifted into one gravity-aligned solving frame, as arrays.

    Row k of every per-match array is correspondence k.  Derived once, on
    construction: ``cam_rotation`` (n, 3, 3) and ``cam_translation`` (n, 3),
    the match's camera from the solving frame, and ``intrinsics`` (n, 4), its
    fx, fy, cx, cy.
    """

    rays: np.ndarray           # (n, 3) unit directions in the solving frame
    centers: np.ndarray        # (n, 3) ray origins in the solving frame (0 for mono)
    points: np.ndarray         # (n, 3) landmark positions in the map frame
    pixels: np.ndarray         # (n, 2)
    camera_ids: np.ndarray     # (n,) int
    weights: np.ndarray        # (n,)
    cameras: dict[int, CameraModel]
    cam_from_solving: dict[int, RigidTransform]
    cam_rotation: np.ndarray = field(init=False)
    cam_translation: np.ndarray = field(init=False)
    intrinsics: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = sorted(self.cameras)
        if not np.isin(self.camera_ids, ids).all():
            raise ValueError("matches from a camera outside the rig")
        slot = np.searchsorted(ids, self.camera_ids)
        cams = [self.cameras[c] for c in ids]
        poses = [self.cam_from_solving[c] for c in ids]
        derived = {
            "cam_rotation": np.array([p.rotation.as_matrix() for p in poses]
                                     ).reshape(-1, 3, 3)[slot],
            "cam_translation": np.array([p.translation for p in poses]).reshape(-1, 3)[slot],
            "intrinsics": np.array([[c.fx, c.fy, c.cx, c.cy] for c in cams]
                                   ).reshape(-1, 4)[slot],
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, idx) -> "MatchingFrame":
        """The matches ``idx`` as a frame of their own."""
        return MatchingFrame(self.rays[idx], self.centers[idx], self.points[idx],
                             self.pixels[idx], self.camera_ids[idx], self.weights[idx],
                             self.cameras, self.cam_from_solving)

    def camera_points(self, yaw: float, t, idx=slice(None)) -> np.ndarray:
        """Points of matches ``idx`` in their cameras, ``R_cs (R(yaw) F + t) + t_cs``."""
        rot = np.array([[math.cos(yaw), -math.sin(yaw), 0.0],
                        [math.sin(yaw), math.cos(yaw), 0.0],
                        [0.0, 0.0, 1.0]])
        solved = self.points[idx] @ rot.T + t
        return (np.einsum("nij,nj->ni", self.cam_rotation[idx], solved)
                + self.cam_translation[idx])


@dataclass
class RansacConfig:
    iterations: int = 100
    threshold_px: float = 3.0
    min_inliers: int = 5
    use_weights: bool = False
    seed: int = 0
    sample_size: int = 2     # 3 enables the 3-sample baseline for comparisons
    polish: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.threshold_px <= 0:
            raise ValueError("inlier threshold must be positive")
        if self.sample_size not in (2, 3):
            raise ValueError("sample_size must be 2 or 3")


@dataclass(frozen=True)
class MatchResult:
    cam_from_map: YawPose
    inlier_indices: tuple[int, ...]
    inlier_ratio: float
    iterations: int

    @property
    def pose_in_map(self) -> YawPose:
        """The query pose expressed in the queried map frame."""
        return self.cam_from_map.inverse()


def align_correspondences(corrs: list[Correspondence], rig: list[CameraModel],
                          body_attitude: Rotation,
                          reference_camera: int = 0) -> MatchingFrame:
    """Lift raw pixel correspondences into one gravity-aligned solving frame.

    ``body_attitude`` is the IMU-to-world rotation supplying pitch and roll
    (the simulator passes truth; the filter passes its current estimate).
    For a multi-camera rig all rays are expressed in the leveled frame of the
    reference camera using the calibrated extrinsics, which is what makes the
    2-point solver applicable to the pooled correspondence set.
    """
    map_ids = {c.map_id for c in corrs}
    if len(map_ids) > 1:
        raise ValueError(f"correspondences mix map ids {sorted(map_ids)}")
    cams = {c.camera_id: c for c in rig}
    ref = cams[reference_camera]
    world_from_ref_rot = body_attitude @ ref.imu_from_camera.rotation
    _, tilt = decompose_yaw(world_from_ref_rot)
    level_from_ref = RigidTransform(tilt, np.zeros(3))  # leveled frame at ref center

    cam_from_solving: dict[int, RigidTransform] = {}
    pixels = np.array([c.pixel for c in corrs], dtype=float).reshape(-1, 2)
    points = np.array([c.point for c in corrs], dtype=float).reshape(-1, 3)
    cam_ids = np.array([c.camera_id for c in corrs], dtype=int)
    weights = np.array([c.weight for c in corrs], dtype=float)
    rays = np.empty((len(corrs), 3))
    centers = np.empty((len(corrs), 3))
    for cam in rig:
        ref_from_cam = ref.imu_from_camera.inverse() @ cam.imu_from_camera
        s_from_c = level_from_ref @ ref_from_cam
        cam_from_solving[cam.camera_id] = s_from_c.inverse()
        sel = np.flatnonzero(cam_ids == cam.camera_id)
        if len(sel) == 0:
            continue
        r = cam.normalize(pixels[sel]) @ s_from_c.rotation.as_matrix().T
        rays[sel] = r / np.linalg.norm(r, axis=1, keepdims=True)
        centers[sel] = s_from_c.translation
    return MatchingFrame(rays, centers, points, pixels, cam_ids, weights, cams,
                         cam_from_solving)


def pair_tims(ray_i: np.ndarray, ray_j: np.ndarray, delta: np.ndarray,
              center_delta: np.ndarray):
    """TIMs ``d(alpha) = d1 sin + d2 cos + d3`` of match pairs, one row each.

    A pair has rays r_i, r_j, map-point difference delta = F_i - F_j and
    ray-center difference c_i - c_j.  With the pair normal m = r_i x r_j,
    ``d(alpha) = m . (R(alpha) delta - (c_i - c_j))`` vanishes at every yaw
    consistent with both rays, whatever the translation.  TIMs are defined up
    to scale; the sign is fixed so that the first nonzero of (d2, d1, d3) is
    positive.  Returns m (pairs, 3) and d1, d2, d3 (pairs,).
    """
    m = np.cross(ray_i, ray_j)
    d1 = m[:, 1] * delta[:, 0] - m[:, 0] * delta[:, 1]
    d2 = m[:, 0] * delta[:, 0] + m[:, 1] * delta[:, 1]
    d3 = m[:, 2] * delta[:, 2] - np.einsum("kj,kj->k", m, center_delta)
    lead = np.where(d2 != 0.0, d2, np.where(d1 != 0.0, d1, d3))
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return m, d1 * sign, d2 * sign, d3 * sign


def _wrap_angles(x: np.ndarray) -> np.ndarray:
    """``geometry.wrap_angle`` on arrays with |x| < 3*pi (one exact 2*pi shift)."""
    x = np.where(x > math.pi, x - 2.0 * math.pi,
                 np.where(x < -math.pi, x + 2.0 * math.pi, x))
    return np.where(x == -math.pi, math.pi, x)


def fit_translations(frame: MatchingFrame, members: np.ndarray, yaw,
                     weights: np.ndarray | None = None):
    """Weighted least-squares translation of each group of matches at its yaw.

    Row g of ``members`` (groups, m) lists the matches of group g, ``yaw``
    is one angle or one per group, and ``weights`` (groups, m) defaults
    to 1.  Group g's t minimizes ``sum_k w_k |e_k|^2`` over the
    perpendicular distances ``e_k = (I - r_k r_k^T) (R(yaw_g) F_k + t - c_k)``
    of its points from their rays, from the 3x3 normal equations
    ``sum_k w_k (I - r_k r_k^T) t = -sum_k w_k e_k(0)``.  A ridge of 1e-15
    times the total weight keeps groups of parallel rays solvable; a single
    ray fixes t only up to its direction, so a one-member group gets the
    minimum-norm t, whose residual is 0.  Returns t (groups, 3) and the
    residual norms ``sqrt(sum_k w_k |e_k|^2)`` (groups,).  Callers: the
    2-point pairs, and the initializer's tied cliques and single matches;
    the initializer's pair residuals and provisional pair translations are
    this fit's two-member case in closed form.
    """
    members = np.asarray(members, dtype=int)
    groups, m = members.shape
    yaw = np.asarray(yaw, dtype=float).reshape(-1, 1)     # (1 or groups, 1)
    cos, sin = np.cos(yaw), np.sin(yaw)
    r = frame.rays[members]
    v = frame.points[members]                 # R(yaw) F - c, built in place
    fx = v[..., 0].copy()
    v[..., 0] = cos * fx - sin * v[..., 1]
    v[..., 1] = sin * fx + cos * v[..., 1]
    v -= frame.centers[members]

    def perpendicular(x):
        return x - r * np.einsum("gmi,gmi->gm", r, x)[..., None]

    if m == 1:
        return -perpendicular(v)[:, 0], np.zeros(groups)
    w = np.ones((groups, m)) if weights is None else np.asarray(weights, dtype=float)
    normal = -(np.swapaxes(r, 1, 2) * w[:, None, :]) @ r           # -sum w r r^T
    diagonal = np.arange(3)
    normal[:, diagonal, diagonal] += ((1.0 + _RIDGE) * w.sum(axis=1))[:, None]
    rhs = np.einsum("gm,gmi->gi", w, perpendicular(v))
    t = -np.linalg.solve(normal, rhs[..., None])[..., 0]
    v += t[:, None, :]
    e = perpendicular(v)
    return t, np.sqrt(np.einsum("gm,gmi,gmi->g", w, e, e))


def _solve_pairs(frame: MatchingFrame, i: np.ndarray, j: np.ndarray):
    """Closed-form 2-point solve of the pairs ``(i[p], j[p])`` in one array pass.

    The yaw roots come from each pair's TIM (:func:`pair_tims`) through
    ``asin``; t then fits both rays at each root (:func:`fit_translations`).
    Pairs with parallel rays (a rank-deficient translation block), without a
    horizontal baseline (yaw-unobservable or inconsistent) or whose TIM has
    no root yield no candidate.  Returns ``(pair, yaw, t)`` with one entry
    per candidate, in (pair, root) order.
    """
    delta = frame.points[i] - frame.points[j]
    m, d1, d2, d3 = pair_tims(frame.rays[i], frame.rays[j], delta,
                              frame.centers[i] - frame.centers[j])
    sin_angle = np.linalg.norm(m, axis=1)
    baseline = np.linalg.norm(delta, axis=1)
    amp = np.hypot(d1, d2)
    ok = (sin_angle > 1e-12) & (amp > 1e-10 * sin_angle * baseline)
    s_target = -d3 / np.where(ok, amp, 1.0)
    ok &= np.abs(s_target) <= 1.0 + 1e-9  # else no yaw satisfies the pair
    base = np.arcsin(np.clip(s_target, -1.0, 1.0))
    phi = np.arctan2(d2, d1)
    roots = np.stack([_wrap_angles(base - phi),
                      _wrap_angles(math.pi - base - phi)], axis=1)  # (p, 2)
    distinct = np.abs(_wrap_angles(roots[:, 0] - roots[:, 1])) >= 1e-12
    pair, root = np.nonzero(np.stack([ok, ok & distinct], axis=1))  # (pair, root) order
    yaw = roots[pair, root]
    t, _ = fit_translations(frame, np.column_stack([i[pair], j[pair]]), yaw)
    return pair, yaw, t


class _Verifier:
    """Vectorized inlier counting for candidate poses over a MatchingFrame.

    ``R(yaw) F = cos*(Fx, Fy, 0) + sin*(-Fy, Fx, 0) + (0, 0, Fz)``, so each
    camera group keeps per-match vectors ``a = R_cs (Fx, Fy, 0)``,
    ``b = R_cs (-Fy, Fx, 0)`` and ``c = R_cs (0, 0, Fz) + t_cs``; a
    candidate's camera coordinates are then ``cos*a + sin*b + c + R_cs t``,
    for all candidates one (candidates, 3) x (3, 3 * matches) product.
    """

    def __init__(self, frame: MatchingFrame):
        self.n, self.pixels = len(frame), frame.pixels
        fx, fy, fz = frame.points.T
        zero = np.zeros_like(fx)
        planar = np.column_stack([fx, fy, zero])
        turned = np.column_stack([-fy, fx, zero])
        vertical = np.column_stack([zero, zero, fz])
        self.groups = []
        for cam_id in sorted(frame.cameras):
            sel = np.flatnonzero(frame.camera_ids == cam_id)
            if len(sel) == 0:
                continue
            cam = frame.cameras[cam_id]
            cfs = frame.cam_from_solving[cam_id]
            r_cs = cfs.rotation.as_matrix()
            a = r_cs @ planar[sel].T                                # (axis, n_sel)
            b = r_cs @ turned[sel].T
            c = r_cs @ vertical[sel].T + cfs.translation[:, None]
            abc = np.stack([a, b, c]).reshape(3, 3 * len(sel))     # (term, axis * n_sel)
            self.groups.append((sel, cam, r_cs, abc))

    def batch_errors(self, yaws: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Reprojection errors, shape (candidates, matches).

        Candidates are projected ``_VERIFY_BLOCK`` at a time and the pixel
        arithmetic runs in place, so the temporaries stay a few MB whatever
        the candidate count.
        """
        terms = np.column_stack([np.cos(yaws), np.sin(yaws), np.ones(len(yaws))])
        err = np.full((len(yaws), self.n), np.inf)
        for sel, cam, r_cs, abc in self.groups:
            shift = ts @ r_cs.T
            for lo in range(0, len(yaws), _VERIFY_BLOCK):
                block = slice(lo, lo + _VERIFY_BLOCK)
                p = (terms[block] @ abc).reshape(-1, 3, len(sel))
                p += shift[block, :, None]
                x, y, z = p[:, 0], p[:, 1], p[:, 2]
                behind = z <= _MIN_DEPTH
                z[behind] = 1.0
                for u, f, c, pix in ((x, cam.fx, cam.cx, self.pixels[sel, 0]),
                                     (y, cam.fy, cam.cy, self.pixels[sel, 1])):
                    u *= f
                    u /= z
                    u += c
                    u -= pix
                np.hypot(x, y, out=x)
                x[behind] = np.inf
                err[block, sel] = x
        return err

    def errors(self, pose: YawPose) -> np.ndarray:
        return self.batch_errors(np.array([pose.yaw]),
                                 pose.translation[None, :])[0]

    def inliers(self, pose: YawPose, threshold: float) -> np.ndarray:
        return np.flatnonzero(self.errors(pose) <= threshold)


def refine_yaw_pose(frame: MatchingFrame, indices, yaw0: float, t0) -> YawPose:
    """Nonlinear least-squares polish of (yaw, t) over pixel residuals."""
    members = frame.subset(np.asarray(indices, dtype=int))
    f, c0 = members.intrinsics[:, :2], members.intrinsics[:, 2:]

    def residuals(x):
        p_cam = members.camera_points(x[0], x[1:])
        z = np.clip(p_cam[:, 2], _MIN_DEPTH, None)
        pix = f * p_cam[:, :2] / z[:, None] + c0
        return (pix - members.pixels).ravel()

    sol = least_squares(residuals, np.array([yaw0, *np.asarray(t0, dtype=float)]),
                        method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return YawPose(sol.x[0], sol.x[1:])


def ransac_matching_frame(frame: MatchingFrame, cfg: RansacConfig) -> MatchResult:
    """RANSAC over an already-prepared MatchingFrame.

    Deterministic given ``cfg.seed``; the winning candidate has the highest
    verified inlier count, ties broken by earliest (iteration, root) pair, so
    any parallel execution reducing with the same key agrees.  Samples are
    drawn one per iteration from the seeded generator; all drawn pairs are
    then solved in one batch (:func:`_solve_pairs`) and every candidate is
    verified in one vectorized pass.
    """
    n = len(frame)
    if n < cfg.sample_size:
        raise MatchingFailureError(
            f"need at least {cfg.sample_size} correspondences, got {n}")
    verifier = _Verifier(frame)
    rng = np.random.default_rng(cfg.seed)
    probs = None
    if cfg.use_weights:
        w = frame.weights.clip(min=1e-9)
        probs = w / w.sum()

    picks = np.array([rng.choice(n, size=cfg.sample_size, replace=False, p=probs)
                      for _ in range(cfg.iterations)])
    gap = frame.points[picks[:, 0]] - frame.points[picks[:, 1]]
    picks = picks[np.linalg.norm(gap, axis=1) >= 1e-9]  # drop coincident map points
    pair, yaws, ts = _solve_pairs(frame, picks[:, 0], picks[:, 1])

    if len(yaws) == 0:
        raise MatchingFailureError("no sample yielded a pose candidate")
    errs = verifier.batch_errors(yaws, ts)
    counts = (errs <= cfg.threshold_px).sum(axis=1)
    if cfg.sample_size == 3:  # 3-sample baseline: the third draw must fit the model too
        third = errs[np.arange(len(pair)), picks[pair, 2]]
        counts = np.where(third > cfg.threshold_px, -1, counts)
    best_idx = int(np.argmax(counts))  # first maximum = earliest (iter, root)
    if counts[best_idx] < max(cfg.min_inliers, cfg.sample_size):
        raise MatchingFailureError("no candidate met the inlier floor")

    pose = YawPose(yaws[best_idx], ts[best_idx])
    inliers = np.flatnonzero(errs[best_idx] <= cfg.threshold_px)
    if cfg.polish and len(inliers) >= 2:
        for _ in range(2):  # polish, re-collect inliers, polish again
            pose = refine_yaw_pose(frame, inliers, pose.yaw, pose.translation)
            inliers = verifier.inliers(pose, cfg.threshold_px)
            if len(inliers) < max(cfg.min_inliers, cfg.sample_size):
                raise MatchingFailureError("polish collapsed the inlier set")
    return MatchResult(pose, tuple(int(i) for i in inliers),
                       len(inliers) / n, cfg.iterations)


def ransac_pose(corrs: list[Correspondence], cfg: RansacConfig,
                rig: list[CameraModel], body_attitude: Rotation,
                reference_camera: int = 0) -> MatchResult:
    """2P (or MC2P, when the rig has several cameras) RANSAC pose estimation."""
    frame = align_correspondences(corrs, rig, body_attitude, reference_camera)
    return ransac_matching_frame(frame, cfg)


def ransac_success_probability(w: float, n: int, k: int) -> float:
    """P(at least one all-inlier sample in k draws of size n at inlier rate w)."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("inlier rate must be in [0, 1]")
    if n < 1 or k < 1:
        raise ValueError("sample size and iterations must be >= 1")
    return 1.0 - (1.0 - w ** n) ** k
