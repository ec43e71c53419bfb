"""Test helpers: array MatchingFrames, the SVD reference 2-point solver and
the ray-basis translation fit.

The reference solver is the readable form of the pair geometry that
``mapvins.solvers`` computes in batches.  Match k gives two rows of
``basis_k (R(alpha) F_k + t - c_k) = 0``, with ``basis_k`` two orthonormal
rows orthogonal to its ray; the left null vector of a pair's 4x3
translation block (from an SVD) eliminates t and leaves the pair's TIM
``d1 sin(alpha) + d2 cos(alpha) + d3``, whose roots back-substitute into a
least-squares solve for t.  :func:`basis_fit` solves the same stacked rows
for any group of matches, by normal equations or by ``lstsq``, the way the
translation stages once did.  Production code never calls any of this.
"""

import math
from dataclasses import dataclass

import numpy as np

import mapvins.geometry as g
from mapvins.cameras import CameraModel
from mapvins.geometry import RigidTransform, YawPose, wrap_angle
from mapvins.sim import Scenario, ScenarioConfig
from mapvins.solvers import MatchingFrame, align_correspondences

CAMERA = CameraModel(0, 460, 460, 320, 240, 640, 480)


def exact_frame(points, pose: YawPose = YawPose(0.0, np.zeros(3)), centers=None,
                rays=None) -> MatchingFrame:
    """MatchingFrame of exact forward projections, one pinhole at the solving frame.

    Ray k leaves ``centers[k]`` (default 0) along ``R(yaw) @ F_k + t - c_k``
    unless ``rays`` gives it.  Pixels are 0, weights 1, camera ids 0.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    centers = np.zeros((n, 3)) if centers is None else np.asarray(centers, dtype=float)
    if rays is None:
        x = np.array([pose.apply(p) for p in points]).reshape(-1, 3) - centers
        rays = x / np.linalg.norm(x, axis=1, keepdims=True)
    return MatchingFrame(np.asarray(rays, dtype=float), centers, points, np.zeros((n, 2)),
                         np.zeros(n, dtype=int), np.ones(n), {0: CAMERA},
                         {0: RigidTransform.identity()})


def rig_event(seed: int, event: int):
    """A four-camera Scenario map event: (frame, true cam_from_map, true inliers)."""
    sc = Scenario(ScenarioConfig(duration=2.0, seed=seed, num_cameras=4, num_maps=1,
                                 correspondences_per_event=40, outlier_rate=0.3,
                                 sigma_px=1.0))
    ev = sc.map_events[event]
    body = sc.frame_pose(ev.frame)
    frame = align_correspondences(ev.correspondences, sc.rig, body.rotation)
    world_from_cam = body @ sc.rig[0].imu_from_camera
    _, tilt = g.decompose_yaw(world_from_cam.rotation)
    level_from_world = RigidTransform(tilt, np.zeros(3)) @ world_from_cam.inverse()
    true_cfm = level_from_world @ sc.map_from_world[ev.map_id].inverse().to_rigid()
    inliers = [k for k, c in enumerate(ev.correspondences) if c.is_inlier]
    return frame, true_cfm, inliers


class DegenerateSampleError(ValueError):
    """The sampled correspondence pair cannot constrain the 4DoF pose."""


@dataclass(frozen=True)
class SolverCandidate:
    pose: YawPose
    sample_indices: tuple[int, ...]


def _ray_basis(ray: np.ndarray) -> np.ndarray:
    """Two orthonormal rows spanning the plane orthogonal to ``ray``."""
    seed = np.array([0.0, 0.0, 1.0]) if abs(ray[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    b1 = np.cross(seed, ray)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(ray, b1)
    return np.vstack([b1, b2])


def _linear_rows(frame: MatchingFrame, k: int):
    """Rows of b^T (cos*A + sin*B + C + t - c) = 0 for match k."""
    fx, fy, fz = frame.points[k]
    a_vec = np.array([fx, fy, 0.0])    # cos(alpha) part of R(alpha) @ F
    b_vec = np.array([-fy, fx, 0.0])   # sin(alpha) part
    c_vec = np.array([0.0, 0.0, fz])
    basis = _ray_basis(frame.rays[k])
    cos_coef = basis @ a_vec
    sin_coef = basis @ b_vec
    const = basis @ (c_vec - frame.centers[k])
    return cos_coef, sin_coef, basis, const


def canonical_tim(d1: float, d2: float, d3: float):
    """Fix the overall sign of (d1, d2, d3); TIMs are defined up to scale."""
    for lead in (d2, d1, d3):
        if lead != 0.0:
            if lead < 0.0:
                return -d1, -d2, -d3
            break
    return d1, d2, d3


def tim_coefficients(frame: MatchingFrame, i: int, j: int):
    """Translation-invariant coefficients (d1, d2, d3) for the match pair (i, j).

    ``d(alpha) = d1 sin + d2 cos + d3`` vanishes at any yaw consistent with
    both correspondences, regardless of translation.
    """
    cos1, sin1, rows1, e1 = _linear_rows(frame, i)
    cos2, sin2, rows2, e2 = _linear_rows(frame, j)
    trans_mat = np.vstack([rows1, rows2])               # 4 x 3
    cos_coef = np.concatenate([cos1, cos2])
    sin_coef = np.concatenate([sin1, sin2])
    const = np.concatenate([e1, e2])
    # left null space of the translation block eliminates t
    _, sing, vt = np.linalg.svd(trans_mat.T, full_matrices=True)
    null = vt[-1]
    rank_ok = sing[-1] > 1e-9 * max(sing[0], 1.0)
    d1, d2, d3 = canonical_tim(float(null @ sin_coef), float(null @ cos_coef),
                               float(null @ const))
    scale = max(np.linalg.norm(cos_coef), np.linalg.norm(sin_coef),
                np.linalg.norm(const), 1e-30)
    return d1, d2, d3, (trans_mat, cos_coef, sin_coef, const, rank_ok, scale)


def _yaw_roots(d1: float, d2: float, d3: float):
    """Roots of d1 sin + d2 cos + d3 = 0 (caller checks degeneracy first)."""
    amp = math.hypot(d1, d2)
    s_target = -d3 / amp
    if abs(s_target) > 1.0:
        if abs(s_target) > 1.0 + 1e-9:
            return None
        s_target = math.copysign(1.0, s_target)
    phi = math.atan2(d2, d1)
    base = math.asin(s_target)
    roots = [wrap_angle(base - phi), wrap_angle(math.pi - base - phi)]
    if abs(wrap_angle(roots[0] - roots[1])) < 1e-12:
        return roots[:1]
    return roots


def solve_2pt(frame: MatchingFrame, i: int, j: int) -> list[SolverCandidate]:
    """Closed-form 4DoF candidates from the gravity-aligned matches i and j.

    Returns up to two candidates (the two roots of the yaw equation), each
    satisfying both projection-ray constraints exactly for exact inputs.
    """
    if np.linalg.norm(frame.points[i] - frame.points[j]) < 1e-9:
        raise DegenerateSampleError("coincident map points")
    d1, d2, d3, system = tim_coefficients(frame, i, j)
    if not system[4]:
        raise DegenerateSampleError("rank-deficient translation system")
    scale = system[5]
    if math.hypot(d1, d2) <= 1e-10 * scale:
        if abs(d3) <= 1e-10 * scale:
            raise DegenerateSampleError("yaw-unobservable pair")
        return []  # inconsistent: no yaw satisfies the pair
    roots = _yaw_roots(d1, d2, d3)
    if roots is None:
        return []  # inconsistent: no yaw satisfies the pair
    return [SolverCandidate(YawPose(alpha, basis_fit(frame, [i, j], alpha)[0]), (i, j))
            for alpha in roots]


def basis_fit(frame: MatchingFrame, members, yaw: float, weights=None,
              normal_equations: bool = False):
    """Translation of one group of matches from their stacked ray-basis rows.

    Member k contributes ``sqrt(w_k) basis_k t = -sqrt(w_k) basis_k
    (R(yaw) F_k - c_k)``.  The (2m, 3) stack is solved by its 3x3 normal
    equations or, by default, by ``lstsq`` (the minimum-norm t when the rays
    leave t underdetermined).  Returns t and the residual norm of the stack.
    """
    weights = np.ones(len(members)) if weights is None else weights
    rows, rhs = [], []
    for k, w in zip(members, weights):
        cos_coef, sin_coef, basis, const = _linear_rows(frame, k)
        scale = math.sqrt(w)
        rows.append(scale * basis)
        rhs.append(-scale * (cos_coef * math.cos(yaw) + sin_coef * math.sin(yaw) + const))
    a, b = np.vstack(rows), np.concatenate(rhs)
    if normal_equations:
        t = np.linalg.solve(a.T @ a, a.T @ b)
    else:
        t = np.linalg.lstsq(a, b, rcond=None)[0]
    return t, float(np.linalg.norm(a @ t - b))
