"""Multi-map Schmidt-MSCKF.

State (error-state dimensions in parentheses):

* IMU block: attitude (3), velocity (3), position (3), gyro bias (3),
  accel bias (3) -- the attitude stores ``R_IL`` (local-to-body).
* Sliding window: up to B cloned past IMU poses (6 each).
* Map transforms: one local-to-map pose ``(R_GL, p_GL)`` per registered map
  (6 each).  These are the states that absorb drift corrections.
* Nuisance keyframes: map keyframe poses lifted for correlation bookkeeping
  (6 each).  Schmidt treatment: their means and their own covariance block
  are never modified by updates; only cross-covariances evolve.

Layout: after the IMU block, 6-dim pose blocks in covariance order (clones,
maps, keyframes) named by ``keys``: ``("clone", frame)``, ``("map", map_id)``,
``("kf", map_id, kf_id)``; ``slot`` gives a block's first index.  The active
means are the ``(k, 4)`` quaternion stack ``quats`` and ``(k, 3)`` stack
``positions``, row for row with the first k keys, plus the ``(4,)`` IMU
attitude ``q_IL``.  A keyframe mean is always its bundle's pose (the Schmidt
update never moves it) and is not stored.  Every correction renormalizes
every attitude; ``Rotation`` objects are built only in ``world_from_imu``,
``map_from_local`` and ``current_pose_in_map``.

Error convention: left multiplicative for rotations,
``R = (I - skew(dtheta)) @ R_hat``, additive for everything else.  The filter
is a single-owner mutable object; updates mutate in place and return the
state for call chaining.

Measurement conventions match the simulator: white IMU noise and bias
random-walk sigmas are discrete per-sample values, pixel noises are in
pixels for camera rows; keyframe anchor rows use normalized image
coordinates with sigma scaled by 1/f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

from mapvins.cameras import CameraModel, normalize_pixels, project_points
from mapvins.geometry import (
    GRAVITY,
    RigidTransform,
    Rotation,
    _quat_product,
    _quat_to_matrix,
    _rotvec_to_quat,
    skew,
)
from mapvins.mapmodel import MapBundle
from mapvins.sim import ImuSample

IMU_DIM = 15
_TH = slice(0, 3)
_V = slice(3, 6)
_P = slice(6, 9)
_BG = slice(9, 12)
_BA = slice(12, 15)


class FilterError(RuntimeError):
    pass


@dataclass
class FilterConfig:
    window_size: int = 11
    # discrete per-sample IMU noise (same convention as sim.ImuNoiseParams)
    sigma_g: float = 1e-3
    sigma_a: float = 1e-2
    sigma_wg: float = 1e-6
    sigma_wa: float = 1e-5
    # measurement noise
    local_sigma_px: float = 0.5
    map_sigma_px: float = 1.0
    map_inflation: float = 1.0
    # nuisance keyframes: 0 sigma treats keyframes as exact constants and
    # skips nuisance bookkeeping entirely
    kf_sigma_pos: float = 0.01
    kf_sigma_rot: float = math.radians(0.1)
    max_nuisance_keyframes: int = 30
    # two anchors per landmark leave 2 + 2*2 - 3 = 3 projected rows, enough
    # to both correct the pose and expose wrong-landmark outliers to the gate
    anchors_per_landmark: int = 2
    cross_anchors_per_landmark: int = 1
    # initial uncertainty of a freshly registered map transform
    tau_sigma_pos: float = 0.3
    tau_sigma_rot: float = math.radians(1.0)
    chi2_confidence: float = 0.95
    max_tracks_per_update: int = 40


@dataclass(frozen=True)
class TrackObservation:
    frame: int
    camera_id: int
    pixel: np.ndarray


@dataclass(frozen=True)
class FeatureTrack:
    feature_id: int
    observations: tuple[TrackObservation, ...]


@dataclass(frozen=True)
class MapMatchItem:
    camera_id: int
    pixel: np.ndarray
    landmark_id: int


@dataclass
class MapObservation:
    """Filtered matches against one map, plus anchoring metadata.

    ``cross`` lists (landmark_id, other_map_id, other_landmark_id) for
    features associated across maps; the association source is external
    (the scenario table in simulation).
    """

    map_id: int
    matches: list[MapMatchItem]
    anchors: dict[int, tuple[int, ...]] = field(default_factory=dict)
    cross: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class UpdateReport:
    used: int = 0
    gated: int = 0
    skipped: int = 0
    rows: int = 0
    max_nullspace_residual: float = 0.0


class _RigArrays:
    """Per-camera constants, stacked once per filter state.

    ``index`` maps a camera id to its row; ``r_ci``/``t_ci`` hold each
    camera's cam_from_imu rotation and translation, ``intrinsics`` its
    (fx, fy, cx, cy).  Keyframe rows are in normalized coordinates and get
    their sigma from the first camera's mean focal length ``f_ref``.
    """

    def __init__(self, cams: list[CameraModel]):
        self.index = {cam.camera_id: k for k, cam in enumerate(cams)}
        cam_from_imu = [cam.imu_from_camera.inverse() for cam in cams]
        self.r_ci = np.array([c.rotation.as_matrix() for c in cam_from_imu]).reshape(-1, 3, 3)
        self.t_ci = np.array([c.translation for c in cam_from_imu]).reshape(-1, 3)
        self.intrinsics = np.array([[c.fx, c.fy, c.cx, c.cy] for c in cams]).reshape(-1, 4)
        self.f_ref = 0.5 * (cams[0].fx + cams[0].fy) if cams else 1.0


class FilterState:
    """Mutable multi-map Schmidt-MSCKF state; single-owner semantics."""

    def __init__(self, config: FilterConfig, rig: list[CameraModel],
                 start_time: float = 0.0):
        self.config = config
        self.rig = {cam.camera_id: cam for cam in rig}
        self._rig = _RigArrays(list(self.rig.values()))
        self.time = start_time
        self.q_IL = np.array([0.0, 0.0, 0.0, 1.0])
        self.v = np.zeros(3)
        self.p = np.zeros(3)
        self.bg = np.zeros(3)
        self.ba = np.zeros(3)
        self.keys: list[tuple] = []
        self.quats = np.zeros((0, 4))
        self.positions = np.zeros((0, 3))
        self.bundles: dict[int, MapBundle] = {}
        self.P = np.zeros((IMU_DIM, IMU_DIM))
        self.last_report: UpdateReport | None = None
        self._chi2_cache: dict[int, float] = {}

    # -- dimensions ---------------------------------------------------------

    @property
    def n_clones(self) -> int:
        """Active poses that are not map transforms (one per registered bundle)."""
        return len(self.quats) - len(self.bundles)

    @property
    def active_dim(self) -> int:
        return IMU_DIM + 6 * len(self.quats)

    @property
    def nuisance_dim(self) -> int:
        return self.dim - self.active_dim

    @property
    def dim(self) -> int:
        return IMU_DIM + 6 * len(self.keys)

    def slot(self, key: tuple) -> int:
        """First covariance index of the pose block named ``key``."""
        return IMU_DIM + 6 * self.keys.index(key)

    def _chi2_gate(self, dof: int) -> float:
        if dof not in self._chi2_cache:
            self._chi2_cache[dof] = float(chi2.ppf(self.config.chi2_confidence, dof))
        return self._chi2_cache[dof]

    # -- initialization -------------------------------------------------------

    def set_pose(self, world_from_imu: RigidTransform, velocity, bg=None, ba=None):
        self.q_IL = world_from_imu.rotation.inverse().quaternion.copy()
        self.p = np.asarray(world_from_imu.translation, dtype=float).copy()
        self.v = np.asarray(velocity, dtype=float).copy()
        if bg is not None:
            self.bg = np.asarray(bg, dtype=float).copy()
        if ba is not None:
            self.ba = np.asarray(ba, dtype=float).copy()

    def set_imu_covariance(self, sigma_theta, sigma_v, sigma_p, sigma_bg, sigma_ba):
        diag = np.concatenate([np.full(3, sigma_theta ** 2), np.full(3, sigma_v ** 2),
                               np.full(3, sigma_p ** 2), np.full(3, sigma_bg ** 2),
                               np.full(3, sigma_ba ** 2)])
        self.P[:IMU_DIM, :IMU_DIM] = np.diag(diag)

    # -- pose readers -----------------------------------------------------------

    def world_from_imu(self) -> RigidTransform:
        return RigidTransform(Rotation(self.q_IL).inverse(), self.p)

    def map_from_local(self, map_id: int) -> RigidTransform:
        row = self.keys.index(("map", map_id))
        return RigidTransform(Rotation(self.quats[row]), self.positions[row])


# -- propagation ---------------------------------------------------------------


def _transform(rot: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products: (..., 3, 3) @ (..., 3) -> (..., 3)."""
    return (rot @ vec[..., None])[..., 0]


def propagate(state: FilterState, samples: list[ImuSample]) -> FilterState:
    """IMU mean and covariance propagation over a batch of samples.

    Mean: closed-form rotation with averaged rates, trapezoidal velocity and
    position.  Covariance: first-order Phi and additive noise, compounded
    over the batch and applied to P once.  Map transforms and nuisance
    keyframes are untouched by construction.

    The biases are constant within a batch, so every sample's rotation
    increment, specific force and Phi are computed as arrays; only the
    attitude chain and the 15x15 Phi product run sample by sample.
    """
    if len(samples) < 2:
        return state
    cfg = state.config
    t = np.array([s.t for s in samples])
    dt = np.diff(t)
    bad = np.flatnonzero(dt <= 0)
    if t[0] < state.time - 1e-12:
        bad = np.r_[0, bad]
    if bad.size:
        raise FilterError(f"non-monotone IMU timestamps near t={samples[bad[0]].t}")
    n = len(dt)
    gyro = np.array([s.gyro for s in samples])
    accel = np.array([s.accel for s in samples]) - state.ba
    omega = 0.5 * (gyro[:-1] + gyro[1:]) - state.bg
    acc0, acc1 = accel[:-1], accel[1:]

    inc = _rotvec_to_quat(-omega * dt[:, None])
    quats = [state.q_IL]
    for q_inc in inc:
        quats.append(_quat_product(q_inc, quats[-1]))
    r_li = _quat_to_matrix(np.array(quats)).transpose(0, 2, 1)  # R_IL^T per sample
    e_mat = _quat_to_matrix(inc)
    # Simpson quadrature of the rotated specific force (midpoint rotation
    # is exact for piecewise-constant rates); needed to hold the 1e-5 m
    # round-trip budget at 200 Hz
    half = _quat_to_matrix(_rotvec_to_quat(-omega * (0.5 * dt)[:, None]))
    r_mid = r_li[:-1] @ half.transpose(0, 2, 1)
    f_0 = _transform(r_li[:-1], acc0) + GRAVITY
    f_mid = _transform(r_mid, 0.5 * (acc0 + acc1)) + GRAVITY
    f_1 = _transform(r_li[1:], acc1) + GRAVITY
    v = np.cumsum(np.vstack([state.v, dt[:, None] / 6.0 * (f_0 + 4.0 * f_mid + f_1)]),
                  axis=0)
    p = np.cumsum(np.vstack([state.p, v[:-1] * dt[:, None]
                             + (dt * dt / 6.0)[:, None] * (f_0 + 2.0 * f_mid)]), axis=0)

    d_t = dt[:, None, None]
    force_skew = r_li[:-1] @ skew(acc0)
    phi = np.tile(np.eye(IMU_DIM), (n, 1, 1))
    phi[:, _TH, _TH] = e_mat
    phi[:, _TH, _BG] = -d_t * e_mat
    phi[:, _V, _TH] = -d_t * force_skew
    phi[:, _V, _BA] = -d_t * r_li[:-1]
    phi[:, _P, _V] = d_t * np.eye(3)
    phi[:, _P, _TH] = -0.5 * d_t * d_t * force_skew
    phi[:, _P, _BA] = -0.5 * d_t * d_t * r_li[:-1]
    q_diag = np.zeros((n, IMU_DIM))
    q_diag[:, _TH] = ((cfg.sigma_g * dt) ** 2)[:, None]
    q_diag[:, _V] = ((cfg.sigma_a * dt) ** 2)[:, None]
    q_diag[:, _BG] = cfg.sigma_wg ** 2
    q_diag[:, _BA] = cfg.sigma_wa ** 2
    # phi_acc = Phi_{n-1} ... Phi_0 and q_acc = sum_k S_k Q_k S_k^T with the
    # suffix products S_k = Phi_{n-1} ... Phi_{k+1}: the sequential
    # phi Q phi^T + Q_k recursion unrolled, one 15x15 product per sample
    suffix = np.empty((n, IMU_DIM, IMU_DIM))
    phi_acc = np.eye(IMU_DIM)
    for k in range(n - 1, -1, -1):
        suffix[k] = phi_acc
        phi_acc = phi_acc @ phi[k]
    q_acc = ((suffix * q_diag[:, None, :]) @ suffix.transpose(0, 2, 1)).sum(axis=0)

    state.q_IL = quats[-1] / np.linalg.norm(quats[-1])
    state.v = v[-1].copy()
    state.p = p[-1].copy()
    d = state.dim
    state.P[:IMU_DIM, :IMU_DIM] = (phi_acc @ state.P[:IMU_DIM, :IMU_DIM] @ phi_acc.T
                                   + q_acc)
    if d > IMU_DIM:
        state.P[:IMU_DIM, IMU_DIM:d] = phi_acc @ state.P[:IMU_DIM, IMU_DIM:d]
        state.P[IMU_DIM:d, :IMU_DIM] = state.P[:IMU_DIM, IMU_DIM:d].T
    state.P[:d, :d] = 0.5 * (state.P[:d, :d] + state.P[:d, :d].T)
    state.time = samples[-1].t
    return state


def _delete_block(cov: np.ndarray, at: int) -> np.ndarray:
    """``cov`` without the rows and columns of the 6-state block at ``at``."""
    rows = np.concatenate([cov[:at], cov[at + 6:]])
    return np.concatenate([rows[:, :at], rows[:, at + 6:]], axis=1)


def _insert_pose(state: FilterState, at: int, key: tuple, cross: np.ndarray,
                 corner: np.ndarray, mean: tuple | None = None) -> None:
    """Insert pose block ``key`` at position ``at`` after the IMU block.

    ``cross`` (6, d) is the new block's covariance with the old states and
    ``corner`` (6, 6) its own; an active pose also inserts its ``mean``
    (quaternion, position) at row ``at`` of the stack.
    """
    i = IMU_DIM + 6 * at
    rows = np.concatenate([state.P[:i], cross, state.P[i:]])
    cols = np.concatenate([cross[:, :i].T, corner, cross[:, i:].T])
    state.P = np.concatenate([rows[:, :i], cols, rows[:, i:]], axis=1)
    state.keys.insert(at, key)
    if mean is not None:
        state.quats = np.concatenate([state.quats[:at], [mean[0]], state.quats[at:]])
        state.positions = np.concatenate([state.positions[:at], [mean[1]],
                                          state.positions[at:]])


def clone_and_marginalize(state: FilterState, frame: int) -> FilterState:
    """Append a clone of the current pose; drop the oldest beyond the window."""
    cross = np.concatenate([state.P[_TH], state.P[_P]])   # the pose rows
    corner = np.concatenate([cross[:, _TH], cross[:, _P]], axis=1)
    _insert_pose(state, state.n_clones, ("clone", frame), cross, corner,
                 (state.q_IL, state.p))
    while state.n_clones > state.config.window_size:  # the oldest is block 0
        del state.keys[0]
        state.quats, state.positions = state.quats[1:], state.positions[1:]
        state.P = _delete_block(state.P, IMU_DIM)
    return state


# -- corrections -------------------------------------------------------------


def _apply_active_correction(state: FilterState, dx: np.ndarray) -> None:
    """Apply the active error state ``dx``; every attitude is renormalized."""
    poses = dx[IMU_DIM:].reshape(-1, 6)
    small = np.ones((1 + len(poses), 4))  # (dtheta / 2, 1) per attitude
    small[:, :3] = 0.5 * np.vstack([dx[_TH], poses[:, :3]])
    quats = _quat_product(small, np.vstack([state.q_IL, state.quats]))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    state.q_IL, state.quats = quats[0], quats[1:]
    state.positions = state.positions + poses[:, 3:]
    state.v = state.v + dx[_V]
    state.p = state.p + dx[_P]
    state.bg = state.bg + dx[_BG]
    state.ba = state.ba + dx[_BA]


def _schmidt_update(state: FilterState, h: np.ndarray, cols: np.ndarray,
                    residual: np.ndarray) -> None:
    """Schmidt-EKF step for whitened rows ``h`` on the state columns ``cols``.

    The measurement noise is identity and H is zero outside ``cols``, so
    only those columns of P are multiplied.  Gain on the active block only:
    P_NN and the nuisance means are left untouched; the cross covariance
    P_AN is updated.
    """
    a = state.active_dim
    n = state.dim
    p_ht = state.P[:n, cols] @ h.T
    s_mat = h @ p_ht[cols] + np.eye(len(residual))
    s_mat = 0.5 * (s_mat + s_mat.T)
    u = p_ht[:a]
    try:
        k_gain = np.linalg.solve(s_mat, u.T).T
    except np.linalg.LinAlgError:
        k_gain = u @ np.linalg.pinv(s_mat)
    _apply_active_correction(state, k_gain @ residual)
    state.P[:a, :a] = state.P[:a, :a] - k_gain @ u.T
    if n > a:
        state.P[:a, a:n] = state.P[:a, a:n] - k_gain @ p_ht[a:n].T
        state.P[a:n, :a] = state.P[:a, a:n].T
    state.P[:a, :a] = 0.5 * (state.P[:a, :a] + state.P[:a, :a].T)


def _pinhole_jacobian(p_c: np.ndarray, fx=1.0, fy=1.0) -> np.ndarray:
    """d(pixel)/d(point) at stacked camera-frame points: (..., 3) -> (..., 2, 3).

    fx = fy = 1 (the default) is the Jacobian of normalized image coordinates.
    """
    x, y, z = p_c[..., 0], p_c[..., 1], p_c[..., 2]
    jac = np.zeros(p_c.shape[:-1] + (2, 3))
    jac[..., 0, 0] = fx / z
    jac[..., 0, 2] = -fx * x / z ** 2
    jac[..., 1, 1] = fy / z
    jac[..., 1, 2] = -fy * y / z ** 2
    return jac


def _triangulate_tracks(r_cw: np.ndarray, t_cw: np.ndarray, pixels: np.ndarray,
                        intrinsics: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate T tracks of n observations each, all at once.

    ``r_cw`` (T, n, 3, 3) and ``t_cw`` (T, n, 3) map world points into each
    observing camera; ``pixels`` is (T, n, 2) and ``intrinsics`` (T, n, 4).
    The linear estimate solves the 3x3 normal equations
    sum (I - r r^T) x = sum (I - r r^T) c over the unit rays r from the
    camera centres c; two Gauss-Newton steps on the pixel residuals follow.
    Returns the points (T, 3) and the mask of tracks kept: a singular-value
    ratio below 1e-6, or a depth below 1e-2 before a step, rejects a track.
    """
    fx, fy, cx, cy = np.moveaxis(intrinsics, -1, 0)
    r_wc = np.swapaxes(r_cw, -1, -2)
    rays = _transform(r_wc, normalize_pixels(pixels, fx, fy, cx, cy))
    rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
    perp = np.eye(3) - rays[..., :, None] * rays[..., None, :]
    normal = perp.sum(axis=1)
    rhs = _transform(perp, -_transform(r_wc, t_cw)).sum(axis=1)
    eig = np.linalg.eigvalsh(normal)
    ok = eig[:, 0] >= 1e-12 * eig[:, 2]
    normal[~ok] = np.eye(3)  # rejected tracks only keep the batch solvable
    point = np.linalg.solve(normal, rhs[..., None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):  # small GN polish on pixel residuals
            p_c = _transform(r_cw, point[:, None, :]) + t_cw
            ok &= (p_c[..., 2] >= 1e-2).all(axis=1)
            jac = _pinhole_jacobian(p_c, fx, fy) @ r_cw
            res = pixels - project_points(p_c, fx, fy, cx, cy)
            jtj = np.einsum("tnki,tnkj->tij", jac, jac)
            jtr = np.einsum("tnki,tnk->ti", jac, res)
            jtj[~ok] = np.eye(3)
            try:
                step = np.linalg.solve(jtj, jtr[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = _transform(np.linalg.pinv(jtj), jtr)
            point = point + step
    return point, ok


def _update_features(state: FilterState, groups: list, cols: np.ndarray,
                     report: UpdateReport) -> None:
    """Null-space projection, chi-square gate and one Schmidt update.

    Each group stacks the whitened rows of features with equal row count m:
    H (G, m, k) on the state columns ``cols``, the feature Jacobian
    (G, m, 3) and the residual (G, m).  Each feature is removed by projection
    onto the left null space of its Jacobian; every feature is gated from
    one P H^T product; the accepted rows are applied in one Schmidt update.
    """
    k = len(cols)
    projected = []
    for h, h_f, resid in groups:
        q_mat, _ = np.linalg.qr(h_f, mode="complete")
        null_t = q_mat[:, :, 3:].transpose(0, 2, 1)
        report.max_nullspace_residual = max(report.max_nullspace_residual,
                                            float(np.abs(null_t @ h_f).max()))
        projected.append((null_t @ h, _transform(null_t, resid)))
    if not projected:
        return
    p_ht = state.P[np.ix_(cols, cols)] @ np.concatenate(
        [h.reshape(-1, k) for h, _ in projected]).T
    kept_h, kept_r = [], []
    start = 0
    for h, r in projected:
        g, m, _ = h.shape
        block = p_ht[:, start:start + g * m].reshape(k, g, m).transpose(1, 0, 2)
        start += g * m
        gamma = np.einsum("gi,gi->g", r, np.linalg.solve(h @ block + np.eye(m),
                                                         r[..., None])[..., 0])
        keep = gamma <= state._chi2_gate(m)
        report.gated += int(np.count_nonzero(~keep))
        report.used += int(np.count_nonzero(keep))
        kept_h.append(h[keep].reshape(-1, k))
        kept_r.append(r[keep].ravel())
    h_all = np.concatenate(kept_h)
    r_all = np.concatenate(kept_r)
    report.rows = len(r_all)
    if not report.rows:
        return
    _schmidt_update(state, h_all, cols, r_all)


def update_local(state: FilterState, tracks: list[FeatureTrack]) -> FilterState:
    """MSCKF update from feature tracks over the sliding window.

    Features are triangulated from the current clone estimates, their
    position dependency removed by left null-space projection (asserted
    orthogonal), then a Schmidt-style update is applied on the clone
    columns only, so map keyframes stay frozen here too.  Tracks with the
    same number of observations in the window are processed as one stack.
    """
    report = UpdateReport()
    cfg = state.config
    n_clones = state.n_clones
    slots = {key[1]: k for k, key in enumerate(state.keys[:n_clones])}
    by_length: dict[int, list] = {}
    for track in tracks[: cfg.max_tracks_per_update]:
        obs = [o for o in track.observations if o.frame in slots]
        if len(obs) < 2:
            report.skipped += 1
            continue
        by_length.setdefault(len(obs), []).append(obs)

    rig = state._rig
    clone_r = _quat_to_matrix(state.quats[:n_clones])
    clone_p = state.positions[:n_clones]
    sigma = cfg.local_sigma_px
    groups = []
    for n_obs, group in sorted(by_length.items()):
        slot = np.array([[slots[o.frame] for o in obs] for obs in group])
        cam = np.array([[rig.index[o.camera_id] for o in obs] for obs in group])
        pixels = np.array([[o.pixel for o in obs] for obs in group], dtype=float)
        r_il, p_clone = clone_r[slot], clone_p[slot]
        r_ci, t_ci, intr = rig.r_ci[cam], rig.t_ci[cam], rig.intrinsics[cam]
        r_cw = r_ci @ r_il
        point, ok = _triangulate_tracks(r_cw, t_ci - _transform(r_cw, p_clone),
                                        pixels, intr)
        p_in_imu = _transform(r_il, point[:, None, :] - p_clone)
        p_c = _transform(r_ci, p_in_imu) + t_ci
        ok &= (p_c[..., 2] >= 1e-2).all(axis=1)
        report.skipped += int(np.count_nonzero(~ok))
        if not ok.any():
            continue
        slot, pixels, r_il, r_ci, intr = slot[ok], pixels[ok], r_il[ok], r_ci[ok], intr[ok]
        p_in_imu, p_c = p_in_imu[ok], p_c[ok]
        g = len(slot)
        fx, fy, cx, cy = np.moveaxis(intr, -1, 0)
        d_imu = _pinhole_jacobian(p_c, fx, fy) @ r_ci
        h_f = d_imu @ r_il
        h = np.zeros((g, n_obs, 2, n_clones, 6))
        h[np.arange(g)[:, None], np.arange(n_obs), :, slot] = np.concatenate(
            [d_imu @ skew(p_in_imu), -h_f], axis=-1)
        resid = pixels - project_points(p_c, fx, fy, cx, cy)
        # whiten (unit noise) before the null-space projection
        h /= sigma
        groups.append((h.reshape(g, 2 * n_obs, 6 * n_clones),
                       h_f.reshape(g, 2 * n_obs, 3) / sigma,
                       resid.reshape(g, 2 * n_obs) / sigma))
    _update_features(state, groups, IMU_DIM + np.arange(6 * n_clones), report)
    state.last_report = report
    return state


# -- map updates ----------------------------------------------------------------


def register_map(state: FilterState, bundle: MapBundle,
                 map_from_local: RigidTransform) -> FilterState:
    """Augment the state with a new map transform (and remember the bundle)."""
    if bundle.map_id in state.bundles:
        raise FilterError(f"map {bundle.map_id} already registered")
    cfg = state.config
    _insert_pose(state, len(state.quats), ("map", bundle.map_id), np.zeros((6, state.dim)),
                 np.diag([cfg.tau_sigma_rot ** 2] * 3 + [cfg.tau_sigma_pos ** 2] * 3),
                 (map_from_local.rotation.quaternion, map_from_local.translation))
    state.bundles[bundle.map_id] = bundle
    return state


def ensure_keyframe(state: FilterState, map_id: int, kf_id: int) -> bool:
    """Lift a map keyframe into the nuisance block (no-op when present).

    Returns False when the keyframe cannot be lifted (zero-sigma mode or the
    nuisance budget is exhausted); callers then treat its pose as constant.
    """
    cfg = state.config
    if cfg.kf_sigma_pos == 0.0 and cfg.kf_sigma_rot == 0.0:
        return False
    key = ("kf", map_id, kf_id)
    if key in state.keys:
        return True
    if state.nuisance_dim >= 6 * cfg.max_nuisance_keyframes:
        return False
    _insert_pose(state, len(state.keys), key, np.zeros((6, state.dim)),
                 np.diag([cfg.kf_sigma_rot ** 2] * 3 + [cfg.kf_sigma_pos ** 2] * 3))
    return True


def _keyframe_pose(state: FilterState, map_id: int, kf_id: int, slots: dict) -> tuple:
    """(quaternion, position, nuisance slot or -1) of a map keyframe.

    The pose is its bundle's (a nuisance mean never moves); a lifted
    keyframe also gets the next free slot.
    """
    pose = state.bundles[map_id].keyframes[kf_id].pose
    key = ("kf", map_id, kf_id)
    slot = slots.setdefault(key, len(slots)) if key in state.keys else -1
    return pose.rotation.quaternion, pose.translation, slot


def _map_rows(state: FilterState, obs: MapObservation, landmarks: list) -> tuple:
    """Rows of every measurement of ``landmarks`` as stacked 2-row blocks.

    ``landmarks`` lists (landmark_id, items, map_position).  Each landmark
    contributes, in this order, a block per current-camera item (pixels), per
    intra-map keyframe anchor and per cross-map keyframe (normalized
    coordinates); a block whose point lies less than 1e-2 in front of its
    camera is dropped.  The state columns ``cols`` are the IMU attitude and
    position, every map transform, then the lifted keyframes the blocks
    use; every other column of H is zero.

    Returns ``(owner, h, cols, h_f, resid, sigma)``: the index into
    ``landmarks`` of each block (non-decreasing), its Jacobian on ``cols``
    (nb, 2, len(cols)), its landmark Jacobian (nb, 2, 3), residual (nb, 2)
    and pixel-equivalent sigma (nb,).
    """
    cfg = state.config
    rig = state._rig
    map_ids = list(state.bundles)
    n_maps = len(map_ids)
    n_clones = state.n_clones
    tau_r = _quat_to_matrix(state.quats[n_clones:])
    tau_p = state.positions[n_clones:]
    home = map_ids.index(obs.map_id)
    r_gl, p_tau = tau_r[home], tau_p[home]
    r_il = _quat_to_matrix(state.q_IL)
    bundle = state.bundles[obs.map_id]
    cross_by_lm: dict[int, list] = {}
    for x_lm, other_map, other_lm in obs.cross:
        cross_by_lm.setdefault(x_lm, []).append((other_map, other_lm))

    # one Python pass collects what each block reads; the maths is stacked
    cam_blocks, kf_blocks = [], []
    slots: dict[tuple[int, int], int] = {}
    for i, (lm_id, items, _) in enumerate(landmarks):
        for item in items:
            cam_blocks.append((len(cam_blocks) + len(kf_blocks), i,
                               rig.index[item.camera_id], item.pixel))
        stored = bundle.landmarks[lm_id].position
        for kf_id in obs.anchors.get(lm_id, ())[: cfg.anchors_per_landmark]:
            kf_blocks.append((len(cam_blocks) + len(kf_blocks), i,
                              *_keyframe_pose(state, obs.map_id, kf_id, slots),
                              stored, -1))
        for other_map, other_lm in cross_by_lm.get(lm_id, ()):
            if other_map not in state.bundles:
                continue
            other_rec = state.bundles[other_map].landmarks.get(other_lm)
            if other_rec is None:
                continue
            for kf_id in other_rec.observing_keyframes[: cfg.cross_anchors_per_landmark]:
                kf_blocks.append((len(cam_blocks) + len(kf_blocks), i,
                                  *_keyframe_pose(state, other_map, kf_id, slots),
                                  other_rec.position, map_ids.index(other_map)))

    # column blocks of 6: IMU (attitude, position), each map, each lifted keyframe
    n_blocks = len(cam_blocks) + len(kf_blocks)
    h = np.zeros((n_blocks, 2, 1 + n_maps + len(slots), 6))
    h_f = np.empty((n_blocks, 2, 3))
    resid = np.empty((n_blocks, 2))
    sigma = np.empty(n_blocks)
    valid = np.empty(n_blocks, dtype=bool)
    owner = np.empty(n_blocks, dtype=int)
    point_map = np.array([pos for _, _, pos in landmarks]).reshape(-1, 3)
    point_local = (point_map - p_tau) @ r_gl  # R_GL^T (p_G - p_GL), per row
    local_th = -r_gl.T @ skew(point_map - p_tau)  # d point_local / d tau attitude
    tau_col = 1 + home
    with np.errstate(divide="ignore", invalid="ignore"):
        if cam_blocks:
            pos, own, cam, pix = (np.array(c) for c in zip(*cam_blocks))
            r_ci, intr = rig.r_ci[cam], rig.intrinsics[cam]
            p_in_imu = (point_local[own] - state.p) @ r_il.T
            p_c = _transform(r_ci, p_in_imu) + rig.t_ci[cam]
            d_imu = _pinhole_jacobian(p_c, intr[:, 0], intr[:, 1]) @ r_ci
            d_local = d_imu @ r_il  # sensitivity to the point in {L}
            h[pos, :, 0, :3] = d_imu @ skew(p_in_imu)
            h[pos, :, 0, 3:] = -d_local
            h[pos, :, tau_col, :3] = d_local @ local_th[own]
            h[pos, :, tau_col, 3:] = -d_local @ r_gl.T
            h_f[pos] = d_local @ r_gl.T
            resid[pos] = pix - project_points(p_c, *intr.T)
            sigma[pos] = cfg.map_sigma_px * cfg.map_inflation
            valid[pos] = p_c[:, 2] >= 1e-2
            owner[pos] = own
        if kf_blocks:
            pos, own, q_kf, p_kf, slot, measured, other = (np.array(c)
                                                           for c in zip(*kf_blocks))
            r_kf_t = _quat_to_matrix(q_kf).transpose(0, 2, 1)
            cross = other >= 0
            # the landmark in the keyframe's map: stored position for an
            # anchor, tau_s applied to the local-frame point for a cross row
            source = np.where(cross, other, home)  # an anchor's is never used
            r_sl = tau_r[source]
            rotated = _transform(r_sl, point_local[own])
            in_map = np.where(cross[:, None], rotated + tau_p[source], point_map[own])
            p_k = _transform(r_kf_t, in_map - p_kf)
            z_k = _transform(r_kf_t, measured - p_kf)
            nj = _pinhole_jacobian(p_k)
            d_map = nj @ r_kf_t
            d_local = d_map @ r_sl
            c_pos, c_own = pos[cross], own[cross]
            h[c_pos, :, 1 + other[cross], :3] = d_map[cross] @ skew(rotated[cross])
            h[c_pos, :, 1 + other[cross], 3:] = d_map[cross]
            h[c_pos, :, tau_col, :3] = d_local[cross] @ local_th[c_own]
            h[c_pos, :, tau_col, 3:] = -d_local[cross] @ r_gl.T
            h_f[pos] = np.where(cross[:, None, None], d_local @ r_gl.T, d_map)
            nuis = slot >= 0
            h[pos[nuis], :, 1 + n_maps + slot[nuis], :3] = \
                nj[nuis] @ (-r_kf_t[nuis] @ skew((in_map - p_kf)[nuis]))
            h[pos[nuis], :, 1 + n_maps + slot[nuis], 3:] = -d_map[nuis]
            resid[pos] = z_k[:, :2] / z_k[:, 2:] - p_k[:, :2] / p_k[:, 2:]
            sigma[pos] = cfg.map_sigma_px * cfg.map_inflation / rig.f_ref
            valid[pos] = (p_k[:, 2] >= 1e-2) & (z_k[:, 2] >= 1e-2)
            owner[pos] = own
    first_tau = IMU_DIM + 6 * n_clones
    cols = np.concatenate([[0, 1, 2, 6, 7, 8], first_tau + np.arange(6 * n_maps),
                           *(state.slot(key) + np.arange(6) for key in slots)])
    h = h.reshape(n_blocks, 2, len(cols))
    return owner[valid], h[valid], cols, h_f[valid], resid[valid], sigma[valid]


def update_map(state: FilterState, obs: MapObservation) -> FilterState:
    """Schmidt-EKF update from filtered map matches (Eq.-13/14/15 structure).

    Landmark positions are never states: each landmark's rows are projected
    onto the left null space of its position Jacobian.  Nuisance keyframe
    means and their covariance block are bit-identical before and after.
    Landmarks with the same number of row blocks are processed as one stack.
    """
    if obs.map_id not in state.bundles:
        raise FilterError(f"map {obs.map_id} is not registered")
    cfg = state.config
    report = UpdateReport()

    # lift anchors first (state augmentation, not part of the update proper)
    for lm_id, kf_ids in obs.anchors.items():
        for kf_id in kf_ids[: cfg.anchors_per_landmark]:
            ensure_keyframe(state, obs.map_id, kf_id)
    for _, other_map, other_lm in obs.cross:
        if other_map not in state.bundles:
            continue
        rec = state.bundles[other_map].landmarks.get(other_lm)
        if rec is None:
            continue
        for kf_id in rec.observing_keyframes[: cfg.cross_anchors_per_landmark]:
            ensure_keyframe(state, other_map, kf_id)

    by_landmark: dict[int, list[MapMatchItem]] = {}
    for item in obs.matches:
        by_landmark.setdefault(item.landmark_id, []).append(item)
    bundle = state.bundles[obs.map_id]
    landmarks = []
    for lm_id, items in sorted(by_landmark.items()):
        rec = bundle.landmarks.get(lm_id)
        if rec is None:
            report.skipped += 1
            continue
        landmarks.append((lm_id, items, rec.position))

    owner, h, cols, h_f, resid, sigma = _map_rows(state, obs, landmarks)
    # whiten all rows to unit noise: the null-space split is only
    # information-preserving on whitened Jacobians, and the projected
    # measurement covariance becomes exactly identity
    w = 1.0 / sigma
    h *= w[:, None, None]
    h_f *= w[:, None, None]
    resid *= w[:, None]
    counts = np.bincount(owner, minlength=len(landmarks))
    # a single 2-row block leaves nothing after removing 3 landmark dofs
    report.skipped += int(np.count_nonzero(counts < 2))
    starts = np.cumsum(counts) - counts
    groups = []
    for n_blk in np.unique(counts[counts >= 2]):
        idx = starts[counts == n_blk][:, None] + np.arange(n_blk)
        g, m = len(idx), 2 * int(n_blk)
        groups.append((h[idx].reshape(g, m, len(cols)), h_f[idx].reshape(g, m, 3),
                       resid[idx].reshape(g, m)))
    _update_features(state, groups, cols, report)
    state.last_report = report
    return state


def current_pose_in_map(state: FilterState, map_id: int) -> RigidTransform:
    """Causal output: map_from_imu = map_from_local * local_from_imu."""
    if map_id not in state.bundles:
        raise FilterError(f"map {map_id} is not registered")
    return state.map_from_local(map_id) @ state.world_from_imu()
