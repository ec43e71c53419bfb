"""Reference filter code: the per-track, per-landmark and per-sample forms.

``mapvins.msckf`` runs each filter step on stacked arrays.  This module keeps
the readable one-object-at-a-time version of the same mathematics, so tests
can run both on one input and compare: ``propagate`` (one Phi per IMU
sample), ``triangulate`` (one least-squares solve per track),
``update_local`` (one SVD null space and one gate per track, then one
Schmidt update with an explicit all-zero nuisance Jacobian) and
``update_map`` (one row-assembly call and one full ``H P H^T`` gate per
landmark).  Each used feature adds its gamma and dof to the report's NIS.
Each function has the signature of its ``mapvins.msckf`` counterpart and
mutates the state the same way.
"""

from __future__ import annotations

import numpy as np

from mapvins.cameras import CameraModel
from mapvins.geometry import GRAVITY, RigidTransform, Rotation, skew
from mapvins.msckf import (
    _BA,
    _BG,
    _P,
    _TH,
    _V,
    IMU_DIM,
    FeatureTrack,
    FilterError,
    FilterState,
    MapMatchItem,
    MapObservation,
    UpdateReport,
    _apply_active_correction,
    ensure_keyframe,
)
from mapvins.sim import ImuSample


def propagate(state: FilterState, samples: list[ImuSample]) -> FilterState:
    """IMU mean and covariance propagation over a batch of samples.

    Mean: closed-form rotation with averaged rates, trapezoidal velocity and
    position.  Covariance: first-order Phi and additive noise, compounded
    per sample and applied to P once per batch.  Map transforms and nuisance
    keyframes are untouched by construction.
    """
    if len(samples) < 2:
        return state
    cfg = state.config
    phi_acc = np.eye(IMU_DIM)
    q_acc = np.zeros((IMU_DIM, IMU_DIM))
    q_il = Rotation(state.q_IL)
    t_prev = state.time
    for s0, s1 in zip(samples[:-1], samples[1:]):
        dt = s1.t - s0.t
        if dt <= 0 or s0.t < t_prev - 1e-12:
            raise FilterError(f"non-monotone IMU timestamps near t={s0.t}")
        t_prev = s0.t

        r_il = q_il.as_matrix()
        omega = 0.5 * (s0.gyro + s1.gyro) - state.bg
        acc0 = s0.accel - state.ba
        acc1 = s1.accel - state.ba

        rot_inc = Rotation.from_rotvec(-omega * dt)
        q_next = rot_inc @ q_il
        r_il_next = q_next.as_matrix()
        q_mid = Rotation.from_rotvec(-omega * (0.5 * dt)) @ q_il
        # Simpson quadrature of the rotated specific force (midpoint rotation
        # is exact for piecewise-constant rates); needed to hold the 1e-5 m
        # round-trip budget at 200 Hz
        f_0 = r_il.T @ acc0 + GRAVITY
        f_mid = q_mid.as_matrix().T @ (0.5 * (acc0 + acc1)) + GRAVITY
        f_1 = r_il_next.T @ acc1 + GRAVITY
        v_next = state.v + dt / 6.0 * (f_0 + 4.0 * f_mid + f_1)
        p_next = state.p + state.v * dt + dt * dt / 6.0 * (f_0 + 2.0 * f_mid)

        e_mat = rot_inc.as_matrix()
        phi = np.eye(IMU_DIM)
        phi[_TH, _TH] = e_mat
        phi[_TH, _BG] = -dt * e_mat
        phi[_V, _TH] = -dt * r_il.T @ skew(acc0)
        phi[_V, _BA] = -dt * r_il.T
        phi[_P, _V] = dt * np.eye(3)
        phi[_P, _TH] = -0.5 * dt * dt * r_il.T @ skew(acc0)
        phi[_P, _BA] = -0.5 * dt * dt * r_il.T

        q_step = np.zeros((IMU_DIM, IMU_DIM))
        q_step[_TH, _TH] = (cfg.sigma_g * dt) ** 2 * np.eye(3)
        q_step[_V, _V] = (cfg.sigma_a * dt) ** 2 * np.eye(3)
        q_step[_BG, _BG] = cfg.sigma_wg ** 2 * np.eye(3)
        q_step[_BA, _BA] = cfg.sigma_wa ** 2 * np.eye(3)

        phi_acc = phi @ phi_acc
        q_acc = phi @ q_acc @ phi.T + q_step

        q_il = q_next
        state.v = v_next
        state.p = p_next

    state.q_IL = q_il.quaternion.copy()
    n = state.dim
    state.P[:IMU_DIM, :IMU_DIM] = (phi_acc @ state.P[:IMU_DIM, :IMU_DIM] @ phi_acc.T
                                   + q_acc)
    if n > IMU_DIM:
        state.P[:IMU_DIM, IMU_DIM:n] = phi_acc @ state.P[:IMU_DIM, IMU_DIM:n]
        state.P[IMU_DIM:n, :IMU_DIM] = state.P[:IMU_DIM, IMU_DIM:n].T
    state.P[:n, :n] = 0.5 * (state.P[:n, :n] + state.P[:n, :n].T)
    state.time = samples[-1].t
    return state


def _schmidt_update(state: FilterState, h_active: np.ndarray,
                    h_nuisance: np.ndarray, residual: np.ndarray,
                    noise: np.ndarray) -> None:
    """Schmidt-EKF step: gain on the active block only, nuisance frozen.

    ``noise`` is the (already projected) measurement covariance.  P_NN and
    the nuisance means are left untouched; cross covariance P_AN updated.
    """
    a = state.active_dim
    n = state.dim
    p_aa = state.P[:a, :a]
    p_an = state.P[:a, a:n]
    p_nn = state.P[a:n, a:n]
    u = p_aa @ h_active.T
    v = p_an @ h_nuisance.T if h_nuisance.size else np.zeros((a, 0))
    if h_nuisance.size:
        u = u + v
        s_mat = (h_active @ p_aa @ h_active.T
                 + h_active @ p_an @ h_nuisance.T
                 + h_nuisance @ p_an.T @ h_active.T
                 + h_nuisance @ p_nn @ h_nuisance.T + noise)
    else:
        s_mat = h_active @ u + noise
    s_mat = 0.5 * (s_mat + s_mat.T)
    try:
        k_gain = np.linalg.solve(s_mat, u.T).T
    except np.linalg.LinAlgError:
        k_gain = u @ np.linalg.pinv(s_mat)
    dx = k_gain @ residual
    _apply_active_correction(state, dx)
    state.P[:a, :a] = p_aa - k_gain @ u.T
    if n > a:
        w = h_active @ p_an
        if h_nuisance.size:
            w = w + h_nuisance @ p_nn
        state.P[:a, a:n] = p_an - k_gain @ w
        state.P[a:n, :a] = state.P[:a, a:n].T
    state.P[:a, :a] = 0.5 * (state.P[:a, :a] + state.P[:a, :a].T)


def _projection_jacobian(cam: CameraModel, p_c: np.ndarray) -> np.ndarray:
    x, y, z = p_c
    return np.array([[cam.fx / z, 0.0, -cam.fx * x / z ** 2],
                     [0.0, cam.fy / z, -cam.fy * y / z ** 2]])


def _normalized_jacobian(p_c: np.ndarray) -> np.ndarray:
    x, y, z = p_c
    return np.array([[1.0 / z, 0.0, -x / z ** 2],
                     [0.0, 1.0 / z, -y / z ** 2]])


def triangulate(world_from_cams: list[RigidTransform], pixels: list[np.ndarray],
                cams: list[CameraModel]):
    """Linear DLT triangulation followed by two Gauss-Newton steps."""
    cams_from_world = [wfc.inverse() for wfc in world_from_cams]
    return _triangulate_views([c.rotation.as_matrix() for c in cams_from_world],
                              [c.translation for c in cams_from_world], pixels, cams)


def _triangulate_views(r_cw: list[np.ndarray], t_cw: list[np.ndarray],
                       pixels: list[np.ndarray], cams: list[CameraModel]):
    """``triangulate`` from each view's camera-from-world rotation matrix and translation."""
    rows = []
    rhs = []
    for r, t, pix, cam in zip(r_cw, t_cw, pixels, cams):
        ray = r.T @ cam.normalize(pix)
        ray = ray / np.linalg.norm(ray)
        b1 = np.cross(np.array([0.0, 0.0, 1.0]) if abs(ray[2]) < 0.9
                      else np.array([1.0, 0.0, 0.0]), ray)
        b1 /= np.linalg.norm(b1)
        b2 = np.cross(ray, b1)
        center = -r.T @ t
        for b in (b1, b2):
            rows.append(b)
            rhs.append(b @ center)
    a_mat = np.array(rows)
    b_vec = np.array(rhs)
    try:
        point, res, rank, sv = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if rank < 3 or sv[-1] < 1e-6 * sv[0]:
        return None
    for _ in range(2):  # small GN polish on pixel residuals
        jac = []
        res_v = []
        for r, t, pix, cam in zip(r_cw, t_cw, pixels, cams):
            p_c = r @ point + t
            if p_c[2] < 1e-2:
                return None
            jac.append(_projection_jacobian(cam, p_c) @ r)
            res_v.append(pix - cam.project(p_c))
        jac = np.vstack(jac)
        res_v = np.concatenate(res_v)
        try:
            step, *_ = np.linalg.lstsq(jac, res_v, rcond=None)
        except np.linalg.LinAlgError:
            return None
        point = point + step
    return point


def _clone_pose(state: FilterState, frame: int):
    """(Rotation, position) of the clone of ``frame``; None outside the window."""
    if ("clone", frame) not in state.keys:
        return None
    row = state.keys.index(("clone", frame))
    return Rotation(state.quats[row]), state.positions[row]


def update_local(state: FilterState, tracks: list[FeatureTrack]) -> FilterState:
    """MSCKF update from feature tracks over the sliding window.

    Features are triangulated from the current clone estimates, their
    position dependency removed by left null-space projection (asserted
    orthogonal), then a Schmidt-style update is applied with an empty
    nuisance Jacobian, so map keyframes stay frozen here too.
    """
    report = UpdateReport()
    cfg = state.config
    stacked_h = []
    stacked_r = []
    sigma = cfg.local_sigma_px
    a = state.active_dim

    for track in tracks[: cfg.max_tracks_per_update]:
        obs = [o for o in track.observations if _clone_pose(state, o.frame) is not None]
        if len(obs) < 2:
            report.skipped += 1
            continue
        # each camera pose composed as a matrix product R_CI R_IL, like
        # mapvins.msckf, so the comparison sees the update arithmetic only
        r_cw, t_cw = [], []
        for o in obs:
            cam_from_imu = state.rig[o.camera_id].imu_from_camera.inverse()
            q_clone, p_clone = _clone_pose(state, o.frame)
            r_cw.append(cam_from_imu.rotation.as_matrix() @ q_clone.as_matrix())
            t_cw.append(cam_from_imu.translation - r_cw[-1] @ p_clone)
        point = _triangulate_views(r_cw, t_cw, [o.pixel for o in obs],
                                   [state.rig[o.camera_id] for o in obs])
        if point is None:
            report.skipped += 1
            continue
        rows_x = np.zeros((2 * len(obs), a))
        rows_f = np.zeros((2 * len(obs), 3))
        resid = np.zeros(2 * len(obs))
        ok = True
        for k, o in enumerate(obs):
            cam = state.rig[o.camera_id]
            q_clone, p_clone = _clone_pose(state, o.frame)
            r_il = q_clone.as_matrix()
            cam_from_imu = cam.imu_from_camera.inverse()
            r_ci = cam_from_imu.rotation.as_matrix()
            p_in_imu = r_il @ (point - p_clone)
            p_c = r_ci @ p_in_imu + cam_from_imu.translation
            if p_c[2] < 1e-2:
                ok = False
                break
            pj = _projection_jacobian(cam, p_c)
            base = state.slot(("clone", o.frame))
            rows_x[2 * k:2 * k + 2, base:base + 3] = pj @ r_ci @ skew(p_in_imu)
            rows_x[2 * k:2 * k + 2, base + 3:base + 6] = -pj @ r_ci @ r_il
            rows_f[2 * k:2 * k + 2] = pj @ r_ci @ r_il
            resid[2 * k:2 * k + 2] = o.pixel - cam.project(p_c)
        if not ok:
            report.skipped += 1
            continue
        # whiten (unit noise), then remove the landmark by left null-space
        # projection of the feature Jacobian
        rows_x = rows_x / sigma
        rows_f = rows_f / sigma
        resid = resid / sigma
        u_mat, _, _ = np.linalg.svd(rows_f, full_matrices=True)
        nullspace = u_mat[:, 3:]
        report.max_nullspace_residual = max(
            report.max_nullspace_residual,
            float(np.abs(nullspace.T @ rows_f).max()))
        h_proj = nullspace.T @ rows_x
        r_proj = nullspace.T @ resid
        s_mat = h_proj @ state.P[:a, :a] @ h_proj.T + np.eye(len(r_proj))
        gamma = float(r_proj @ np.linalg.solve(s_mat, r_proj))
        if gamma > state._chi2_gate(len(r_proj)):
            report.gated += 1
            continue
        stacked_h.append(h_proj)
        stacked_r.append(r_proj)
        report.used += 1
        report.nis += gamma
        report.nis_dof += len(r_proj)

    if stacked_h:
        h_all = np.vstack(stacked_h)
        r_all = np.concatenate(stacked_r)
        report.rows = len(r_all)
        _schmidt_update(state, h_all, np.zeros((len(r_all), state.nuisance_dim)),
                        r_all, np.eye(len(r_all)))
    state.last_report = report
    return state


def _map_rows_for_landmark(state: FilterState, obs: MapObservation,
                           items: list[MapMatchItem], point_map: np.ndarray):
    """Stacked rows (active, nuisance, feature, residual, noise) for one landmark.

    A keyframe's pose is its bundle's; a lifted one also gets nuisance columns.
    """
    cfg = state.config
    a = state.active_dim
    n_dim = state.nuisance_dim
    map_id = obs.map_id
    tau = state.map_from_local(map_id)
    p_tau = tau.translation
    r_gl = tau.rotation.as_matrix()
    r_il = Rotation(state.q_IL).as_matrix()

    rows_a, rows_n, rows_f, resid, sigmas = [], [], [], [], []
    tau_base = state.slot(("map", map_id))

    # current-camera rows (pixels)
    point_local = r_gl.T @ (point_map - p_tau)
    for item in items:
        cam = state.rig[item.camera_id]
        cam_from_imu = cam.imu_from_camera.inverse()
        r_ci = cam_from_imu.rotation.as_matrix()
        p_in_imu = r_il @ (point_local - state.p)
        p_c = r_ci @ p_in_imu + cam_from_imu.translation
        if p_c[2] < 1e-2:
            continue
        pj = _projection_jacobian(cam, p_c)
        d_imu = pj @ r_ci
        row_a = np.zeros(a)
        row_n = np.zeros(n_dim)
        mat_th = d_imu @ skew(p_in_imu)
        mat_p = -d_imu @ r_il
        d_local = d_imu @ r_il  # sensitivity to the point in {L}
        mat_tau_th = d_local @ (-r_gl.T @ skew(point_map - p_tau))
        mat_tau_p = d_local @ (-r_gl.T)
        d_f = d_local @ r_gl.T
        row_block = np.zeros((2, a))
        row_block[:, 0:3] = mat_th
        row_block[:, 6:9] = mat_p
        row_block[:, tau_base:tau_base + 3] = mat_tau_th
        row_block[:, tau_base + 3:tau_base + 6] = mat_tau_p
        rows_a.append(row_block)
        rows_n.append(np.zeros((2, n_dim)))
        rows_f.append(d_f)
        resid.extend(item.pixel - cam.project(p_c))
        sigmas.extend([cfg.map_sigma_px * cfg.map_inflation] * 2)

    # intra-map keyframe anchor rows (normalized coordinates)
    bundle = state.bundles[map_id]
    lm_id = items[0].landmark_id
    for kf_id in obs.anchors.get(lm_id, ())[: cfg.anchors_per_landmark]:
        kf_pose = bundle.keyframes[kf_id].pose
        q_kf, p_kf = kf_pose.rotation, kf_pose.translation
        use_nuisance = ("kf", map_id, kf_id) in state.keys
        r_gkf = q_kf.as_matrix()
        stored = bundle.landmarks[lm_id].position
        p_k = r_gkf.T @ (point_map - p_kf)
        z_meas_p = r_gkf.T @ (stored - p_kf)
        if p_k[2] < 1e-2 or z_meas_p[2] < 1e-2:
            continue
        nj = _normalized_jacobian(p_k)
        row_block = np.zeros((2, a))
        row_n = np.zeros((2, n_dim))
        d_f = nj @ r_gkf.T
        if use_nuisance:
            base = state.slot(("kf", map_id, kf_id)) - a
            row_n[:, base:base + 3] = nj @ (-r_gkf.T @ skew(point_map - p_kf))
            row_n[:, base + 3:base + 6] = nj @ (-r_gkf.T)
        rows_a.append(row_block)
        rows_n.append(row_n)
        rows_f.append(d_f)
        cam0 = next(iter(state.rig.values()))
        f_ref = 0.5 * (cam0.fx + cam0.fy)
        resid.extend(z_meas_p[:2] / z_meas_p[2] - p_k[:2] / p_k[2])
        sigmas.extend([cfg.map_sigma_px * cfg.map_inflation / f_ref] * 2)

    # cross-map keyframe rows (normalized coordinates)
    for x_lm, other_map, other_lm in obs.cross:
        if x_lm != lm_id or other_map not in state.bundles:
            continue
        other_bundle = state.bundles[other_map]
        other_rec = other_bundle.landmarks.get(other_lm)
        if other_rec is None:
            continue
        tau_s = state.map_from_local(other_map)
        p_tau_s = tau_s.translation
        r_sl = tau_s.rotation.as_matrix()
        tau_s_base = state.slot(("map", other_map))
        for kf_id in other_rec.observing_keyframes[: cfg.cross_anchors_per_landmark]:
            kf_pose = other_bundle.keyframes[kf_id].pose
            q_kf, p_kf = kf_pose.rotation, kf_pose.translation
            use_nuisance = ("kf", other_map, kf_id) in state.keys
            r_skf = q_kf.as_matrix()
            v_s = r_sl @ point_local + p_tau_s
            p_k = r_skf.T @ (v_s - p_kf)
            z_meas_p = r_skf.T @ (other_rec.position - p_kf)
            if p_k[2] < 1e-2 or z_meas_p[2] < 1e-2:
                continue
            nj = _normalized_jacobian(p_k)
            d_vs = nj @ r_skf.T
            row_block = np.zeros((2, a))
            row_n = np.zeros((2, n_dim))
            # through tau_s
            row_block[:, tau_s_base:tau_s_base + 3] = d_vs @ skew(r_sl @ point_local)
            row_block[:, tau_s_base + 3:tau_s_base + 6] = d_vs
            # through tau_k via the local-frame point
            d_local = d_vs @ r_sl
            row_block[:, tau_base:tau_base + 3] = \
                d_local @ (-r_gl.T @ skew(point_map - p_tau))
            row_block[:, tau_base + 3:tau_base + 6] = d_local @ (-r_gl.T)
            d_f = d_local @ r_gl.T
            if use_nuisance:
                base = state.slot(("kf", other_map, kf_id)) - a
                row_n[:, base:base + 3] = nj @ (-r_skf.T @ skew(v_s - p_kf))
                row_n[:, base + 3:base + 6] = nj @ (-r_skf.T)
            rows_a.append(row_block)
            rows_n.append(row_n)
            rows_f.append(d_f)
            cam0 = next(iter(state.rig.values()))
            f_ref = 0.5 * (cam0.fx + cam0.fy)
            resid.extend(z_meas_p[:2] / z_meas_p[2] - p_k[:2] / p_k[2])
            sigmas.extend([cfg.map_sigma_px * cfg.map_inflation / f_ref] * 2)

    if not rows_a:
        return None
    return (np.vstack(rows_a), np.vstack(rows_n), np.vstack(rows_f),
            np.array(resid), np.array(sigmas))


def update_map(state: FilterState, obs: MapObservation) -> FilterState:
    """Schmidt-EKF update from filtered map matches (Eq.-13/14/15 structure).

    Landmark positions are never states: each landmark's rows are projected
    onto the left null space of its position Jacobian.  Nuisance keyframe
    means and their covariance block are bit-identical before and after.
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

    a = state.active_dim
    n_dim = state.nuisance_dim
    by_landmark: dict[int, list[MapMatchItem]] = {}
    for item in obs.matches:
        by_landmark.setdefault(item.landmark_id, []).append(item)

    stacked_a, stacked_n, stacked_r, stacked_sig = [], [], [], []
    for lm_id, items in sorted(by_landmark.items()):
        bundle = state.bundles[obs.map_id]
        rec = bundle.landmarks.get(lm_id)
        if rec is None:
            report.skipped += 1
            continue
        built = _map_rows_for_landmark(state, obs, items, rec.position)
        if built is None:
            report.skipped += 1
            continue
        rows_a, rows_n, rows_f, resid, sigmas = built
        if len(resid) <= 3:
            report.skipped += 1
            continue
        # whiten all rows to unit noise: the null-space split is only
        # information-preserving on whitened Jacobians, and the projected
        # measurement covariance becomes exactly identity
        w = 1.0 / np.asarray(sigmas)
        rows_a = rows_a * w[:, None]
        rows_n = rows_n * w[:, None]
        rows_f = rows_f * w[:, None]
        resid = resid * w
        u_mat, _, _ = np.linalg.svd(rows_f, full_matrices=True)
        nullspace = u_mat[:, 3:]
        report.max_nullspace_residual = max(
            report.max_nullspace_residual, float(np.abs(nullspace.T @ rows_f).max()))
        h_a = nullspace.T @ rows_a
        h_n = nullspace.T @ rows_n
        r_proj = nullspace.T @ resid
        p_full = state.P[:state.dim, :state.dim]
        h_full = np.hstack([h_a, h_n])
        s_mat = h_full @ p_full @ h_full.T + np.eye(len(r_proj))
        gamma = float(r_proj @ np.linalg.solve(s_mat, r_proj))
        if gamma > state._chi2_gate(len(r_proj)):
            report.gated += 1
            continue
        stacked_a.append(h_a)
        stacked_n.append(h_n)
        stacked_r.append(r_proj)
        report.used += 1
        report.nis += gamma
        report.nis_dof += len(r_proj)

    if stacked_a:
        h_a = np.vstack(stacked_a)
        h_n = np.vstack(stacked_n)
        r_all = np.concatenate(stacked_r)
        report.rows = len(r_all)
        _schmidt_update(state, h_a, h_n, r_all, np.eye(len(r_all)))
    state.last_report = report
    return state
