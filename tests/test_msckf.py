import numpy as np
import pytest

import mapvins.msckf as msckf
from mapvins.geometry import GRAVITY, RigidTransform, Rotation, yaw_rotation
from mapvins.mapmodel import Landmark, MapBundle, MapKeyframe
from mapvins.msckf import (
    IMU_DIM,
    FeatureTrack,
    FilterConfig,
    FilterError,
    FilterState,
    MapMatchItem,
    MapObservation,
    TrackObservation,
    _map_rows,
    _triangulate_tracks,
    _update_features,
    clone_and_marginalize,
    current_pose_in_map,
    ensure_keyframe,
    propagate,
    register_map,
    update_local,
    update_map,
)
from mapvins.sim import ImuSample, generate_trajectory, make_rig


def forward_camera():
    return make_rig(1)


def triangulate_batch(tracks):
    """Triangulate (world_from_cams, pixels, cams) tracks in one call, each
    padded to the longest by repeating its first view; None when rejected."""
    n = max(len(pixels) for _, pixels, _ in tracks)
    real = np.arange(n) < np.array([len(pixels) for _, pixels, _ in tracks])[:, None]

    def padded(rows):
        return np.array([list(r) + [r[0]] * (n - len(r)) for r in rows], dtype=float)

    cams_from_world = [[wfc.inverse() for wfc in poses] for poses, _, _ in tracks]
    points, ok = _triangulate_tracks(
        padded([[c.rotation.as_matrix() for c in cfw] for cfw in cams_from_world]),
        padded([[c.translation for c in cfw] for cfw in cams_from_world]),
        padded([pixels for _, pixels, _ in tracks]),
        padded([[[c.fx, c.fy, c.cx, c.cy] for c in cams] for _, _, cams in tracks]), real)
    return [point if kept else None for point, kept in zip(points, ok)]


def triangulate(world_from_cams, pixels, cams):
    """Triangulate one track with the batched kernel; None when rejected."""
    return triangulate_batch([(world_from_cams, pixels, cams)])[0]


def small_rotation(dtheta):
    """The rotation of the filter's error convention for a small ``dtheta``."""
    return Rotation(np.r_[0.5 * np.asarray(dtheta), 1.0])


def snapshot_nuisance(state):
    """The lifted keyframes' bundle poses and P_NN; asserts no keyframe mean is stored."""
    a = state.active_dim
    assert len(state.quats) == len(state.positions) == (a - 15) // 6
    assert all(key[0] == "kf" for key in state.keys[len(state.quats):])
    poses = [state.bundles[m].keyframes[k].pose for _, m, k in state.keys[len(state.quats):]]
    means = {key: (pose.rotation.quaternion.copy(), pose.translation.copy())
             for key, pose in zip(state.keys[len(state.quats):], poses)}
    return means, state.P[a:, a:].copy()


def make_map_bundle(map_id=1, seed=0, n_kf=3, n_lm=12):
    rng = np.random.default_rng(seed)
    cam = forward_camera()[0]
    keyframe_poses = []
    for k in range(n_kf):
        pose = RigidTransform(yaw_rotation(0.2 * k),
                              np.array([2.0 * k, 0.0, 1.0])) @ cam.imu_from_camera
        keyframe_poses.append(pose)
    landmarks = []
    observed = {}
    for i in range(n_lm):
        kf = i % n_kf
        pix = rng.uniform([40, 40], [600, 440])
        depth = rng.uniform(4, 10)
        point = keyframe_poses[kf].apply(cam.normalize(pix) * depth)
        observers = []
        for k, pose in enumerate(keyframe_poses):
            p_c = pose.inverse().apply(point)
            if p_c[2] > 0.3 and cam.in_bounds(cam.project(p_c)):
                observers.append(k)
        landmarks.append(Landmark(i, point, tuple(observers) or (kf,)))
        for k in observers or [kf]:
            observed.setdefault(k, []).append(i)
    keyframes = [MapKeyframe(k, keyframe_poses[k], tuple(observed.get(k, ())))
                 for k in range(n_kf)]
    return MapBundle(map_id, keyframes, landmarks)


class TestPropagate:
    def test_static_imu_holds_state(self):
        rig = forward_camera()
        truth = generate_trajectory("static", 1.0, 200.0)
        st = FilterState(FilterConfig(), rig)
        st.set_pose(truth.pose(0), truth.velocities[0])
        p0, v0 = st.p.copy(), st.v.copy()
        propagate(st, truth.imu)
        assert np.linalg.norm(st.p - p0) < 1e-9
        assert np.linalg.norm(st.v - v0) < 1e-9

    def test_circle_tracks_truth(self):
        rig = forward_camera()
        truth = generate_trajectory("circle", 10.0, 200.0, radius=5.0, angular_rate=0.5)
        st = FilterState(FilterConfig(), rig)
        st.set_pose(truth.pose(0), truth.velocities[0])
        propagate(st, truth.imu)
        assert np.linalg.norm(st.p - truth.positions[-1]) < 1e-5
        assert st.world_from_imu().rotation.angle_to(truth.rotations[-1]) < 1e-6

    def test_map_states_bit_identical(self):
        rig = forward_camera()
        truth = generate_trajectory("circle", 1.0, 200.0)
        st = FilterState(FilterConfig(), rig)
        st.set_pose(truth.pose(0), truth.velocities[0])
        bundle = make_map_bundle()
        register_map(st, bundle, RigidTransform(yaw_rotation(0.3), [1, 2, 3]))
        ensure_keyframe(st, 1, 0)
        assert st.keys == [("map", 1), ("kf", 1, 0)]
        tau_before = (st.quats.copy(), st.positions.copy())
        kf_before, nn_before = snapshot_nuisance(st)
        propagate(st, truth.imu)
        assert np.array_equal(st.quats, tau_before[0])
        assert np.array_equal(st.positions, tau_before[1])
        kf_after, nn_after = snapshot_nuisance(st)
        assert np.array_equal(kf_after[("kf", 1, 0)][0], kf_before[("kf", 1, 0)][0])
        assert np.array_equal(kf_after[("kf", 1, 0)][1], kf_before[("kf", 1, 0)][1])
        assert np.array_equal(nn_after, nn_before)

    def test_non_monotone_time_rejected(self):
        rig = forward_camera()
        st = FilterState(FilterConfig(), rig)
        samples = [ImuSample(0.0, np.zeros(3), -GRAVITY),
                   ImuSample(-0.01, np.zeros(3), -GRAVITY)]
        with pytest.raises(FilterError, match="non-monotone"):
            propagate(st, samples)


class TestClone:
    def test_clone_duplicates_pose(self):
        st = FilterState(FilterConfig(), forward_camera())
        st.set_pose(RigidTransform(yaw_rotation(0.5), [1.0, 2.0, 3.0]), np.zeros(3))
        clone_and_marginalize(st, 0)
        assert st.keys == [("clone", 0)]
        assert np.array_equal(st.quats[0], st.q_IL)
        assert np.array_equal(st.positions[0], st.p)

    def test_window_never_exceeds_bound(self):
        cfg = FilterConfig(window_size=11)
        st = FilterState(cfg, forward_camera())
        for k in range(1000):
            clone_and_marginalize(st, k)
            assert st.n_clones <= cfg.window_size
            assert st.P.shape == (st.dim, st.dim)

    def test_dimension_bookkeeping_with_maps(self):
        # Oracle: dimension arithmetic after random clone/marginalize cycles
        rng = np.random.default_rng(3)
        cfg = FilterConfig(window_size=5)
        st = FilterState(cfg, forward_camera())
        register_map(st, make_map_bundle(1), RigidTransform.identity())
        register_map(st, make_map_bundle(2, seed=5), RigidTransform.identity())
        ensure_keyframe(st, 1, 0)
        for k in range(100):
            clone_and_marginalize(st, k)
            if rng.uniform() < 0.2:
                ensure_keyframe(st, int(rng.integers(1, 3)), int(rng.integers(0, 3)))
            kinds = [key[0] for key in st.keys]
            assert kinds == sorted(kinds, key=["clone", "map", "kf"].index)
            assert kinds.count("clone") == min(k + 1, 5) and kinds.count("map") == 2
            assert len(st.quats) == len(st.positions) == kinds.count("clone") + 2
            expected = 15 + 6 * len(kinds)
            assert st.P.shape == (expected, expected)
            assert np.abs(st.P - st.P.T).max() < 1e-12


class TestRegisterMap:
    def test_dimension_growth_and_duplicate(self):
        st = FilterState(FilterConfig(), forward_camera())
        d0 = st.dim
        bundle = make_map_bundle()
        register_map(st, bundle, RigidTransform.identity())
        assert st.dim == d0 + 6
        ensure_keyframe(st, 1, 0)
        assert st.dim == d0 + 12
        with pytest.raises(FilterError, match="already registered"):
            register_map(st, bundle, RigidTransform.identity())

    def test_update_accepted_after_registration(self):
        st, bundle, obs = posed_state_with_observation()
        update_map(st, obs)
        assert st.last_report.used > 0

    def test_unregistered_map_rejected(self):
        st = FilterState(FilterConfig(), forward_camera())
        with pytest.raises(FilterError, match="not registered"):
            update_map(st, MapObservation(7, []))

    def test_zero_sigma_mode_skips_nuisance(self):
        cfg = FilterConfig(kf_sigma_pos=0.0, kf_sigma_rot=0.0)
        st = FilterState(cfg, forward_camera())
        register_map(st, make_map_bundle(), RigidTransform.identity())
        assert not ensure_keyframe(st, 1, 0)
        assert st.nuisance_dim == 0


def posed_state_with_observation(tau_offset=None, kf_lift=True, exact=True,
                                 sigma=FilterConfig()):
    """A filter state observing a registered map from a known true pose."""
    rig = forward_camera()
    cam = rig[0]
    cfg = sigma
    st = FilterState(cfg, rig)
    true_pose = RigidTransform(yaw_rotation(0.4), np.array([1.0, -0.5, 1.2]))
    st.set_pose(true_pose, np.zeros(3))
    st.set_imu_covariance(1e-2, 1e-2, 1e-1, 1e-4, 1e-3)
    bundle = make_map_bundle()
    map_from_local = RigidTransform(yaw_rotation(-0.7), np.array([3.0, 1.0, 0.0]))
    if tau_offset is not None:
        register_map(st, bundle, tau_offset @ map_from_local)
    else:
        register_map(st, bundle, map_from_local)
    items = []
    anchors = {}
    cam_from_world = (true_pose @ cam.imu_from_camera).inverse()
    for lm in bundle.landmarks.values():
        p_world = map_from_local.inverse().apply(lm.position)
        p_c = cam_from_world.apply(p_world)
        if p_c[2] < 0.3:
            continue
        pixel = cam.project(p_c)
        if not cam.in_bounds(pixel):
            continue
        items.append(MapMatchItem(0, pixel, lm.landmark_id))
        anchors[lm.landmark_id] = lm.observing_keyframes
    obs = MapObservation(1, items, anchors)
    return st, bundle, obs


class TestUpdateMap:
    def test_zero_residual_is_noop_and_schmidt_holds(self):
        st, bundle, obs = posed_state_with_observation()
        # lift anchors first so the nuisance snapshot covers them
        for lm_id, kfs in obs.anchors.items():
            for kf in kfs[:st.config.anchors_per_landmark]:
                ensure_keyframe(st, 1, kf)
        means_before, p_nn_before = snapshot_nuisance(st)
        p_before = st.p.copy()
        q_before = st.q_IL.copy()
        tau_before = st.map_from_local(1).translation
        update_map(st, obs)
        assert st.last_report.used > 0
        assert np.abs(st.p - p_before).max() < 1e-10
        assert np.abs(st.q_IL - q_before).max() < 1e-10
        assert np.abs(st.map_from_local(1).translation - tau_before).max() < 1e-10
        means_after, p_nn_after = snapshot_nuisance(st)
        for key, (q, p) in means_before.items():
            assert np.array_equal(means_after[key][0], q)
            assert np.array_equal(means_after[key][1], p)
        assert np.array_equal(p_nn_after, p_nn_before)

    def test_schmidt_contract_with_nonzero_residual(self):
        offset = RigidTransform(yaw_rotation(0.01), np.array([0.05, -0.03, 0.02]))
        st, bundle, obs = posed_state_with_observation(tau_offset=offset)
        for lm_id, kfs in obs.anchors.items():
            for kf in kfs[:st.config.anchors_per_landmark]:
                ensure_keyframe(st, 1, kf)
        means_before, p_nn_before = snapshot_nuisance(st)
        tau_p_before = st.map_from_local(1).translation
        update_map(st, obs)
        assert st.last_report.used > 0
        # nuisance frozen bit-for-bit, active tau moved
        means_after, p_nn_after = snapshot_nuisance(st)
        for key, (q, p) in means_before.items():
            assert np.array_equal(means_after[key][0], q)
            assert np.array_equal(means_after[key][1], p)
        assert np.array_equal(p_nn_after, p_nn_before)
        assert np.abs(st.map_from_local(1).translation - tau_p_before).max() > 1e-6

    def test_update_reduces_map_frame_pose_error(self):
        # the observation constrains the composed map-frame pose; measure that
        offset = RigidTransform(yaw_rotation(0.02), np.array([0.2, -0.1, 0.05]))
        st, bundle, obs = posed_state_with_observation(tau_offset=offset)
        true_map_from_local = RigidTransform(yaw_rotation(-0.7), np.array([3.0, 1.0, 0.0]))
        true_pose = RigidTransform(yaw_rotation(0.4), np.array([1.0, -0.5, 1.2]))
        truth_in_map = true_map_from_local @ true_pose
        err0 = np.linalg.norm(current_pose_in_map(st, 1).translation
                              - truth_in_map.translation)
        for _ in range(4):
            update_map(st, obs)
        err1 = np.linalg.norm(current_pose_in_map(st, 1).translation
                              - truth_in_map.translation)
        assert err1 < 0.2 * err0

    def test_gate_rejects_gross_outliers(self):
        st, bundle, obs = posed_state_with_observation()
        bad = [MapMatchItem(i.camera_id, i.pixel + np.array([80.0, -60.0]),
                            i.landmark_id) for i in obs.matches[:3]]
        obs_bad = MapObservation(1, bad, obs.anchors)
        update_map(st, obs_bad)
        assert st.last_report.gated == 3
        assert st.last_report.used == 0

    def test_covariance_stays_healthy(self):
        offset = RigidTransform(yaw_rotation(0.01), np.array([0.05, 0.0, 0.0]))
        st, bundle, obs = posed_state_with_observation(tau_offset=offset)
        for _ in range(10):
            update_map(st, obs)
            n = st.dim
            assert np.abs(st.P[:n, :n] - st.P[:n, :n].T).max() < 1e-9
            assert np.linalg.eigvalsh(st.P[:n, :n]).min() > -1e-9

    def test_cross_map_observations_converge_relative_transform(self):
        # Oracle: the simulator-style true transforms.  Map 1 is registered
        # at truth, map 2 with a deliberate offset; features matched in map 1
        # carry cross anchors into map 2, and the estimated relative
        # transform G1<-G2 must converge toward the known truth.
        st, bundle, obs = posed_state_with_observation()
        map1_from_local = RigidTransform(yaw_rotation(-0.7), np.array([3.0, 1.0, 0.0]))
        map2_from_local_true = RigidTransform(yaw_rotation(0.9),
                                              np.array([-2.0, 0.5, 0.3]))
        # build map 2 sharing every matched landmark, keyframes facing them
        cam_mount = st.rig[0].imu_from_camera.rotation
        keyframes, landmarks, cross = [], [], []
        for k, item in enumerate(obs.matches):
            lm_world = map1_from_local.inverse().apply(
                bundle.landmarks[item.landmark_id].position)
            lm2 = map2_from_local_true.apply(lm_world)
            kf_rot = yaw_rotation(0.3 * k) @ cam_mount
            kf_pos = lm2 - kf_rot.rotate(np.array([0.0, 0.0, 6.0]))
            keyframes.append(MapKeyframe(k, RigidTransform(kf_rot, kf_pos), (k,)))
            landmarks.append(Landmark(k, lm2, (k,)))
            cross.append((item.landmark_id, 2, k))
        bundle2 = MapBundle(2, keyframes, landmarks)
        offset = RigidTransform(yaw_rotation(0.03), np.array([0.3, -0.2, 0.1]))
        register_map(st, bundle2, offset @ map2_from_local_true)

        def rel_error():
            rel = st.map_from_local(1) @ st.map_from_local(2).inverse()
            truth = map1_from_local @ map2_from_local_true.inverse()
            return (np.linalg.norm(rel.translation - truth.translation),
                    rel.rotation.angle_to(truth.rotation))

        obs_cross = MapObservation(obs.map_id, obs.matches, obs.anchors, cross)
        t0, r0 = rel_error()
        for _ in range(6):
            update_map(st, obs_cross)
        t1, r1 = rel_error()
        # converges toward truth up to the Schmidt-consistent posterior floor
        # set by the keyframe priors (measured 0.37->0.09 m, 0.030->0.011 rad)
        assert t1 < 0.3 * t0
        assert r1 < 0.5 * r0


class TestMapJacobians:
    def test_rows_match_numeric_differentiation(self):
        # Independent oracle: forward model of the three observation kinds,
        # differentiated numerically against the analytic rows.
        st, bundle, obs = posed_state_with_observation()
        lm = obs.matches[0].landmark_id  # a landmark actually matched
        record = bundle.landmarks[lm]
        # second map for the cross-map rows, sharing that landmark's position;
        # place its keyframe so the landmark sits at depth 6 by construction
        map2_from_local = RigidTransform(yaw_rotation(0.9), np.array([-2.0, 0.5, 0.3]))
        lm_world = st.map_from_local(1).inverse().apply(record.position)
        lm2_pos = map2_from_local.apply(lm_world)
        kf_rot = yaw_rotation(1.1) @ st.rig[0].imu_from_camera.rotation
        kf_pos = lm2_pos - kf_rot.rotate(np.array([0.1, -0.2, 6.0]))
        bundle2_kf = MapKeyframe(0, RigidTransform(kf_rot, kf_pos), (0,))
        p_in_kf = bundle2_kf.pose.inverse().apply(lm2_pos)
        assert p_in_kf[2] > 0.2
        bundle2 = MapBundle(2, [bundle2_kf], [Landmark(0, lm2_pos, (0,))])
        register_map(st, bundle2, map2_from_local)
        anchor_kf = record.observing_keyframes[0]
        ensure_keyframe(st, 1, anchor_kf)
        ensure_keyframe(st, 2, 0)
        obs = MapObservation(1, [m for m in obs.matches if m.landmark_id == lm],
                             {lm: (anchor_kf,)},
                             cross=[(lm, 2, 0)])
        owner, h, cols, h_f, resid, sigmas = _map_rows(
            st, obs, [(lm, obs.matches, record.position)])
        assert np.array_equal(owner, np.zeros(len(owner)))
        # expand the stacked blocks to full-width rows of H
        rows = np.zeros((2 * len(h), st.dim))
        rows[:, cols] = h.reshape(-1, len(cols))
        rows_a, rows_n = rows[:, :st.active_dim], rows[:, st.active_dim:]
        rows_f = h_f.reshape(-1, 3)
        resid = resid.ravel()

        def measure(q_il, p_il, taus, keyframes, point_map):
            out = []
            q_tau, p_tau = taus[1]
            point_local = q_tau.as_matrix().T @ (point_map - p_tau)
            for item in obs.matches:
                cam = st.rig[item.camera_id]
                cfi = cam.imu_from_camera.inverse()
                p_c = cfi.rotation.as_matrix() @ (
                    q_il.as_matrix() @ (point_local - p_il)) + cfi.translation
                out.extend(cam.project(p_c))
            q_kf, p_kf = keyframes[("kf", 1, anchor_kf)]
            p_k = q_kf.as_matrix().T @ (point_map - p_kf)
            out.extend(p_k[:2] / p_k[2])
            q2, p2 = taus[2]
            v_s = q2.as_matrix() @ point_local + p2
            qk2, pk2 = keyframes[("kf", 2, 0)]
            p_k2 = qk2.as_matrix().T @ (v_s - pk2)
            out.extend(p_k2[:2] / p_k2[2])
            return np.array(out)

        def perturb(dx_active, dx_nuis, dx_f):
            # each pose moved by its error-state block: the map transforms
            # from the filter's stack, the keyframes from their bundles
            q_il = small_rotation(dx_active[0:3]) @ Rotation(st.q_IL)
            p_il = st.p + dx_active[6:9]
            taus = {}
            for map_id in (1, 2):
                base = st.slot(("map", map_id))
                tau = st.map_from_local(map_id)
                taus[map_id] = (small_rotation(dx_active[base:base + 3]) @ tau.rotation,
                                tau.translation + dx_active[base + 3:base + 6])
            keyframes = {}
            for key in st.keys:
                if key[0] == "kf":
                    base = st.slot(key) - a
                    pose = st.bundles[key[1]].keyframes[key[2]].pose
                    keyframes[key] = (small_rotation(dx_nuis[base:base + 3]) @ pose.rotation,
                                      pose.translation + dx_nuis[base + 3:base + 6])
            return measure(q_il, p_il, taus, keyframes, record.position + dx_f)

        eps = 1e-6
        a, nd = st.active_dim, st.nuisance_dim
        h0 = perturb(np.zeros(a), np.zeros(nd), np.zeros(3))
        assert len(h0) == len(resid)
        for k in range(a):
            dx = np.zeros(a)
            dx[k] = eps
            num = (perturb(dx, np.zeros(nd), np.zeros(3))
                   - perturb(-dx, np.zeros(nd), np.zeros(3))) / (2 * eps)
            assert np.abs(num - rows_a[:, k]).max() < 1e-3, f"active col {k}"
        for k in range(nd):
            dx = np.zeros(nd)
            dx[k] = eps
            num = (perturb(np.zeros(a), dx, np.zeros(3))
                   - perturb(np.zeros(a), -dx, np.zeros(3))) / (2 * eps)
            assert np.abs(num - rows_n[:, k]).max() < 1e-3, f"nuisance col {k}"
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = eps
            num = (perturb(np.zeros(a), np.zeros(nd), dx)
                   - perturb(np.zeros(a), np.zeros(nd), -dx)) / (2 * eps)
            assert np.abs(num - rows_f[:, k]).max() < 1e-3, f"feature col {k}"


class TestUpdateLocal:
    def _tracked_state(self, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        rig = forward_camera()
        cam = rig[0]
        st = FilterState(FilterConfig(local_sigma_px=max(noise, 0.5)), rig)
        st.set_imu_covariance(1e-2, 1e-2, 1e-1, 1e-4, 1e-3)
        truth = generate_trajectory("line", 1.0, 200.0, velocity=(1.0, 0.3, 0.0))
        points = []
        for _ in range(12):
            pix = rng.uniform([60, 60], [580, 420])
            depth = rng.uniform(4, 9)
            points.append((truth.pose(0) @ cam.imu_from_camera).apply(
                cam.normalize(pix) * depth))
        tracks = {i: [] for i in range(len(points))}
        for frame, fi in enumerate(range(0, 201, 40)):
            st.set_pose(truth.pose(fi), truth.velocities[fi])
            clone_and_marginalize(st, frame)
            cam_from_world = (truth.pose(fi) @ cam.imu_from_camera).inverse()
            for i, pt in enumerate(points):
                p_c = cam_from_world.apply(pt)
                if p_c[2] < 0.3:
                    continue
                pix = cam.project(p_c) + rng.normal(0, noise, 2)
                if cam.in_bounds(pix):
                    tracks[i].append(TrackObservation(frame, 0, pix))
        feature_tracks = [FeatureTrack(i, tuple(obs)) for i, obs in tracks.items()
                          if len(obs) >= 2]
        return st, feature_tracks

    def test_zero_residual_tracks_do_not_move_state(self):
        st, tracks = self._tracked_state(noise=0.0)
        p_before = st.p.copy()
        quats_before, positions_before = st.quats.copy(), st.positions.copy()
        update_local(st, tracks)
        assert st.last_report.used > 0
        assert np.abs(st.p - p_before).max() < 1e-10
        assert np.abs(st.quats - quats_before).max() < 1e-10
        assert np.abs(st.positions - positions_before).max() < 1e-10

    def test_nullspace_dimension_and_orthogonality(self):
        st, tracks = self._tracked_state(noise=0.3, seed=2)
        update_local(st, tracks)
        assert st.last_report.max_nullspace_residual < 1e-10
        # 2n observation rows on a 3-dof landmark leave a (2n-3)-dim null space
        n_obs = len(tracks[0].observations)
        assert all(len(t.observations) == n_obs for t in tracks)
        assert st.last_report.rows == st.last_report.used * (2 * n_obs - 3)

    def test_triangulation_failure_skipped(self):
        st, tracks = self._tracked_state(noise=0.0, seed=3)
        # a feature with identical observations in every frame cannot be
        # triangulated from a translating camera and must be skipped
        frames = [o.frame for o in tracks[0].observations]
        degenerate = FeatureTrack(99, tuple(
            TrackObservation(f, 0, np.array([320.0, 240.0])) for f in frames))
        update_local(st, [degenerate])
        assert st.last_report.used == 0
        assert st.last_report.gated + st.last_report.skipped >= 1

    def test_covariance_health_over_fuzz(self):
        rng = np.random.default_rng(4)
        st, tracks = self._tracked_state(noise=0.5, seed=5)
        for _ in range(50):
            update_local(st, tracks)
            n = st.dim
            assert np.abs(st.P[:n, :n] - st.P[:n, :n].T).max() < 1e-9
            assert np.linalg.eigvalsh(st.P[:n, :n]).min() > -1e-9


class TestPaddedStack:
    def test_zero_pad_rows_leave_the_projection_exact(self, monkeypatch):
        # the filter stacks features of 2-11 views zero-padded to 11: the
        # installed LAPACK's complete QR must leave the pad rows of the
        # projected H and r exactly 0 and the real rows those of the
        # unpadded feature, or the update would keep extra rows
        rng = np.random.default_rng(11)
        views = rng.integers(2, 12, 200)
        m, k = 22, IMU_DIM
        h, h_f, resid = np.zeros((200, m, k)), np.zeros((200, m, 3)), np.zeros((200, m))
        for g, v in enumerate(views):
            h[g, :2 * v] = rng.normal(0, 1, (2 * v, k))
            h_f[g, :2 * v] = rng.normal(0, 1, (2 * v, 3))
            resid[g, :2 * v] = rng.normal(0, 1, 2 * v)
        q_mat, _ = np.linalg.qr(h_f, mode="complete")
        null_t = q_mat[:, :, 3:].transpose(0, 2, 1)
        h_proj, r_proj = null_t @ h, (null_t @ resid[..., None])[..., 0]
        for g, v in enumerate(views):
            dof = 2 * v - 3
            assert not h_proj[g, dof:].any() and not r_proj[g, dof:].any()
            q_one, _ = np.linalg.qr(h_f[g, :2 * v], mode="complete")
            scale = max(1.0, np.abs(h[g]).max(), np.abs(resid[g]).max())
            assert np.abs(h_proj[g, :dof] - q_one[:, 3:].T @ h[g, :2 * v]).max() \
                <= 1e-15 * scale
            assert np.abs(r_proj[g, :dof] - q_one[:, 3:].T @ resid[g, :2 * v]).max() \
                <= 1e-15 * scale

        # the filter's own call keeps exactly the real rows, feature by feature
        applied = {}
        monkeypatch.setattr(msckf, "_schmidt_update",
                            lambda state, rows, cols, r: applied.update(h=rows, r=r))
        st = FilterState(FilterConfig(chi2_confidence=1.0 - 1e-12), forward_camera())
        st.P = np.eye(IMU_DIM)
        report = msckf.UpdateReport()
        _update_features(st, h, h_f, resid, 2 * views - 3, np.arange(k), report)
        assert report.used == 200 and report.max_nullspace_residual < 1e-10
        assert report.rows == report.nis_dof == int((2 * views - 3).sum())
        real = np.arange(m - 3) < (2 * views - 3)[:, None]
        assert np.array_equal(applied["h"], h_proj[real])
        assert np.array_equal(applied["r"], r_proj[real])


class TestTriangulate:
    def test_recovers_point(self):
        cam = forward_camera()[0]
        point = np.array([2.0, 1.0, 7.0])
        poses = [RigidTransform(Rotation.identity(), [dx, 0.0, 0.0])
                 for dx in (0.0, 0.4, 0.8)]
        world_from_cams = [p @ cam.imu_from_camera for p in poses]
        pixels = []
        for wfc in world_from_cams:
            pixels.append(cam.project(wfc.inverse().apply(point)))
        out = triangulate(world_from_cams, pixels, [cam] * 3)
        assert out is not None and np.abs(out - point).max() < 1e-8

    def test_no_baseline_returns_none(self):
        cam = forward_camera()[0]
        pose = RigidTransform.identity() @ cam.imu_from_camera
        out = triangulate([pose, pose], [np.array([320.0, 240.0])] * 2, [cam] * 2)
        assert out is None


class TestCurrentPose:
    def test_identity_composition(self):
        st = FilterState(FilterConfig(), forward_camera())
        register_map(st, make_map_bundle(), RigidTransform.identity())
        pose = current_pose_in_map(st, 1)
        assert pose.rotation.angle() < 1e-12
        assert np.linalg.norm(pose.translation) < 1e-12

    def test_matches_matrix_oracle(self):
        st = FilterState(FilterConfig(), forward_camera())
        world_from_imu = RigidTransform(Rotation.from_rotvec([0.1, -0.2, 0.6]),
                                        [1.0, 2.0, 3.0])
        st.set_pose(world_from_imu, np.zeros(3))
        map_from_local = RigidTransform(yaw_rotation(1.2), [-3.0, 0.5, 0.25])
        register_map(st, make_map_bundle(), map_from_local)
        got = current_pose_in_map(st, 1).as_matrix()
        oracle = map_from_local.as_matrix() @ world_from_imu.as_matrix()
        assert np.abs(got - oracle).max() < 1e-12

    def test_unknown_map(self):
        st = FilterState(FilterConfig(), forward_camera())
        with pytest.raises(FilterError):
            current_pose_in_map(st, 3)
