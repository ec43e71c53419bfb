import numpy as np
import pytest

from mapvins.cameras import CameraModel
from mapvins.geometry import GRAVITY, RigidTransform, Rotation, yaw_rotation
from mapvins.sim import (
    ImuNoiseParams,
    ImuSample,
    Scenario,
    ScenarioConfig,
    _draw_outlier,
    _project_visible,
    corrupt_imu,
    generate_map_correspondences,
    generate_trajectory,
    make_matching_problem,
    make_rig,
)


def integrate_imu(truth, imu):
    """Independent oracle: RK4-style Simpson integration of the IMU stream.

    Consumes consecutive sample triplets (the stream provides the midpoint of
    every double step), integrating the strapdown kinematics directly.
    """
    rot = truth.rotations[0]
    v = truth.velocities[0].copy()
    p = truth.positions[0].copy()
    for k in range(0, len(imu) - 2, 2):
        s0, s1, s2 = imu[k], imu[k + 1], imu[k + 2]
        h = s2.t - s0.t

        def deriv(rot_k, v_k, sample):
            dv = rot_k.rotate(sample.accel) + GRAVITY
            return sample.gyro, dv, v_k

        # RK4 with rotation handled multiplicatively
        w1, a1, pd1 = deriv(rot, v, s0)
        r2 = rot @ Rotation.from_rotvec(rot.inverse().rotate(w1) * h / 2)
        w2, a2, pd2 = deriv(r2, v + a1 * h / 2, s1)
        r3 = rot @ Rotation.from_rotvec(rot.inverse().rotate(w2) * h / 2)
        w3, a3, pd3 = deriv(r3, v + a2 * h / 2, s1)
        r4 = rot @ Rotation.from_rotvec(rot.inverse().rotate(w3) * h)
        w4, a4, pd4 = deriv(r4, v + a3 * h, s2)

        p = p + h / 6.0 * (pd1 + 2 * pd2 + 2 * pd3 + pd4)
        v = v + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
        wm = (w1 + 2 * w2 + 2 * w3 + w4) / 6.0
        rot = rot @ Rotation.from_rotvec(wm * h)
    return rot, v, p


class TestGenerateTrajectory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trajectory kind"):
            generate_trajectory("helix", 1.0, 100.0)

    def test_static_imu_is_gravity_only(self):
        truth = generate_trajectory("static", 1.0, 100.0)
        for s in truth.imu:
            assert np.array_equal(s.gyro, np.zeros(3))
            assert np.allclose(s.accel, -GRAVITY)  # (0, 0, +9.81) on a level body

    def test_line_imu_is_gravity_only(self):
        truth = generate_trajectory("line", 2.0, 100.0, velocity=(1.0, 0.5, 0.0))
        body_gravity = truth.rotations[0].inverse().rotate(-GRAVITY)
        for s in truth.imu:
            assert np.allclose(s.gyro, 0.0)
            assert np.allclose(s.accel, body_gravity)

    def test_circle_centripetal_magnitude(self):
        # Oracle: analytic differentiation, |a_xy| = r * w^2 = 5 * 0.25 = 1.25;
        # body is level so the gravity reaction stays on the z axis.
        truth = generate_trajectory("circle", 5.0, 100.0, radius=5.0, angular_rate=0.5)
        for s in truth.imu[::50]:
            assert abs(np.linalg.norm(s.accel[:2]) - 1.25) < 1e-12
            assert abs(s.accel[2] - 9.81) < 1e-12
            assert np.allclose(s.gyro, [0.0, 0.0, 0.5])

    @pytest.mark.parametrize("kind,params", [
        ("circle", {"radius": 5.0, "angular_rate": 0.5}),
        ("figure8", {"half_length": 8.0, "half_width": 4.0, "angular_rate": 0.3}),
        ("line", {"velocity": (1.0, -0.5, 0.0)}),
    ])
    def test_imu_roundtrip_reproduces_trajectory(self, kind, params):
        # Integrating the returned IMU through the strapdown kinematics with
        # zero noise must reproduce the trajectory: < 1e-6 m over 10 s @ 200 Hz.
        truth = generate_trajectory(kind, 10.0, 200.0, **params)
        rot, v, p = integrate_imu(truth, truth.imu)
        assert np.linalg.norm(p - truth.positions[-1]) < 1e-6
        assert np.linalg.norm(v - truth.velocities[-1]) < 1e-5
        assert rot.angle_to(truth.rotations[-1]) < 1e-6


class TestCorruptImu:
    def test_zero_noise_is_identity(self):
        truth = generate_trajectory("circle", 1.0, 100.0)
        out = corrupt_imu(truth.imu, ImuNoiseParams(), seed=3)
        for a, b in zip(out, truth.imu):
            assert np.array_equal(a.gyro, b.gyro) and np.array_equal(a.accel, b.accel)

    def test_seed_reproducibility(self):
        truth = generate_trajectory("circle", 1.0, 100.0)
        params = ImuNoiseParams(sigma_g=0.01, sigma_a=0.1, sigma_wg=1e-4, sigma_wa=1e-3)
        a = corrupt_imu(truth.imu, params, seed=7)
        b = corrupt_imu(truth.imu, params, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.gyro, y.gyro) and np.array_equal(x.accel, y.accel)

    def test_white_noise_variance(self):
        # Oracle: sample statistics over 1e5 samples, within 5% of sigma^2
        n = 100_000
        stream = [ImuSample(i * 0.005, np.zeros(3), np.zeros(3)) for i in range(n)]
        params = ImuNoiseParams(sigma_g=0.02, sigma_a=0.15)
        out = corrupt_imu(stream, params, seed=11)
        gyro = np.array([s.gyro for s in out])
        accel = np.array([s.accel for s in out])
        assert abs(gyro.var() - params.sigma_g ** 2) < 0.05 * params.sigma_g ** 2
        assert abs(accel.var() - params.sigma_a ** 2) < 0.05 * params.sigma_a ** 2

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            corrupt_imu([], ImuNoiseParams(sigma_g=-1.0), seed=0)


class TestCorrespondences:
    def test_zero_noise_zero_outliers_project_exactly(self):
        corrs, camera, world_from_camera, _ = make_matching_problem(
            40, inlier_rate=1.0, sigma_px=0.0, seed=5)
        assert len(corrs) == 40
        cam_from_world = world_from_camera.inverse()
        for c in corrs:
            assert c.is_inlier
            p_cam = cam_from_world.apply(c.point)
            assert np.abs(camera.project(p_cam) - c.pixel).max() < 1e-9

    def test_outlier_count_within_binomial_ci(self):
        # 100 draws at w=0.8 -> 80 +/- 10 flagged outliers (binomial 2.5 sigma)
        corrs, *_ = make_matching_problem(100, inlier_rate=0.2, sigma_px=1.0, seed=9)
        n_out = sum(not c.is_inlier for c in corrs)
        assert 70 <= n_out <= 90

    def test_inliers_reproject_within_three_sigma(self):
        sigma = 1.5
        corrs, camera, world_from_camera, _ = make_matching_problem(
            200, inlier_rate=0.7, sigma_px=sigma, seed=13)
        cam_from_world = world_from_camera.inverse()
        for c in corrs:
            if not c.is_inlier:
                continue
            err = np.linalg.norm(camera.project(cam_from_world.apply(c.point)) - c.pixel)
            assert err <= 3.0 * sigma + 1e-9

    def test_flagged_outliers_are_inconsistent(self):
        # both generators draw outliers with one rule: a landmark in front of
        # the camera is never paired with a pixel within 5 max(sigma, 1) px
        # of its projection
        corrs, camera, world_from_camera, _ = make_matching_problem(
            200, inlier_rate=0.3, sigma_px=1.0, seed=17)
        views = [(c, camera, world_from_camera.inverse()) for c in corrs]
        scenario = Scenario(ScenarioConfig(duration=4.0, seed=19, num_cameras=2,
                                           outlier_rate=0.5, sigma_px=1.0))
        for event in scenario.map_events:
            world_from_imu = scenario.frame_pose(event.frame)
            map_from_world = scenario.map_from_world[event.map_id].to_rigid()
            for c in event.correspondences:
                cam = scenario.rig[c.camera_id]
                views.append((c, cam, (map_from_world @ world_from_imu
                                       @ cam.imu_from_camera).inverse()))
        outliers = [v for v in views if not v[0].is_inlier]
        assert len(outliers) > len(corrs) // 2
        for c, cam, cam_from_world in outliers:
            p_cam = cam_from_world.apply(c.point)
            if p_cam[2] <= 0.25:
                continue  # behind camera: inconsistent by construction
            assert np.linalg.norm(cam.project(p_cam) - c.pixel) > 5.0 - 1e-9

    def test_outlier_drawer_rejects_near_matches(self):
        # landmark 0 projects to the image centre, landmark 1 is behind the
        # camera (NaN): a pairing with 0 must land beyond 5 * sigma = 250 px
        camera = CameraModel(0, 460.0, 460.0, 320.0, 240.0, 640, 480)
        pixels = np.array([[320.0, 240.0], [np.nan, np.nan]])
        rng = np.random.default_rng(3)
        draws = [_draw_outlier(rng, camera, pixels, 50.0) for _ in range(300)]
        near = [np.linalg.norm(pix - pixels[0]) for pix, j in draws if j == 0]
        assert len(near) > 20 and min(near) > 250.0
        assert sum(j == 1 for _, j in draws) > 100

    def test_behind_camera_never_emitted_as_inlier(self):
        scenario = Scenario(ScenarioConfig(duration=4.0, seed=21, outlier_rate=0.4))
        for event in scenario.map_events:
            bundle = scenario.maps[event.map_id - 1]
            fi = int(scenario.frame_indices[event.frame])
            for c in event.correspondences:
                if not c.is_inlier:
                    continue
                cam = scenario.rig[c.camera_id]
                cam_from_world = (scenario.trajectory.pose(fi) @ cam.imu_from_camera).inverse()
                p_cam = cam_from_world.apply(
                    scenario.map_from_world[event.map_id].inverse().apply(c.point))
                assert p_cam[2] > 0.0

    def test_bad_outlier_rate_rejected(self):
        scenario = Scenario(ScenarioConfig(duration=2.0, seed=1))
        bundle = scenario.maps[0]
        with pytest.raises(ValueError):
            generate_map_correspondences(
                bundle, scenario.map_from_world[1], scenario.rig[0],
                scenario.frame_pose(0) @ scenario.rig[0].imu_from_camera,
                10, 1.0, 1.0, np.random.default_rng(0))

    def test_frame_level_generation_is_seeded(self):
        scenario = Scenario(ScenarioConfig(duration=2.0, seed=2))
        camera = scenario.rig[0]
        a, b = (generate_map_correspondences(
            scenario.maps[0], scenario.map_from_world[1], camera,
            scenario.frame_pose(0) @ camera.imu_from_camera, 40, 0.5, 1.0,
            np.random.default_rng(9)) for _ in range(2))
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert np.array_equal(x.pixel, y.pixel) and x.landmark_id == y.landmark_id


class TestScenario:
    def test_deterministic_byte_for_byte(self):
        cfg = ScenarioConfig(duration=3.0, seed=33, num_maps=2, num_cameras=2,
                             imu_noise=ImuNoiseParams(sigma_g=0.002, sigma_a=0.02))
        a = Scenario(cfg).to_json()
        b = Scenario(cfg).to_json()
        assert a == b

    def test_different_seeds_differ(self):
        assert (Scenario(ScenarioConfig(duration=2.0, seed=1)).to_json()
                != Scenario(ScenarioConfig(duration=2.0, seed=2)).to_json())

    def test_shared_landmarks_create_associations(self):
        cfg = ScenarioConfig(duration=8.0, seed=5, num_maps=2,
                             shared_landmark_fraction=0.3)
        scenario = Scenario(cfg)
        assert scenario.associations, "expected cross-map landmark associations"
        for src_map, src_lm, dst_map, dst_lm in scenario.associations:
            p_src = scenario.map_from_world[src_map].inverse().apply(
                scenario.maps[src_map - 1].landmarks[src_lm].position)
            p_dst = scenario.map_from_world[dst_map].inverse().apply(
                scenario.maps[dst_map - 1].landmarks[dst_lm].position)
            assert np.abs(p_src - p_dst).max() < 1e-9  # same physical point

    def test_inlier_residual_consistency(self):
        # Scenario invariant: inlier flags consistent with true geometry
        scenario = Scenario(ScenarioConfig(duration=4.0, seed=8, sigma_px=1.0))
        for event in scenario.map_events:
            fi = int(scenario.frame_indices[event.frame])
            for c in event.correspondences:
                if not c.is_inlier:
                    continue
                cam = scenario.rig[c.camera_id]
                cam_from_world = (scenario.trajectory.pose(fi) @ cam.imu_from_camera).inverse()
                p_cam = cam_from_world.apply(
                    scenario.map_from_world[event.map_id].inverse().apply(c.point))
                err = np.linalg.norm(cam.project(p_cam) - c.pixel)
                assert err <= 3.0 * scenario.config.sigma_px + 1e-9

    def test_observers_match_per_pair_visibility(self):
        # Oracle: the per-pair loop the map builder used before it projected
        # all landmarks into a keyframe at once (depth > 0.25, on the sensor)
        cfg = ScenarioConfig(duration=8.0, seed=5, num_maps=2, num_cameras=2,
                             shared_landmark_fraction=0.3)
        scenario = Scenario(cfg)
        cam = scenario.rig[0]
        assert scenario.associations  # adopted landmarks are covered too
        for bundle in scenario.maps:
            assert len(bundle.landmarks) > 50
            seen_by = {k: [] for k in bundle.keyframes}
            for lm_id in sorted(bundle.landmarks):
                lm = bundle.landmarks[lm_id]
                observers = []
                for kf_id in sorted(bundle.keyframes):
                    p_cam = bundle.keyframes[kf_id].pose.inverse().apply(lm.position)
                    if p_cam[2] <= 0.25:
                        continue
                    if cam.in_bounds(cam.project(p_cam)):
                        observers.append(kf_id)
                        seen_by[kf_id].append(lm_id)
                assert lm.observing_keyframes == tuple(observers)
            for kf_id, kf in bundle.keyframes.items():
                assert kf.observed_landmarks == tuple(seen_by[kf_id])

    def test_rig_size_limits(self):
        assert len(make_rig(4)) == 4
        with pytest.raises(ValueError):
            make_rig(5)


class TestProjectVisible:
    @pytest.fixture
    def camera(self):
        return CameraModel(0, fx=460.0, fy=460.0, cx=320.0, cy=240.0, width=640, height=480)

    def test_landmark_behind_camera_excluded(self, camera):
        pixels, visible = _project_visible(np.array([[0.0, 0.0, -5.0], [0.0, 0.0, 5.0]]),
                                           RigidTransform.identity(), camera, 0.25)
        assert visible.tolist() == [False, True]
        assert np.isnan(pixels[0]).all()

    def test_on_axis_landmark_projects_to_principal_point(self, camera):
        pixels, visible = _project_visible(np.array([[0.0, 0.0, 5.0]]),
                                           RigidTransform.identity(), camera, 0.25)
        assert visible.tolist() == [True]
        assert np.array_equal(pixels[0], [camera.cx, camera.cy])

    def test_depth_exactly_min_depth_excluded(self, camera):
        points = np.array([[0.0, 0.0, 0.25], [0.0, 0.0, np.nextafter(0.25, 1.0)]])
        pixels, visible = _project_visible(points, RigidTransform.identity(), camera, 0.25)
        assert visible.tolist() == [False, True]
        assert np.isnan(pixels[0]).all() and not np.isnan(pixels[1]).any()

    def test_pixel_border_inclusive(self, camera):
        # u = fx x / z + cx: x = 319, z = 460 lands exactly on u = width - 1
        points = np.array([[319.0, 0.0, 460.0], [319.0001, 0.0, 460.0],
                           [-320.0, 0.0, 460.0], [-320.0001, 0.0, 460.0]])
        pixels, visible = _project_visible(points, RigidTransform.identity(), camera, 0.25)
        assert pixels[0, 0] == camera.width - 1 and pixels[2, 0] == 0.0
        assert visible.tolist() == [True, False, True, False]

    def test_matches_brute_force_projection_filter(self, camera):
        # Oracle: project everything, filter by depth and frustum by hand.
        rng = np.random.default_rng(42)
        pose = RigidTransform(Rotation.from_rotvec([0.05, 0.6, -0.1]), [0.4, -0.2, 0.1])
        points = rng.uniform([-6, -6, -6], [6, 6, 6], size=(10, 3))

        _, visible = _project_visible(points, pose.inverse(), camera, 1e-6)
        expected = []
        inv = np.linalg.inv(pose.as_matrix())
        for p_world in points:
            p = inv[:3, :3] @ p_world + inv[:3, 3]
            if p[2] <= 1e-6:
                expected.append(False)
                continue
            u = camera.fx * p[0] / p[2] + camera.cx
            v = camera.fy * p[1] / p[2] + camera.cy
            expected.append(bool(0 <= u <= camera.width - 1 and 0 <= v <= camera.height - 1))
        assert visible.tolist() == expected

    def test_pixels_satisfy_projection_exactly(self, camera):
        # a camera 0.3 rad off the +x axis, looking at points ahead of it
        mount = Rotation.from_matrix(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0],
                                               [0.0, -1.0, 0.0]]))
        pose = RigidTransform(yaw_rotation(0.3) @ mount, [0.0, -1.0, 1.0])
        points = np.array([[5.0, 0.1, 1.0], [4.5, -0.3, 0.8], [6.0, 1.0, 1.2],
                           [3.3, 2.2, 1.1], [7.1, -1.4, 0.9]])
        pixels, visible = _project_visible(points, pose.inverse(), camera, 0.25)
        assert visible.sum() >= 3
        for p_world, pixel in zip(points[visible], pixels[visible]):
            p_cam = pose.inverse().apply(p_world)
            # the former bearing bound of 1e-15, in pixels
            assert np.abs(pixel - camera.project(p_cam)).max() < 1e-15 * camera.fx
