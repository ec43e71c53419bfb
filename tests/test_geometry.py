import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from mapvins.geometry import (
    GRAVITY,
    GRAVITY_AXIS,
    RigidTransform,
    Rotation,
    YawPose,
    _quat_product,
    _rotvec_to_quat,
    compose,
    decompose_yaw,
    transform_point,
    wrap_angle,
    yaw_rotation,
)


def random_rigid(rng) -> RigidTransform:
    return RigidTransform(Rotation(rng.normal(size=4)), rng.normal(size=3))


class TestRotation:
    def test_identity(self):
        assert np.allclose(Rotation.identity().as_matrix(), np.eye(3))

    def test_unit_norm_after_operations(self):
        rng = np.random.default_rng(1)
        r = Rotation(rng.normal(size=4))
        for _ in range(100):
            r = r @ Rotation(rng.normal(size=4))
            assert abs(np.linalg.norm(r.quaternion) - 1.0) < 1e-12

    def test_matrix_is_special_orthogonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = Rotation(rng.normal(size=4)).as_matrix()
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-10
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    def test_quaternion_matrix_roundtrip_bulk(self):
        # 1e4 random rotations, roundtrip through the matrix form
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10_000):
            r = Rotation(rng.normal(size=4))
            r2 = Rotation.from_matrix(r.as_matrix())
            worst = max(worst, float(np.abs(r.quaternion - r2.quaternion).max()))
        assert worst < 1e-12

    def test_matches_scipy_active_convention(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rv = rng.normal(size=3)
            assert np.abs(
                Rotation.from_rotvec(rv).as_matrix() - ScipyRotation.from_rotvec(rv).as_matrix()
            ).max() < 1e-12

    def test_product_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = Rotation(rng.normal(size=4)), Rotation(rng.normal(size=4))
            assert np.abs((a @ b).as_matrix() - a.as_matrix() @ b.as_matrix()).max() < 1e-12

    def test_product_bit_identical_to_cross_formula(self):
        # the scalar product must round exactly like the vector formula
        # aw * bv + bw * av - cross(av, bv), aw * bw - av . bv
        rng = np.random.default_rng(11)
        quats = rng.normal(size=(2000, 2, 4))
        quats /= np.linalg.norm(quats, axis=2, keepdims=True)
        for a, b in quats:
            vec = a[3] * b[:3] + b[3] * a[:3] - np.cross(a[:3], b[:3])
            expected = np.array([vec[0], vec[1], vec[2], a[3] * b[3] - a[:3] @ b[:3]])
            assert np.array_equal(_quat_product(a, b), expected)
        # a stack multiplies row by row, each row rounding like the scalar form
        stacked = _quat_product(quats[:, 0], quats[:, 1])
        assert stacked.shape == (2000, 4)
        for (a, b), row in zip(quats, stacked):
            assert np.array_equal(row, _quat_product(a, b))

    def test_stacked_exp_map_matches_each_row(self):
        # the filter maps a whole IMU batch at once; every row must round
        # exactly like Rotation.from_rotvec on that row and like the scalar
        # formula -sin(angle / 2) * axis, cos(angle / 2), first-order branch
        # below 1e-12 rad included
        rng = np.random.default_rng(12)
        rotvecs = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-14, 0.5, (2000, 1))
        stacked = _rotvec_to_quat(rotvecs)
        assert np.count_nonzero(np.linalg.norm(rotvecs, axis=1) < 1e-12) > 50
        for rv, q in zip(rotvecs, stacked):
            angle = np.linalg.norm(rv)
            expected = (np.r_[-0.5 * rv, 1.0] if angle < 1e-12 else
                        np.r_[-math.sin(0.5 * angle) * (rv / angle), math.cos(0.5 * angle)])
            assert np.array_equal(q, expected)
            assert np.array_equal(Rotation.from_rotvec(rv).quaternion, Rotation(q).quaternion)

    def test_rotvec_roundtrip(self):
        # canonical quaternions keep rotvecs inside the pi-ball
        rng = np.random.default_rng(6)
        for _ in range(100):
            axis = rng.normal(size=3)
            rv = rng.uniform(1e-3, math.pi - 1e-3) * axis / np.linalg.norm(axis)
            assert np.allclose(Rotation.from_rotvec(rv).as_rotvec(), rv, atol=1e-12)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Rotation(np.zeros(4))


class TestYawRotation:
    def test_zero_is_identity(self):
        assert np.allclose(yaw_rotation(0.0).as_matrix(), np.eye(3))

    def test_ninety_degrees_maps_x_to_y(self):
        assert np.allclose(yaw_rotation(math.pi / 2).rotate([1.0, 0.0, 0.0]),
                           [0.0, 1.0, 0.0], atol=1e-15)

    def test_opposite_angles_compose_to_identity(self):
        r = yaw_rotation(0.3) @ yaw_rotation(-0.3)
        assert r.angle() < 1e-12

    def test_third_row_and_column(self):
        m = yaw_rotation(1.1).as_matrix()
        assert np.allclose(m[2], [0.0, 0.0, 1.0])
        assert np.allclose(m[:, 2], [0.0, 0.0, 1.0])

    def test_gravity_axis_is_fixed_exactly(self):
        # Premise of the gravity-aligned 4DoF formulation: yaw never moves z.
        for alpha in np.linspace(-math.pi, math.pi, 17):
            out = yaw_rotation(alpha).rotate(GRAVITY_AXIS)
            assert np.array_equal(out, GRAVITY_AXIS) or np.abs(out - GRAVITY_AXIS).max() == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            yaw_rotation(math.nan)


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(7)
        t = random_rigid(rng)
        out = compose(RigidTransform.identity(), t)
        assert np.allclose(out.as_matrix(), t.as_matrix(), atol=1e-15)

    def test_inverse_gives_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_rigid(rng)
            out = compose(t, t.inverse())
            assert out.rotation.angle() < 1e-10
            assert np.linalg.norm(out.translation) < 1e-10

    def test_yaw_chaining_matches_homogeneous_matmul(self):
        # Oracle: 4x4 homogeneous matrix multiply
        a = RigidTransform(yaw_rotation(math.pi / 2), np.array([1.0, 2.0, 3.0]))
        b = RigidTransform(yaw_rotation(math.pi / 2), np.array([-0.5, 0.25, 1.5]))
        out = compose(a, b)
        assert np.abs(out.as_matrix() - a.as_matrix() @ b.as_matrix()).max() < 1e-15
        assert abs(wrap_angle(out.rotation.yaw() - math.pi)) < 1e-12

    def test_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b, c = (random_rigid(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert np.abs(left.as_matrix() - right.as_matrix()).max() < 1e-10


class TestTransformPoint:
    def test_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(transform_point(RigidTransform.identity(), p), p)

    def test_pure_translation_on_origin(self):
        t = np.array([4.0, 5.0, 6.0])
        out = transform_point(RigidTransform(Rotation.identity(), t), np.zeros(3))
        assert np.array_equal(out, t)

    def test_roundtrip_through_inverse(self):
        # Oracle: 4x4 matrix form
        rng = np.random.default_rng(10)
        for _ in range(50):
            t = random_rigid(rng)
            p = rng.normal(size=3)
            mat = np.linalg.inv(t.as_matrix()) @ np.append(transform_point(t, p), 1.0)
            assert np.abs(transform_point(t.inverse(), transform_point(t, p)) - p).max() < 1e-10
            assert np.abs(mat[:3] - p).max() < 1e-10


class TestYawPose:
    def test_promotion_has_no_tilt(self):
        pose = YawPose(0.7, [1.0, 2.0, 3.0])
        m = pose.to_rigid().rotation.as_matrix()
        assert np.allclose(m[2], [0, 0, 1]) and np.allclose(m[:, 2], [0, 0, 1])

    def test_yaw_wrapped(self):
        assert abs(YawPose(3 * math.pi, np.zeros(3)).yaw - math.pi) < 1e-12
        assert abs(YawPose(-5 * math.pi / 2, np.zeros(3)).yaw + math.pi / 2) < 1e-12

    def test_inverse_and_compose(self):
        pose = YawPose(-1.2, [0.5, -0.25, 2.0])
        out = pose @ pose.inverse()
        assert abs(out.yaw) < 1e-12 and np.linalg.norm(out.translation) < 1e-12
        # consistency with the SE(3) promotion
        a, b = YawPose(0.4, [1, 0, 0]), YawPose(0.6, [0, 1, 0])
        assert np.abs((a @ b).to_rigid().as_matrix()
                      - (a.to_rigid() @ b.to_rigid()).as_matrix()).max() < 1e-12


class TestDecomposeYaw:
    def test_recovers_yaw_factor(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = rng.uniform(-math.pi, math.pi)
            tilt = Rotation.from_rotvec(np.array([rng.normal(0, 0.3), rng.normal(0, 0.3), 0.0]))
            r = yaw_rotation(alpha) @ tilt
            got_alpha, got_tilt = decompose_yaw(r)
            rebuilt = yaw_rotation(got_alpha) @ got_tilt
            assert np.abs(rebuilt.as_matrix() - r.as_matrix()).max() < 1e-12
            assert abs(got_tilt.yaw()) < 1e-12

    def test_gravity_constant_orientation(self):
        assert GRAVITY[2] < 0 and np.linalg.norm(GRAVITY) == pytest.approx(9.81)
