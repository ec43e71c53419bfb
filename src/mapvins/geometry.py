"""SO(3)/SE(3) primitives built on JPL-convention quaternions.

Conventions used throughout the package (fixed here, once):

* Quaternions are stored scalar-last, ``(x, y, z, w)``, and multiply with the
  JPL (Breckenridge) product, so ``matrix(a * b) = matrix(a) @ matrix(b)``.
* ``Rotation.as_matrix()`` returns the matrix that acts on column vectors:
  for a frame transform A<-B, ``v_A = R @ v_B``.
* Yaw is a right-handed rotation about the +z (gravity) axis.  Worked
  example: ``yaw_rotation(pi / 2)`` maps ``(1, 0, 0)`` to ``(0, 1, 0)``; its
  JPL quaternion is ``(0, 0, -sin(pi/4), cos(pi/4))``.
* Gravity points along -z in any gravity-aligned frame: ``GRAVITY`` below is
  the single source of that constant for the simulator and the filter.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np

# Shared by the simulator and the filter; do not redefine elsewhere.
GRAVITY = np.array([0.0, 0.0, -9.81])
GRAVITY.flags.writeable = False

GRAVITY_AXIS = np.array([0.0, 0.0, 1.0])
GRAVITY_AXIS.flags.writeable = False

_UNIT_TOL = 1e-12


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [-pi, pi] (atan2 range; pi maps to pi)."""
    wrapped = math.remainder(float(angle), 2.0 * math.pi)
    # remainder() returns values in [-pi, pi]; keep -pi out for a unique rep.
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(a) @ b == cross(a, b).

    Stacked vectors of shape (..., 3) give stacked matrices (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([np.stack([zero, -z, y], axis=-1),
                     np.stack([z, zero, -x], axis=-1),
                     np.stack([-y, x, zero], axis=-1)], axis=-2)


def _quat_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """JPL quaternion product (xyzw): C(a*b) = C(a) C(b); (4,) or (n, 4) rows."""
    if a.ndim > 1:
        w = a[:, 3] * b[:, 3] - np.vecdot(a[:, :3], b[:, :3])
        vec = a[:, 3:] * b[:, :3] + b[:, 3:] * a[:, :3] - np.cross(a[:, :3], b[:, :3])
        return np.column_stack([vec, w])
    # the same formula written out in scalars: the same IEEE operations in
    # the same order as np.cross, without its per-call array overhead
    ax, ay, az, aw = a.tolist()
    bx, by, bz, bw = b.tolist()
    w = aw * bw - a[:3] @ b[:3]
    return np.array([aw * bx + bw * ax - (ay * bz - az * by),
                     aw * by + bw * ay - (az * bx - ax * bz),
                     aw * bz + bw * az - (ax * by - ay * bx), w])


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    # Element-wise unit-norm form of (2w^2-1)I - 2w[v]x + 2vv^T; written this
    # way a pure-yaw quaternion fixes the gravity axis exactly.  A (4,)
    # quaternion gives a (3, 3) matrix, an (n, 4) stack an (n, 3, 3) stack.
    x, y, z, w = q.T
    m = np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)],
        [2.0 * (x * y - w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z + w * x)],
        [2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])
    return m if m.ndim == 2 else m.transpose(2, 0, 1)


def _rotvec_to_quat(rotvec) -> np.ndarray:
    """Exponential map of rotation vectors (..., 3) to JPL quaternions (..., 4).

    First order below 1e-12 rad.  The angle is a dot product, the rounding
    of ``np.linalg.norm`` on one vector, so a stack and its rows agree bit
    for bit.
    """
    r = np.asarray(rotvec, dtype=float)
    angle = np.sqrt(np.vecdot(r, r))
    small = angle < 1e-12
    safe = np.where(small, 1.0, angle)
    vec = np.where(small[..., None], -0.5 * r,
                   -np.sin(0.5 * safe)[..., None] * (r / safe[..., None]))
    return np.concatenate([vec, np.where(small, 1.0, np.cos(0.5 * safe))[..., None]],
                          axis=-1)


def _matrix_to_quat(m: np.ndarray) -> np.ndarray:
    # Shepperd's method for the Hamilton quaternion of m, then negate the
    # vector part: C_jpl(x, y, z, w) == R_hamilton(-x, -y, -z, w).
    t = np.trace(m)
    if t > m[0, 0] and t > m[1, 1] and t > m[2, 2]:
        w = 0.5 * math.sqrt(1.0 + t)
        s = 0.25 / w
        x = (m[2, 1] - m[1, 2]) * s
        y = (m[0, 2] - m[2, 0]) * s
        z = (m[1, 0] - m[0, 1]) * s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        x = 0.5 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        s = 0.25 / x
        w = (m[2, 1] - m[1, 2]) * s
        y = (m[0, 1] + m[1, 0]) * s
        z = (m[0, 2] + m[2, 0]) * s
    elif m[1, 1] > m[2, 2]:
        y = 0.5 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        s = 0.25 / y
        w = (m[0, 2] - m[2, 0]) * s
        x = (m[0, 1] + m[1, 0]) * s
        z = (m[1, 2] + m[2, 1]) * s
    else:
        z = 0.5 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        s = 0.25 / z
        w = (m[1, 0] - m[0, 1]) * s
        x = (m[0, 2] + m[2, 0]) * s
        y = (m[1, 2] + m[2, 1]) * s
    return np.array([-x, -y, -z, w])


class Rotation:
    """A rotation stored as a unit JPL quaternion (scalar-last)."""

    __slots__ = ("_q",)

    def __init__(self, xyzw):
        q = np.asarray(xyzw, dtype=float).copy()
        if q.shape != (4,):
            raise ValueError("quaternion must have shape (4,)")
        norm = np.linalg.norm(q)
        if not np.isfinite(norm) or norm < 1e-12:
            raise ValueError("quaternion norm is zero or non-finite")
        if abs(norm - 1.0) > _UNIT_TOL:  # keep already-unit input bit-exact
            q /= norm
        if q[3] < 0.0:  # canonical sign, keeps repr/serialization unique
            q = -q
        q.flags.writeable = False
        self._q = q

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.array([0.0, 0.0, 0.0, 1.0]))

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        return cls(_matrix_to_quat(m))

    @classmethod
    def from_rotvec(cls, rotvec) -> "Rotation":
        """Exponential map; ``rotvec = angle * axis`` (right-handed, active)."""
        return cls(_rotvec_to_quat(rotvec))

    @classmethod
    def from_yaw(cls, alpha: float) -> "Rotation":
        half = 0.5 * float(alpha)
        return cls(np.array([0.0, 0.0, -math.sin(half), math.cos(half)]))

    @property
    def quaternion(self) -> np.ndarray:
        """Unit JPL quaternion, scalar-last (x, y, z, w)."""
        return self._q

    def as_matrix(self) -> np.ndarray:
        return _quat_to_matrix(self._q)

    def as_rotvec(self) -> np.ndarray:
        v, w = self._q[:3], self._q[3]
        sin_half = np.linalg.norm(v)
        if sin_half < 1e-12:
            return -2.0 * v
        angle = 2.0 * math.atan2(sin_half, w)
        return -angle * v / sin_half

    def inverse(self) -> "Rotation":
        q = self._q
        return Rotation(np.array([-q[0], -q[1], -q[2], q[3]]))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        return Rotation(_quat_product(self._q, other._q))

    def __copy__(self):
        return self  # immutable

    def __deepcopy__(self, memo):
        return self

    def rotate(self, v) -> np.ndarray:
        return self.as_matrix() @ np.asarray(v, dtype=float)

    def angle(self) -> float:
        """Rotation magnitude in radians, in [0, pi]."""
        sin_half = np.linalg.norm(self._q[:3])
        return 2.0 * math.atan2(sin_half, abs(self._q[3]))

    def angle_to(self, other: "Rotation") -> float:
        return (self.inverse() @ other).angle()

    def yaw(self) -> float:
        """ZYX yaw: the angle alpha in R = yaw_rotation(alpha) @ R_tilt."""
        m = self.as_matrix()
        return math.atan2(m[1, 0], m[0, 0])

    def __repr__(self) -> str:
        q = self._q
        return f"Rotation(xyzw=[{q[0]:.9g}, {q[1]:.9g}, {q[2]:.9g}, {q[3]:.9g}])"


def yaw_rotation(alpha: float) -> Rotation:
    """Rotation about the gravity axis; third row/column of the matrix is e_z."""
    if not math.isfinite(alpha):
        raise ValueError("yaw angle must be finite")
    return Rotation.from_yaw(alpha)


def decompose_yaw(rotation: Rotation) -> tuple[float, Rotation]:
    """Split R into yaw_rotation(alpha) @ R_tilt with R_tilt carrying no ZYX yaw.

    R_tilt is the pitch/roll ("leveling") factor.  Undefined when the frame's
    x axis is vertical (ZYX gimbal lock); callers keep cameras away from that.
    """
    alpha = rotation.yaw()
    tilt = Rotation.from_yaw(-alpha) @ rotation
    return alpha, tilt


class RigidTransform:
    """SE(3) element: v_A = R @ v_B + t for a transform A<-B."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: Rotation, translation):
        t = np.asarray(translation, dtype=float).copy()
        if t.shape != (3,):
            raise ValueError("translation must have shape (3,)")
        t.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", t)

    def __setattr__(self, name, value):
        raise AttributeError("RigidTransform is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "RigidTransform":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("homogeneous matrix must be 4x4")
        return cls(Rotation.from_matrix(m[:3, :3]), m[:3, 3])

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.as_matrix()
        m[:3, 3] = self.translation
        return m

    def inverse(self) -> "RigidTransform":
        rot_inv = self.rotation.inverse()
        return RigidTransform(rot_inv, -rot_inv.rotate(self.translation))

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        return compose(self, other)

    def apply(self, p) -> np.ndarray:
        return transform_point(self, p)

    def __repr__(self) -> str:
        t = self.translation
        return f"RigidTransform({self.rotation!r}, t=[{t[0]:.9g}, {t[1]:.9g}, {t[2]:.9g}])"


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Frame chaining: T_AC = T_AB @ T_BC."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation.rotate(b.translation) + a.translation)


def transform_point(t: RigidTransform, p) -> np.ndarray:
    """Affine action T * p = R @ p + t."""
    return t.rotation.rotate(p) + t.translation


class YawPose:
    """A 4DoF gravity-aligned pose: yaw about +z plus translation.

    This is the pose family the IMU-aided solvers search over; promoting it
    to a RigidTransform yields a rotation with zero pitch/roll.
    """

    __slots__ = ("yaw", "translation")

    def __init__(self, yaw: float, translation):
        t = np.asarray(translation, dtype=float).copy()
        if t.shape != (3,):
            raise ValueError("translation must have shape (3,)")
        t.flags.writeable = False
        object.__setattr__(self, "yaw", wrap_angle(yaw))
        object.__setattr__(self, "translation", t)

    def __setattr__(self, name, value):
        raise AttributeError("YawPose is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def identity(cls) -> "YawPose":
        return cls(0.0, np.zeros(3))

    def to_rigid(self) -> RigidTransform:
        return RigidTransform(yaw_rotation(self.yaw), self.translation)

    def inverse(self) -> "YawPose":
        rot_inv = yaw_rotation(-self.yaw)
        return YawPose(-self.yaw, -rot_inv.rotate(self.translation))

    def __matmul__(self, other: "YawPose") -> "YawPose":
        return YawPose(self.yaw + other.yaw,
                       yaw_rotation(self.yaw).rotate(other.translation) + self.translation)

    def apply(self, p) -> np.ndarray:
        return yaw_rotation(self.yaw).rotate(p) + self.translation

    def __repr__(self) -> str:
        t = self.translation
        return f"YawPose(yaw={self.yaw:.9g}, t=[{t[0]:.9g}, {t[1]:.9g}, {t[2]:.9g}])"
