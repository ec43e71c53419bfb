"""Pinhole camera model shared by the simulator, solvers, and filter."""

from __future__ import annotations

import numpy as np

from mapvins.geometry import RigidTransform


def project_points(points_cam, fx, fy, cx, cy) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3); no validity check.

    The intrinsics are scalars or arrays broadcasting against the points,
    so one call projects every observation of a multi-camera stack.
    """
    p = np.asarray(points_cam, dtype=float)
    u = np.empty(p.shape[:-1] + (2,))
    u[..., 0] = fx * p[..., 0] / p[..., 2] + cx
    u[..., 1] = fy * p[..., 1] / p[..., 2] + cy
    return u


def normalize_pixels(pixels, fx, fy, cx, cy) -> np.ndarray:
    """Normalized image coordinates (vx, vy, 1) of pixels (..., 2); see ``project_points``."""
    u = np.asarray(pixels, dtype=float)
    v = np.empty(u.shape[:-1] + (3,))
    v[..., 0] = (u[..., 0] - cx) / fx
    v[..., 1] = (u[..., 1] - cy) / fy
    v[..., 2] = 1.0
    return v


class CameraModel:
    """Pinhole intrinsics plus the rig extrinsic (IMU-from-camera transform)."""

    __slots__ = ("camera_id", "fx", "fy", "cx", "cy", "width", "height",
                 "imu_from_camera")

    def __init__(self, camera_id: int, fx: float, fy: float, cx: float, cy: float,
                 width: int, height: int,
                 imu_from_camera: RigidTransform | None = None):
        if fx <= 0 or fy <= 0:
            raise ValueError("focal lengths must be positive")
        object.__setattr__(self, "camera_id", int(camera_id))
        object.__setattr__(self, "fx", float(fx))
        object.__setattr__(self, "fy", float(fy))
        object.__setattr__(self, "cx", float(cx))
        object.__setattr__(self, "cy", float(cy))
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "imu_from_camera",
                           imu_from_camera if imu_from_camera is not None
                           else RigidTransform.identity())

    def __setattr__(self, name, value):
        raise AttributeError("CameraModel is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Pixel coordinates of camera-frame points (rows); no validity check."""
        return project_points(points_cam, self.fx, self.fy, self.cx, self.cy)

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Normalized image coordinates v = K^-1 [u, 1]^T, returned as (vx, vy, 1)."""
        return normalize_pixels(pixels, self.fx, self.fy, self.cx, self.cy)

    def in_bounds(self, pixels: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(pixels, dtype=float))
        ok = ((u[:, 0] >= 0.0) & (u[:, 0] <= self.width - 1)
              & (u[:, 1] >= 0.0) & (u[:, 1] <= self.height - 1))
        return ok if np.asarray(pixels).ndim > 1 else bool(ok[0])

    def __repr__(self) -> str:
        return (f"CameraModel(id={self.camera_id}, f=({self.fx:g},{self.fy:g}), "
                f"c=({self.cx:g},{self.cy:g}), size={self.width}x{self.height})")
