"""Pinhole camera model shared by the simulator, solvers, and filter."""

from __future__ import annotations

import numpy as np

from mapvins.geometry import RigidTransform


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
        p = np.atleast_2d(np.asarray(points_cam, dtype=float))
        z = p[:, 2]
        u = np.column_stack([self.fx * p[:, 0] / z + self.cx,
                             self.fy * p[:, 1] / z + self.cy])
        return u if np.asarray(points_cam).ndim > 1 else u[0]

    def normalize(self, pixels: np.ndarray) -> np.ndarray:
        """Normalized image coordinates v = K^-1 [u, 1]^T, returned as (vx, vy, 1)."""
        u = np.atleast_2d(np.asarray(pixels, dtype=float))
        v = np.column_stack([(u[:, 0] - self.cx) / self.fx,
                             (u[:, 1] - self.cy) / self.fy,
                             np.ones(len(u))])
        return v if np.asarray(pixels).ndim > 1 else v[0]

    def in_bounds(self, pixels: np.ndarray) -> np.ndarray:
        u = np.atleast_2d(np.asarray(pixels, dtype=float))
        ok = ((u[:, 0] >= 0.0) & (u[:, 0] <= self.width - 1)
              & (u[:, 1] >= 0.0) & (u[:, 1] <= self.height - 1))
        return ok if np.asarray(pixels).ndim > 1 else bool(ok[0])

    def __repr__(self) -> str:
        return (f"CameraModel(id={self.camera_id}, f=({self.fx:g},{self.fy:g}), "
                f"c=({self.cx:g},{self.cy:g}), size={self.width}x{self.height})")
