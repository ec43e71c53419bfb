"""Synthetic scenario generation.

Replaces the learned localization front-end with controllable synthetic data:
ground-truth trajectories with closed-form derivatives (so the exact IMU
stream is available analytically), IMU corruption, synthetic pre-built maps
carved out of the trajectory corridor, and 2D-3D correspondence sets with
injected outliers and per-correspondence reliability weights.

Frames: the simulation world frame {W} doubles as the filter's local frame
{L} (the filter starts at the true initial pose).  Map frames {G^i} are
gravity-aligned: each map placement is a pure yaw plus translation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from mapvins.cameras import CameraModel
from mapvins.geometry import (
    GRAVITY,
    RigidTransform,
    Rotation,
    YawPose,
    decompose_yaw,
    wrap_angle,
    yaw_rotation,
)
from mapvins.mapmodel import Landmark, MapBundle, MapKeyframe

TRAJECTORY_KINDS = ("static", "line", "circle", "figure8")


@dataclass(frozen=True)
class ImuSample:
    """One IMU reading: gyro = angular rate (body), accel = specific force (body)."""

    t: float
    gyro: np.ndarray
    accel: np.ndarray


@dataclass(frozen=True)
class ImuNoiseParams:
    """Discrete per-sample noise: white stds and bias random-walk stds."""

    sigma_g: float = 0.0
    sigma_a: float = 0.0
    sigma_wg: float = 0.0
    sigma_wa: float = 0.0
    bias_g0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    bias_a0: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Correspondence:
    """A 2D-3D match: pixel in one camera vs a landmark of one map.

    ``point`` is the landmark position in the map frame.  ``weight`` is the
    reliability score standing in for a learned match scorer.  ``is_inlier``
    is simulator ground truth, never visible to estimators.
    """

    camera_id: int
    map_id: int
    pixel: np.ndarray
    point: np.ndarray
    landmark_id: int
    weight: float
    is_inlier: bool


class _Model:
    """Closed-form planar trajectory: position/derivatives plus yaw/yaw rate."""

    def state(self, t: float):
        raise NotImplementedError


class _Static(_Model):
    def __init__(self, origin=(0.0, 0.0, 1.2), yaw=0.0):
        self.origin = np.asarray(origin, dtype=float)
        self.yaw0 = float(yaw)

    def state(self, t):
        z = np.zeros(3)
        return self.origin, z, z, self.yaw0, 0.0


class _Line(_Model):
    def __init__(self, origin=(0.0, 0.0, 1.2), velocity=(1.0, 0.0, 0.0)):
        self.origin = np.asarray(origin, dtype=float)
        self.vel = np.asarray(velocity, dtype=float)
        if np.linalg.norm(self.vel[:2]) > 1e-12:
            self.yaw0 = math.atan2(self.vel[1], self.vel[0])
        else:
            self.yaw0 = 0.0

    def state(self, t):
        return self.origin + self.vel * t, self.vel, np.zeros(3), self.yaw0, 0.0


class _Circle(_Model):
    def __init__(self, radius=5.0, angular_rate=0.5, center=(0.0, 0.0), height=1.2):
        self.r = float(radius)
        self.w = float(angular_rate)
        self.c = np.asarray(center, dtype=float)
        self.z = float(height)

    def state(self, t):
        a = self.w * t
        p = np.array([self.c[0] + self.r * math.cos(a),
                      self.c[1] + self.r * math.sin(a), self.z])
        v = np.array([-self.r * self.w * math.sin(a), self.r * self.w * math.cos(a), 0.0])
        acc = np.array([-self.r * self.w ** 2 * math.cos(a),
                        -self.r * self.w ** 2 * math.sin(a), 0.0])
        return p, v, acc, wrap_angle(a + math.pi / 2), self.w


class _Figure8(_Model):
    """Gerono lemniscate: x = A sin(wt), y = (B/2) sin(2wt)."""

    def __init__(self, half_length=8.0, half_width=4.0, angular_rate=0.25, height=1.2):
        self.A = float(half_length)
        self.B = float(half_width)
        self.w = float(angular_rate)
        self.z = float(height)

    def state(self, t):
        a = self.w * t
        p = np.array([self.A * math.sin(a), 0.5 * self.B * math.sin(2 * a), self.z])
        v = np.array([self.A * self.w * math.cos(a),
                      self.B * self.w * math.cos(2 * a), 0.0])
        acc = np.array([-self.A * self.w ** 2 * math.sin(a),
                        -2.0 * self.B * self.w ** 2 * math.sin(2 * a), 0.0])
        speed_sq = v[0] ** 2 + v[1] ** 2
        yaw = math.atan2(v[1], v[0])
        yaw_rate = (v[0] * acc[1] - v[1] * acc[0]) / speed_sq
        return p, v, acc, yaw, yaw_rate


_MODELS = {"static": _Static, "line": _Line, "circle": _Circle, "figure8": _Figure8}


class TrajectoryTruth:
    """Sampled ground truth plus the exact IMU stream that generates it."""

    def __init__(self, kind: str, times: np.ndarray, model: _Model):
        self.kind = kind
        self.times = times
        n = len(times)
        self.positions = np.zeros((n, 3))
        self.velocities = np.zeros((n, 3))
        self.yaws = np.zeros(n)
        self.rotations: list[Rotation] = []
        self.imu: list[ImuSample] = []
        for i, t in enumerate(times):
            p, v, acc, yaw, yaw_rate = model.state(float(t))
            self.positions[i] = p
            self.velocities[i] = v
            self.yaws[i] = yaw
            rot = yaw_rotation(yaw)
            self.rotations.append(rot)
            # body rates: level body turning about +z; specific force is the
            # inertial acceleration minus gravity, rotated into the body
            gyro = np.array([0.0, 0.0, yaw_rate])
            accel = rot.inverse().rotate(acc - GRAVITY)
            self.imu.append(ImuSample(float(t), gyro, accel))

    def __len__(self):
        return len(self.times)

    def pose(self, i: int) -> RigidTransform:
        return RigidTransform(self.rotations[i], self.positions[i])


def generate_trajectory(kind: str, duration: float, rate: float, **params) -> TrajectoryTruth:
    """Sample a closed-form trajectory and its exact IMU at ``rate`` Hz."""
    if kind not in _MODELS:
        raise ValueError(f"unknown trajectory kind {kind!r}; choose from {TRAJECTORY_KINDS}")
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * rate)) + 1
    times = np.arange(n) / rate
    return TrajectoryTruth(kind, times, _MODELS[kind](**params))


def corrupt_imu(stream: list[ImuSample], params: ImuNoiseParams, seed: int) -> list[ImuSample]:
    """Add seeded white noise and bias random walks to an IMU stream."""
    for s in (params.sigma_g, params.sigma_a, params.sigma_wg, params.sigma_wa):
        if s < 0:
            raise ValueError("noise stds must be non-negative")
    rng = np.random.default_rng(seed)
    bg = np.asarray(params.bias_g0, dtype=float).copy()
    ba = np.asarray(params.bias_a0, dtype=float).copy()
    out = []
    for sample in stream:
        ng = rng.standard_normal(3) * params.sigma_g if params.sigma_g > 0 else np.zeros(3)
        na = rng.standard_normal(3) * params.sigma_a if params.sigma_a > 0 else np.zeros(3)
        out.append(ImuSample(sample.t, sample.gyro + bg + ng, sample.accel + ba + na))
        if params.sigma_wg > 0:
            bg = bg + rng.standard_normal(3) * params.sigma_wg
        if params.sigma_wa > 0:
            ba = ba + rng.standard_normal(3) * params.sigma_wa
    return out


def _truncated_pixel_noise(rng, sigma: float, bound_sigmas: float = 3.0) -> np.ndarray:
    """2D Gaussian pixel noise, rejection-sampled to stay within 3 sigma."""
    if sigma <= 0:
        return np.zeros(2)
    while True:
        n = rng.standard_normal(2) * sigma
        if np.linalg.norm(n) <= bound_sigmas * sigma:
            return n


def _project_visible(points: np.ndarray, cam_from_world: RigidTransform,
                     camera: CameraModel, min_depth: float) -> tuple[np.ndarray, np.ndarray]:
    """Pixels of world points (rows) in ``camera``, and which of them it sees.

    Pixels are NaN for points at or closer than ``min_depth``; ``visible``
    marks the points beyond it whose pixel lies on the sensor.
    """
    pts = points @ cam_from_world.rotation.as_matrix().T + cam_from_world.translation
    in_front = pts[:, 2] > min_depth
    pixels = np.full((len(pts), 2), np.nan)
    pixels[in_front] = camera.project(pts[in_front])
    return pixels, in_front & camera.in_bounds(pixels)


def _seed_points(rng, camera: CameraModel, world_from_camera: RigidTransform, count: int,
                 margin: float, depth: tuple[float, float]) -> np.ndarray:
    """``count`` world points, each behind a uniform pixel at a uniform depth.

    Each point draws its pixel (``margin`` px inside the border) and then
    its depth.  The camera-to-world transform is a stack of matrix-vector
    products, which round exactly as ``RigidTransform.apply`` on one point.
    """
    lo = np.array([margin, margin, depth[0]])
    hi = np.array([camera.width - margin, camera.height - margin, depth[1]])
    draws = lo + (hi - lo) * rng.random((count, 3))  # the arithmetic of rng.uniform
    p_cam = camera.normalize(draws[:, :2]) * draws[:, 2:]
    rot = world_from_camera.rotation.as_matrix()
    return (rot @ p_cam[:, :, None])[:, :, 0] + world_from_camera.translation


def _draw_outlier(rng, camera: CameraModel, pixels: np.ndarray,
                  sigma_px: float) -> tuple[np.ndarray, int]:
    """A wrong pairing: a uniform pixel against a uniformly drawn landmark.

    ``pixels`` are the landmarks' true projections, NaN behind the camera.
    The pair is redrawn while it happens to look like a true match: the
    landmark in front of the camera and within 5 max(sigma, 1) px.
    """
    while True:
        pix = rng.uniform([0.0, 0.0], [camera.width - 1.0, camera.height - 1.0])
        j = int(rng.integers(len(pixels)))
        if (np.isnan(pixels[j, 0])
                or np.linalg.norm(pix - pixels[j]) > 5.0 * max(sigma_px, 1.0)):
            return pix, j


def generate_map_correspondences(bundle: MapBundle, map_from_world: YawPose,
                                 camera: CameraModel, world_from_camera: RigidTransform,
                                 count: int, outlier_rate: float, sigma_px: float,
                                 rng: np.random.Generator) -> list[Correspondence]:
    """Correspondences between one camera view and one map.

    Each emitted match is independently an outlier with probability
    ``outlier_rate``.  Inliers are visible landmarks with truncated Gaussian
    pixel noise (guaranteed within 3 sigma) and Beta(8, 2) weights; outliers
    pair a uniform random pixel with a uniformly chosen wrong landmark and
    get Beta(2, 5) weights, re-drawn if accidentally geometrically consistent.
    """
    if not 0.0 <= outlier_rate < 1.0:
        raise ValueError("outlier rate must be in [0, 1)")
    lm_ids = sorted(bundle.landmarks)
    cam_from_map = world_from_camera.inverse() @ map_from_world.to_rigid().inverse()
    pixels, visible = _project_visible(bundle.landmark_positions(lm_ids), cam_from_map,
                                       camera, 0.25)
    visible_idx = np.flatnonzero(visible)
    if len(visible_idx) == 0:
        return []

    out: list[Correspondence] = []
    for idx in rng.permutation(visible_idx)[:count]:
        if rng.uniform() < outlier_rate:
            pix, widx = _draw_outlier(rng, camera, pixels, sigma_px)
            wrong = lm_ids[widx]
            out.append(Correspondence(camera.camera_id, bundle.map_id, pix,
                                      bundle.landmarks[wrong].position, wrong,
                                      float(rng.beta(2.0, 5.0)), False))
        else:
            pix = pixels[idx] + _truncated_pixel_noise(rng, sigma_px)
            if not camera.in_bounds(pix):
                continue  # noise pushed it off-sensor; skip rather than clamp
            lm_id = lm_ids[idx]
            out.append(Correspondence(camera.camera_id, bundle.map_id, pix,
                                      bundle.landmarks[lm_id].position, lm_id,
                                      float(rng.beta(8.0, 2.0)), True))
    return out


def make_rig(num_cameras: int = 1, fx: float = 460.0, fy: float = 460.0,
             cx: float = 320.0, cy: float = 240.0, width: int = 640,
             height: int = 480) -> list[CameraModel]:
    """Surround rig: forward, left, right, back cameras on a level body.

    Body axes: x forward, y left, z up.  Camera axes: x right, y down,
    z along the optical axis.
    """
    if not 1 <= num_cameras <= 4:
        raise ValueError("rig supports 1..4 cameras")
    mounts = [
        (np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
         np.array([0.2, 0.0, 0.0])),     # forward
        (np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]),
         np.array([0.0, 0.15, 0.0])),    # left
        (np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
         np.array([0.0, -0.15, 0.0])),   # right
        (np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
         np.array([-0.2, 0.0, 0.0])),    # back
    ]
    rig = []
    for k in range(num_cameras):
        rot, trans = mounts[k]
        rig.append(CameraModel(k, fx, fy, cx, cy, width, height,
                               RigidTransform(Rotation.from_matrix(rot), trans)))
    return rig


@dataclass(frozen=True)
class MapMatchEvent:
    """Correspondences retrieved against one map at one camera frame."""

    frame: int
    map_id: int
    correspondences: list[Correspondence]


@dataclass(frozen=True)
class LocalObservation:
    feature_id: int
    camera_id: int
    pixel: np.ndarray


@dataclass
class ScenarioConfig:
    """Everything needed to build a Scenario deterministically."""

    kind: str = "circle"
    duration: float = 20.0
    imu_rate: float = 200.0
    cam_rate: float = 10.0
    seed: int = 0
    num_cameras: int = 1
    trajectory_params: dict = field(default_factory=dict)
    imu_noise: ImuNoiseParams = field(default_factory=ImuNoiseParams)
    # local VIO features
    local_features_per_frame: int = 24
    local_feature_depth: tuple[float, float] = (3.0, 12.0)
    local_sigma_px: float = 0.5
    local_seed_stride_s: float = 0.5
    # maps
    num_maps: int = 1
    keyframe_stride: int = 8
    landmarks_per_keyframe: int = 12
    map_depth: tuple[float, float] = (4.0, 15.0)
    map_yaw_spread: float = 2.0
    map_translation_spread: float = 10.0
    shared_landmark_fraction: float = 0.0
    # map matching
    map_update_period: float = 2.0
    correspondences_per_event: int = 40
    outlier_rate: float = 0.3
    sigma_px: float = 1.0
    # per-map quality degradation factors (match count multiplier, extra outlier rate)
    map_quality: dict = field(default_factory=dict)


class Scenario:
    """A fully materialized synthetic run; immutable once built."""

    def __init__(self, config: ScenarioConfig):
        if config.num_maps < 1:
            raise ValueError("need at least one map")
        self.config = config
        rng = np.random.default_rng(config.seed)

        self.trajectory = generate_trajectory(config.kind, config.duration,
                                              config.imu_rate, **config.trajectory_params)
        self.imu = corrupt_imu(self.trajectory.imu, config.imu_noise,
                               int(rng.integers(2 ** 31)))
        self.rig = make_rig(config.num_cameras)

        stride = max(1, int(round(config.imu_rate / config.cam_rate)))
        self.frame_indices = np.arange(0, len(self.trajectory), stride)
        self.frame_times = self.trajectory.times[self.frame_indices]

        self._build_local_features(rng)
        self._build_maps(rng)
        self._build_map_events(rng)

    # -- local VIO features ------------------------------------------------

    def _build_local_features(self, rng):
        cfg = self.config
        cam = self.rig[0]
        seed_period = max(1, int(round(cfg.local_seed_stride_s * cfg.cam_rate)))
        self.local_points = np.concatenate([
            _seed_points(rng, cam, self.trajectory.pose(fi) @ cam.imu_from_camera,
                         max(4, cfg.local_features_per_frame // 2), 20.0,
                         cfg.local_feature_depth)
            for fi in self.frame_indices[::seed_period]])

        self.local_observations: list[list[LocalObservation]] = []
        for fi in self.frame_indices:
            obs = []
            for cam_k in self.rig:
                cam_from_world = (self.trajectory.pose(fi) @ cam_k.imu_from_camera).inverse()
                pix, ok = _project_visible(self.local_points, cam_from_world, cam_k, 0.5)
                ids = np.flatnonzero(ok)
                if len(ids) > cfg.local_features_per_frame:
                    ids = np.sort(rng.permutation(ids)[:cfg.local_features_per_frame])
                for j in ids:
                    noisy = pix[j] + _truncated_pixel_noise(rng, cfg.local_sigma_px)
                    obs.append(LocalObservation(int(j), cam_k.camera_id, noisy))
            self.local_observations.append(obs)

    # -- synthetic maps ------------------------------------------------------

    def _build_maps(self, rng):
        cfg = self.config
        cam = self.rig[0]
        n_frames = len(self.frame_indices)
        self.maps: list[MapBundle] = []
        self.map_from_world: dict[int, YawPose] = {}
        self.associations: list[tuple[int, int, int, int]] = []
        shared_pool: list[tuple[np.ndarray, int, int]] = []

        # each map covers one contiguous slice of the trajectory; slices are
        # widened when cross-map landmarks are requested so that adopted
        # points remain observable from the adopting map's keyframes
        bounds = np.linspace(0, n_frames - 1, cfg.num_maps + 1).astype(int)
        overlap = 0
        if cfg.shared_landmark_fraction > 0 and cfg.num_maps > 1:
            overlap = max(cfg.keyframe_stride, (n_frames // cfg.num_maps) // 4)
        for m in range(cfg.num_maps):
            map_id = m + 1
            placement = YawPose(rng.uniform(-cfg.map_yaw_spread, cfg.map_yaw_spread),
                                rng.uniform(-cfg.map_translation_spread,
                                            cfg.map_translation_spread, size=3))
            lo = max(0, bounds[m] - overlap)
            hi = min(n_frames - 1, bounds[m + 1] + overlap)
            seg = self.frame_indices[lo:hi + 1:cfg.keyframe_stride]
            keyframe_poses = [self.trajectory.pose(int(fi)) @ cam.imu_from_camera
                              for fi in seg]
            seeded = np.concatenate([
                _seed_points(rng, cam, world_from_kf, cfg.landmarks_per_keyframe, 10.0,
                             cfg.map_depth) for world_from_kf in keyframe_poses])

            # optionally adopt landmarks already present in earlier maps
            adopted: list[tuple[np.ndarray, int, int]] = []
            if cfg.shared_landmark_fraction > 0 and shared_pool:
                n_shared = int(cfg.shared_landmark_fraction * len(seeded))
                picks = rng.permutation(len(shared_pool))[:n_shared]
                adopted = [shared_pool[i] for i in sorted(picks)]

            points = np.concatenate([seeded, np.reshape([p for p, _, _ in adopted], (-1, 3))])
            # sees[k, i]: keyframe k observes landmark candidate i
            sees = np.array([_project_visible(points, world_from_kf.inverse(), cam, 0.25)[1]
                             for world_from_kf in keyframe_poses])
            landmarks = []
            for lm_idx in np.flatnonzero(sees.any(axis=0)).tolist():
                landmarks.append(Landmark(lm_idx, placement.apply(points[lm_idx]),
                                          np.flatnonzero(sees[:, lm_idx])))
                shared_pool.append((points[lm_idx], map_id, lm_idx))
                if lm_idx >= len(seeded):
                    _, src_map, src_lm = adopted[lm_idx - len(seeded)]
                    self.associations.append((src_map, src_lm, map_id, lm_idx))
            keyframes = [MapKeyframe(kf_idx, placement.to_rigid() @ world_from_kf,
                                     np.flatnonzero(sees[kf_idx]))
                         for kf_idx, world_from_kf in enumerate(keyframe_poses)]
            self.maps.append(MapBundle(map_id, keyframes, landmarks))
            self.map_from_world[map_id] = placement

    # -- map matching events -------------------------------------------------

    def _build_map_events(self, rng):
        cfg = self.config
        self.map_events: list[MapMatchEvent] = []
        period = max(1, int(round(cfg.map_update_period * cfg.cam_rate)))
        for frame in range(0, len(self.frame_indices), period):
            fi = int(self.frame_indices[frame])
            world_from_imu = self.trajectory.pose(fi)
            for bundle in self.maps:
                quality = cfg.map_quality.get(bundle.map_id, {})
                count = int(round(cfg.correspondences_per_event
                                  * quality.get("count_factor", 1.0)))
                w_bar = min(0.95, cfg.outlier_rate + quality.get("extra_outliers", 0.0))
                corrs: list[Correspondence] = []
                for cam_k in self.rig:
                    world_from_cam = world_from_imu @ cam_k.imu_from_camera
                    corrs.extend(generate_map_correspondences(
                        bundle, self.map_from_world[bundle.map_id], cam_k,
                        world_from_cam, count, w_bar, cfg.sigma_px, rng))
                if corrs:
                    self.map_events.append(MapMatchEvent(frame, bundle.map_id, corrs))

    # -- views and serialization ----------------------------------------------

    def frame_pose(self, frame: int) -> RigidTransform:
        return self.trajectory.pose(int(self.frame_indices[frame]))

    def to_json(self) -> str:
        def pose_dict(tr: RigidTransform):
            return {"q": tr.rotation.quaternion.tolist(), "p": tr.translation.tolist()}

        doc = {
            "seed": self.config.seed,
            "kind": self.config.kind,
            "frame_times": self.frame_times.tolist(),
            "positions": self.trajectory.positions.tolist(),
            "yaws": self.trajectory.yaws.tolist(),
            "imu": [[s.t, *s.gyro.tolist(), *s.accel.tolist()] for s in self.imu],
            "rig": [{"id": c.camera_id, "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
                     "w": c.width, "h": c.height,
                     "imu_from_camera": pose_dict(c.imu_from_camera)} for c in self.rig],
            "map_from_world": {str(mid): {"yaw": yp.yaw, "t": yp.translation.tolist()}
                               for mid, yp in self.map_from_world.items()},
            "maps": [{
                "map_id": b.map_id,
                "keyframes": [{"id": k, "pose": pose_dict(b.keyframes[k].pose),
                               "obs": list(b.keyframes[k].observed_landmarks)}
                              for k in sorted(b.keyframes)],
                "landmarks": [{"id": i, "p": b.landmarks[i].position.tolist(),
                               "kfs": list(b.landmarks[i].observing_keyframes)}
                              for i in sorted(b.landmarks)],
            } for b in self.maps],
            "associations": [list(a) for a in self.associations],
            "local_points": self.local_points.tolist(),
            "local_observations": [
                [[o.feature_id, o.camera_id, o.pixel[0], o.pixel[1]] for o in frame_obs]
                for frame_obs in self.local_observations],
            "map_events": [{
                "frame": e.frame, "map_id": e.map_id,
                "correspondences": [[c.camera_id, c.map_id, c.pixel.tolist(),
                                     c.point.tolist(), c.landmark_id, c.weight,
                                     c.is_inlier] for c in e.correspondences],
            } for e in self.map_events],
        }
        return json.dumps(doc, sort_keys=True)


def make_matching_problem(n: int, inlier_rate: float, sigma_px: float, seed: int,
                          camera: CameraModel | None = None, tilt: float = 0.0,
                          depth: tuple[float, float] = (3.0, 10.0)):
    """A standalone 2D-3D matching instance for solver/initializer benches.

    Builds one camera view of one synthetic map with a known 4DoF offset.
    Returns ``(correspondences, camera, world_from_camera, truth)`` where
    ``truth`` is the gravity-aligned camera-from-map YawPose the solvers
    should recover (the map frame coincides with the world frame here).
    """
    if camera is None:
        camera = CameraModel(0, 460.0, 460.0, 320.0, 240.0, 640, 480)
    rng = np.random.default_rng(seed)
    yaw_c = rng.uniform(-math.pi, math.pi)
    p_c = rng.uniform([-5.0, -5.0, 0.5], [5.0, 5.0, 2.0])
    tilt_rot = Rotation.from_rotvec([rng.uniform(-tilt, tilt), rng.uniform(-tilt, tilt), 0.0])
    # camera optical axis forward: same mount as the rig's forward camera
    mount = Rotation.from_matrix(np.array([[0.0, 0.0, 1.0],
                                           [-1.0, 0.0, 0.0],
                                           [0.0, -1.0, 0.0]]))
    world_from_camera = RigidTransform(yaw_rotation(yaw_c) @ tilt_rot @ mount, p_c)

    n_in = int(round(n * inlier_rate))
    landmarks = _seed_points(rng, camera, world_from_camera, n, 10.0, depth)
    pixels, _ = _project_visible(landmarks, world_from_camera.inverse(), camera, 0.25)
    corrs = []
    for i in range(n):
        if i < n_in:
            pix = pixels[i] + _truncated_pixel_noise(rng, sigma_px)
            corrs.append(Correspondence(camera.camera_id, 0, pix, landmarks[i], i,
                                        float(rng.beta(8.0, 2.0)), True))
        else:
            pix, j = _draw_outlier(rng, camera, pixels, sigma_px)
            corrs.append(Correspondence(camera.camera_id, 0, pix, landmarks[j], j,
                                        float(rng.beta(2.0, 5.0)), False))
    order = rng.permutation(n)
    corrs = [corrs[i] for i in order]

    cam_yaw, _ = decompose_yaw(world_from_camera.rotation)
    truth = YawPose(-cam_yaw, -yaw_rotation(-cam_yaw).rotate(world_from_camera.translation))
    return corrs, camera, world_from_camera, truth
