"""Accuracy of a localization run, in plain numpy.

These numbers are computed here, apart from ``mapvins.metrics``, and then
compared with the ``summary`` that ``mapvins.harness`` builds through
``mapvins.metrics``: a disagreement means one of the two is wrong.

Conventions follow the pose log: ``q_local`` is a JPL quaternion (x, y, z,
w) whose matrix maps body vectors into the local frame; a map placement
``map_from_world`` is a yaw about +z followed by a translation.
"""

from __future__ import annotations

import math

import numpy as np


def jpl_matrix(q) -> np.ndarray:
    x, y, z, w = (float(v) for v in q)
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)],
        [2.0 * (x * y - w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z + w * x)],
        [2.0 * (x * z + w * y), 2.0 * (y * z - w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def truth_at(scenario, record):
    """Ground-truth (rotation matrix, position) of the record's frame."""
    fi = int(scenario.frame_indices[record["frame"]])
    traj = scenario.trajectory
    return yaw_matrix(float(traj.yaws[fi])), np.asarray(traj.positions[fi], dtype=float)


def local_errors(scenario, records) -> np.ndarray:
    """First-frame-aligned position errors of frames 1..N-1 (m).

    The transform taking the first estimated pose onto the first true pose
    is fixed once and never re-estimated, which keeps the metric causal.
    """
    r_gt0, p_gt0 = truth_at(scenario, records[0])
    r_est0 = jpl_matrix(records[0]["q_local"])
    p_est0 = np.asarray(records[0]["p_local"], dtype=float)
    r_align = r_gt0 @ r_est0.T
    t_align = p_gt0 - r_align @ p_est0
    errs = []
    for rec in records[1:]:
        _, p_gt = truth_at(scenario, rec)
        p_est = r_align @ np.asarray(rec["p_local"], dtype=float) + t_align
        errs.append(np.linalg.norm(p_gt - p_est))
    return np.array(errs)


def map_errors(scenario, records, map_id: int) -> np.ndarray:
    """Map-frame position errors with no alignment, every frame logging the map."""
    placement = scenario.map_from_world[map_id]
    r_mw = yaw_matrix(float(placement.yaw))
    t_mw = np.asarray(placement.translation, dtype=float)
    key = str(map_id)
    errs = []
    for rec in records:
        entry = rec["maps"].get(key)
        if entry is None:
            continue
        _, p_world = truth_at(scenario, rec)
        p_gt = r_mw @ p_world + t_mw
        errs.append(np.linalg.norm(p_gt - np.asarray(entry["p"], dtype=float)))
    return np.array(errs)


def relative_errors(scenario, records, window: int) -> np.ndarray:
    """Relative position error (m) over ``window`` frames, in the body frame.

    For each frame i, the displacement to frame i + window expressed in the
    body frame at i, estimated against true; heading drift accumulated
    before i does not enter.
    """
    errs = []
    for first, last in zip(records[:-window], records[window:]):
        r_gt0, p_gt0 = truth_at(scenario, first)
        _, p_gt1 = truth_at(scenario, last)
        r_est0 = jpl_matrix(first["q_local"])
        d_est = r_est0.T @ (np.asarray(last["p_local"]) - np.asarray(first["p_local"]))
        d_gt = r_gt0.T @ (p_gt1 - p_gt0)
        errs.append(np.linalg.norm(d_est - d_gt))
    return np.array(errs)


def rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def path_length(scenario) -> float:
    pos = scenario.trajectory.positions[scenario.frame_indices]
    return float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())


def agrees(ours: float, theirs: float, tolerance: float = 1e-9) -> bool:
    return abs(ours - theirs) <= tolerance * max(1.0, abs(theirs))
