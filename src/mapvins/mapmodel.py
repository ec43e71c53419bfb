"""Data model for isolated pre-built maps and their on-disk format.

A map is a self-contained bundle of keyframe poses and landmark positions,
all expressed in that map's own frame.  Keyframe poses are frozen once the
bundle exists; nothing in this module relates two different map frames (the
filter owns the only sanctioned way to do that, through its estimated
map-to-local transforms).

File format (line oriented, versioned, diffable)::

    mapvins-map 1
    map <map_id> <n_keyframes> <n_landmarks>
    kf <id> <qx> <qy> <qz> <qw> <px> <py> <pz> <n_obs> <lm_id...>
    lm <id> <x> <y> <z> <n_obs> <kf_id...>

Floats are written with ``repr`` so save -> load -> save is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mapvins.geometry import RigidTransform, Rotation

FORMAT_NAME = "mapvins-map"
FORMAT_VERSION = 1


class MapInvariantError(ValueError):
    """A map bundle violates a structural invariant."""


class MapParseError(ValueError):
    """A map file could not be parsed; message carries line diagnostics."""


class MapKeyframe:
    """One frozen image keyframe: id, map-frame pose, observed landmark ids."""

    __slots__ = ("keyframe_id", "pose", "observed_landmarks")

    def __init__(self, keyframe_id: int, pose: RigidTransform,
                 observed_landmarks: tuple[int, ...] = ()):
        object.__setattr__(self, "keyframe_id", int(keyframe_id))
        object.__setattr__(self, "pose", pose)
        object.__setattr__(self, "observed_landmarks", tuple(int(i) for i in observed_landmarks))

    def __setattr__(self, name, value):
        raise AttributeError("MapKeyframe is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class Landmark:
    """One triangulated map point: id, map-frame position, observing keyframes."""

    __slots__ = ("landmark_id", "position", "observing_keyframes")

    def __init__(self, landmark_id: int, position, observing_keyframes: tuple[int, ...]):
        p = np.asarray(position, dtype=float).copy()
        if p.shape != (3,):
            raise ValueError("landmark position must have shape (3,)")
        p.flags.writeable = False
        object.__setattr__(self, "landmark_id", int(landmark_id))
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "observing_keyframes", tuple(int(i) for i in observing_keyframes))

    def __setattr__(self, name, value):
        raise AttributeError("Landmark is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class MapBundle:
    """An isolated pre-built map: keyframes and landmarks in one frame."""

    __slots__ = ("map_id", "keyframes", "landmarks")

    def __init__(self, map_id: int, keyframes, landmarks):
        kf_list = tuple(keyframes)
        lm_list = tuple(landmarks)
        kf_ids = [kf.keyframe_id for kf in kf_list]
        if len(set(kf_ids)) != len(kf_ids):
            raise MapInvariantError(f"map {map_id}: duplicate keyframe ids")
        lm_ids = [lm.landmark_id for lm in lm_list]
        if len(set(lm_ids)) != len(lm_ids):
            raise MapInvariantError(f"map {map_id}: duplicate landmark ids")
        kf_set, lm_set = set(kf_ids), set(lm_ids)
        for lm in lm_list:
            if not lm.observing_keyframes:
                raise MapInvariantError(
                    f"map {map_id}: landmark {lm.landmark_id} has no observing keyframe")
            missing = set(lm.observing_keyframes) - kf_set
            if missing:
                raise MapInvariantError(
                    f"map {map_id}: landmark {lm.landmark_id} references "
                    f"missing keyframes {sorted(missing)}")
        for kf in kf_list:
            missing = set(kf.observed_landmarks) - lm_set
            if missing:
                raise MapInvariantError(
                    f"map {map_id}: keyframe {kf.keyframe_id} references "
                    f"missing landmarks {sorted(missing)}")
        object.__setattr__(self, "map_id", int(map_id))
        object.__setattr__(self, "keyframes", {kf.keyframe_id: kf for kf in kf_list})
        object.__setattr__(self, "landmarks", {lm.landmark_id: lm for lm in lm_list})

    def __setattr__(self, name, value):
        raise AttributeError("MapBundle is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def landmark_positions(self, ids=None) -> np.ndarray:
        if ids is None:
            ids = sorted(self.landmarks)
        return np.array([self.landmarks[i].position for i in ids]).reshape(-1, 3)


def _fmt(x: float) -> str:
    return repr(float(x))


def save_map(bundle: MapBundle, path) -> None:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}",
             f"map {bundle.map_id} {len(bundle.keyframes)} {len(bundle.landmarks)}"]
    for kf_id in sorted(bundle.keyframes):
        kf = bundle.keyframes[kf_id]
        q = kf.pose.rotation.quaternion
        p = kf.pose.translation
        obs = " ".join(str(i) for i in kf.observed_landmarks)
        lines.append(f"kf {kf_id} {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])} {_fmt(q[3])} "
                     f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} "
                     f"{len(kf.observed_landmarks)}{' ' + obs if obs else ''}")
    for lm_id in sorted(bundle.landmarks):
        lm = bundle.landmarks[lm_id]
        p = lm.position
        obs = " ".join(str(i) for i in lm.observing_keyframes)
        lines.append(f"lm {lm_id} {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])} "
                     f"{len(lm.observing_keyframes)}{' ' + obs if obs else ''}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_map(path) -> MapBundle:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise MapParseError(f"{path}: empty file")

    def fail(lineno, msg):
        raise MapParseError(f"{path}:{lineno + 1}: {msg}")

    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_NAME:
        fail(0, f"expected header '{FORMAT_NAME} <version>', got {lines[0]!r}")
    if int(header[1]) != FORMAT_VERSION:
        fail(0, f"unsupported format version {header[1]}")
    if len(lines) < 2:
        fail(0, "missing 'map' record")
    map_rec = lines[1].split()
    if len(map_rec) != 4 or map_rec[0] != "map":
        fail(1, f"expected 'map <id> <n_kf> <n_lm>', got {lines[1]!r}")
    map_id, n_kf, n_lm = (int(x) for x in map_rec[1:])

    keyframes, landmarks = [], []
    for lineno, line in enumerate(lines[2:], start=2):
        if not line.strip():
            continue
        tok = line.split()
        kind = tok[0]
        try:
            if kind == "kf":
                if len(tok) < 10:
                    fail(lineno, "keyframe record needs at least 10 fields")
                kf_id = int(tok[1])
                q = np.array([float(x) for x in tok[2:6]])
                p = np.array([float(x) for x in tok[6:9]])
                n_obs = int(tok[9])
                obs = tuple(int(x) for x in tok[10:10 + n_obs])
                if len(obs) != n_obs:
                    fail(lineno, f"keyframe {kf_id}: expected {n_obs} observations, "
                                 f"found {len(obs)}")
                keyframes.append(MapKeyframe(kf_id, RigidTransform(Rotation(q), p), obs))
            elif kind == "lm":
                if len(tok) < 6:
                    fail(lineno, "landmark record needs at least 6 fields")
                lm_id = int(tok[1])
                p = np.array([float(x) for x in tok[2:5]])
                n_obs = int(tok[5])
                obs = tuple(int(x) for x in tok[6:6 + n_obs])
                if len(obs) != n_obs:
                    fail(lineno, f"landmark {lm_id}: expected {n_obs} observers, "
                                 f"found {len(obs)}")
                landmarks.append(Landmark(lm_id, p, obs))
            else:
                fail(lineno, f"unknown record kind {kind!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, MapParseError):
                raise
            fail(lineno, f"malformed record: {exc}")

    if len(keyframes) != n_kf:
        fail(1, f"header declares {n_kf} keyframes, file has {len(keyframes)}")
    if len(landmarks) != n_lm:
        fail(1, f"header declares {n_lm} landmarks, file has {len(landmarks)}")
    return MapBundle(map_id, keyframes, landmarks)

