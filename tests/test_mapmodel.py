import numpy as np
import pytest

from mapvins.geometry import RigidTransform, Rotation, yaw_rotation
from mapvins.mapmodel import (
    Landmark,
    MapBundle,
    MapInvariantError,
    MapParseError,
    MapKeyframe,
    load_map,
    save_map,
)


def small_bundle() -> MapBundle:
    kfs = [
        MapKeyframe(0, RigidTransform(yaw_rotation(0.25), [1.0, 2.0, 0.5]), (10, 11, 12)),
        MapKeyframe(1, RigidTransform(Rotation.from_rotvec([0.1, -0.2, 0.3]), [-1.0, 0.0, 1.5]),
                    (12, 13, 14)),
    ]
    lms = [
        Landmark(10, [5.0, 0.1, 1.0], (0,)),
        Landmark(11, [4.5, -0.3, 0.8], (0,)),
        Landmark(12, [6.0, 1.0, 1.2], (0, 1)),
        Landmark(13, [3.3, 2.2, 1.1], (1,)),
        Landmark(14, [7.1, -1.4, 0.9], (1,)),
    ]
    return MapBundle(3, kfs, lms)


class TestBundleInvariants:
    def test_empty_map_is_valid(self):
        bundle = MapBundle(1, [], [])
        assert bundle.map_id == 1 and not bundle.keyframes and not bundle.landmarks

    def test_landmark_missing_keyframe_rejected(self):
        with pytest.raises(MapInvariantError, match="missing keyframes"):
            MapBundle(1, [MapKeyframe(0, RigidTransform.identity())],
                      [Landmark(5, [1, 2, 3], (7,))])

    def test_landmark_without_observer_rejected(self):
        with pytest.raises(MapInvariantError, match="no observing keyframe"):
            MapBundle(1, [MapKeyframe(0, RigidTransform.identity())],
                      [Landmark(5, [1, 2, 3], ())])

    def test_duplicate_keyframe_ids_rejected(self):
        with pytest.raises(MapInvariantError, match="duplicate keyframe"):
            MapBundle(1, [MapKeyframe(0, RigidTransform.identity()),
                          MapKeyframe(0, RigidTransform.identity())], [])

    def test_bundle_is_immutable(self):
        bundle = small_bundle()
        with pytest.raises(AttributeError):
            bundle.map_id = 9


class TestFileRoundtrip:
    def test_roundtrip_preserves_fields(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "m.map"
        save_map(bundle, path)
        again = load_map(path)
        assert again.map_id == bundle.map_id
        assert set(again.keyframes) == set(bundle.keyframes)
        assert set(again.landmarks) == set(bundle.landmarks)
        for kf_id, kf in bundle.keyframes.items():
            other = again.keyframes[kf_id]
            assert np.array_equal(other.pose.translation, kf.pose.translation)
            assert np.array_equal(other.pose.rotation.quaternion, kf.pose.rotation.quaternion)
            assert other.observed_landmarks == kf.observed_landmarks
        for lm_id, lm in bundle.landmarks.items():
            assert np.array_equal(again.landmarks[lm_id].position, lm.position)
            assert again.landmarks[lm_id].observing_keyframes == lm.observing_keyframes

    def test_reserialization_is_byte_identical(self, tmp_path):
        bundle = small_bundle()
        first = tmp_path / "a.map"
        second = tmp_path / "b.map"
        save_map(bundle, first)
        save_map(load_map(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_map_roundtrip(self, tmp_path):
        path = tmp_path / "empty.map"
        save_map(MapBundle(7, [], []), path)
        again = load_map(path)
        assert again.map_id == 7 and not again.keyframes

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_text("mapvins-map 1\nmap 1 1 0\nkf 0 zero 0 0 1 0 0 0 0\n")
        with pytest.raises(MapParseError, match=r"bad\.map:3"):
            load_map(path)

    def test_invariant_violation_at_load(self, tmp_path):
        path = tmp_path / "dangling.map"
        path.write_text("mapvins-map 1\nmap 1 0 1\nlm 5 1.0 2.0 3.0 1 7\n")
        with pytest.raises(MapInvariantError, match="missing keyframes"):
            load_map(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "x.map"
        path.write_text("something-else 1\n")
        with pytest.raises(MapParseError):
            load_map(path)

