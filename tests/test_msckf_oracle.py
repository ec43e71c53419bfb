"""The stacked filter against the per-track / per-landmark reference.

``filter_oracle`` holds the readable one-object-at-a-time form of each
filter step.  Both must take the same discrete decisions (which tracks and
landmarks are used, gated or skipped) and agree on the state correction and
the covariance to 1e-9 relative.
"""

import copy

import numpy as np
import pytest

import filter_oracle as oracle
import mapvins.harness as harness
import mapvins.msckf as msckf
from mapvins.geometry import RigidTransform, Rotation, _quat_to_matrix, yaw_rotation
from mapvins.harness import ExperimentConfig, run_localization
from mapvins.sim import ImuNoiseParams, ImuSample, Scenario, ScenarioConfig, make_rig
import test_msckf
from test_msckf import make_map_bundle, snapshot_nuisance

REL_TOL = 1e-9


def multimap_config(seed: int) -> ExperimentConfig:
    """Four cameras, three maps sharing landmarks, one degraded (cross rows)."""
    noise = ImuNoiseParams(sigma_g=0.002, sigma_a=0.02, sigma_wg=1e-5, sigma_wa=2e-5)
    cfg = ExperimentConfig()
    cfg.scenario = ScenarioConfig(
        kind="circle", duration=5.0, seed=seed, num_cameras=4, num_maps=3,
        trajectory_params={"radius": 16.0, "angular_rate": 0.2}, imu_noise=noise,
        local_sigma_px=0.5, sigma_px=1.0, outlier_rate=0.25,
        shared_landmark_fraction=0.2, map_update_period=1.0,
        map_quality={2: {"count_factor": 0.75, "extra_outliers": 0.1}})
    cfg.filter.sigma_g, cfg.filter.sigma_a = 0.002, 0.02
    cfg.filter.sigma_wg, cfg.filter.sigma_wa = 1e-5, 2e-5
    cfg.filter.local_sigma_px = 0.5
    cfg.ransac.polish = True
    cfg.seeds = [seed]
    return cfg


def error_state(after, before) -> np.ndarray:
    """Active-state change from ``before`` to ``after`` in the filter's error convention."""
    def rot(qa, qb):
        return (Rotation(qa) @ Rotation(qb).inverse()).as_rotvec()
    k = len(before.quats)
    assert after.keys[:k] == before.keys[:k]
    parts = [rot(after.q_IL, before.q_IL), after.v - before.v, after.p - before.p,
             after.bg - before.bg, after.ba - before.ba]
    for row in range(k):
        parts += [rot(after.quats[row], before.quats[row]),
                  after.positions[row] - before.positions[row]]
    return np.concatenate(parts)


def assert_states_agree(new, ref, before):
    """Corrections agree to 1e-9 relative, P to 1e-9 of sqrt(P_ii P_jj)."""
    d_new, d_ref = error_state(new, before), error_state(ref, before)
    assert np.linalg.norm(d_new - d_ref) <= REL_TOL * np.linalg.norm(d_ref)
    assert new.P.shape == ref.P.shape
    scale = np.sqrt(np.outer(np.diag(ref.P), np.diag(ref.P)))
    assert np.all(np.abs(new.P - ref.P) <= REL_TOL * scale)
    means_new, p_nn_new = snapshot_nuisance(new)
    means_ref, p_nn_ref = snapshot_nuisance(ref)
    assert np.array_equal(p_nn_new, p_nn_ref)
    for key, (q, p) in means_ref.items():
        assert np.array_equal(means_new[key][0], q) and np.array_equal(means_new[key][1], p)


def report_counts(report):
    return (report.used, report.gated, report.skipped, report.rows)


@pytest.mark.parametrize("seed", [7001, 7002])
def test_recorded_multimap_calls_match_oracle(seed, monkeypatch):
    # every filter call of a multimap run is replayed through the oracle
    # from a copy of its input state; each call must agree to 1e-9
    calls = {"propagate": 0, "update_local": 0, "update_map": 0}
    used = {"update_local": 0, "update_map": 0}

    def checked(name):
        new_fn, ref_fn = getattr(msckf, name), getattr(oracle, name)

        def run(state, arg):
            before = copy.deepcopy(state)
            ref = ref_fn(copy.deepcopy(state), arg)
            new_fn(state, arg)
            if name != "propagate":
                assert report_counts(state.last_report) == report_counts(ref.last_report)
                assert state.last_report.max_nullspace_residual < 1e-10
                used[name] += state.last_report.used
            assert_states_agree(state, ref, before)
            calls[name] += 1
            return state
        return run

    for name in calls:
        monkeypatch.setattr(harness, name, checked(name))
    cfg = multimap_config(seed)
    result = run_localization(Scenario(cfg.scenario), cfg)
    assert len(result.init_stats) == 3  # every map registered, cross rows in play
    assert calls["update_map"] >= 5 and used["update_map"] > 0
    assert calls["update_local"] >= 30 and used["update_local"] > 0


@pytest.mark.parametrize("seed", [7001, 7002])
def test_stored_attitudes_stay_on_so3(seed, monkeypatch):
    # every correction renormalizes: after each filter call every stored
    # quaternion is unit and its matrix orthogonal to 1e-14
    worst = {"norm": 0.0, "orth": 0.0}

    def checked(fn):
        def run(state, arg):
            fn(state, arg)
            quats = np.vstack([state.q_IL, state.quats])
            rot = _quat_to_matrix(quats)
            worst["norm"] = max(worst["norm"], np.abs(np.linalg.norm(quats, axis=1) - 1).max())
            worst["orth"] = max(worst["orth"],
                                np.abs(rot @ rot.transpose(0, 2, 1) - np.eye(3)).max())
            assert worst["norm"] <= 1e-14 and worst["orth"] <= 1e-14
            return state
        return run

    for name in ("propagate", "update_local", "update_map"):
        monkeypatch.setattr(harness, name, checked(getattr(msckf, name)))
    cfg = multimap_config(seed)
    result = run_localization(Scenario(cfg.scenario), cfg)
    assert len(result.init_stats) == 3


def random_track(rng, n_views):
    """Camera poses around a point 4-12 m ahead, noisy pixels of that point."""
    cam = make_rig(1)[0]
    point = cam.imu_from_camera.apply([0.0, 0.0, rng.uniform(4.0, 12.0)]) \
        + rng.normal(0, 1.0, 3)
    poses, pixels = [], []
    for _ in range(n_views):
        pose = RigidTransform(Rotation.from_rotvec(rng.normal(0, 0.05, 3)),
                              rng.normal(0, 0.4, 3)) @ cam.imu_from_camera
        poses.append(pose)
        pixels.append(cam.project(pose.inverse().apply(point)) + rng.normal(0, 1.0, 2))
    return poses, pixels, [cam] * n_views


def test_triangulate_matches_oracle():
    rng = np.random.default_rng(5)
    cases = [random_track(rng, int(rng.integers(2, 12))) for _ in range(300)]
    cam = make_rig(1)[0]
    still = RigidTransform.identity() @ cam.imu_from_camera
    cases.append(([still] * 3, [np.array([320.0, 240.0])] * 3, [cam] * 3))  # no baseline
    poses, pixels, cams = random_track(rng, 3)
    cases.append((poses, [cam.project(np.array([0.3, 0.1, -5.0]))] * 3, cams))  # behind
    kept = 0
    for poses, pixels, cams in cases:
        ref = oracle.triangulate(poses, pixels, cams)
        got = test_msckf.triangulate(poses, pixels, cams)
        assert (got is None) == (ref is None)
        if ref is not None:
            kept += 1
            assert np.linalg.norm(got - ref) <= REL_TOL * np.linalg.norm(ref)
    assert 250 <= kept < len(cases)


def test_propagate_matches_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        st = msckf.FilterState(msckf.FilterConfig(sigma_g=2e-3, sigma_a=2e-2), make_rig(1))
        st.set_pose(RigidTransform(Rotation.from_rotvec(rng.normal(0, 0.3, 3)),
                                   rng.normal(0, 5.0, 3)),
                    rng.normal(0, 1.0, 3), bg=rng.normal(0, 1e-3, 3),
                    ba=rng.normal(0, 1e-2, 3))
        st.set_imu_covariance(1e-3, 1e-2, 1e-2, 1e-4, 1e-3)
        if trial % 2:
            msckf.register_map(st, make_map_bundle(), RigidTransform(yaw_rotation(0.3),
                                                                      [1.0, 2.0, 3.0]))
            msckf.clone_and_marginalize(st, 0)
        n = int(rng.integers(2, 40))
        times = np.cumsum(rng.uniform(0.004, 0.006, n))
        samples = [ImuSample(float(t), rng.normal(0, 0.5, 3),
                             np.array([0.0, 0.0, 9.81]) + rng.normal(0, 1.0, 3))
                   for t in times]
        before = copy.deepcopy(st)
        ref = oracle.propagate(copy.deepcopy(st), samples)
        msckf.propagate(st, samples)
        assert st.time == ref.time
        assert_states_agree(st, ref, before)


def test_update_local_schmidt_contract_with_nuisance_states():
    # keyframes lifted into the nuisance block and a P with full active /
    # nuisance correlation: update_local multiplies no nuisance column, so
    # the nuisance means and P_NN must come out bit-identical and P_AN must
    # follow the explicit zero-H_N formula P_AN - K H_A P_AN
    st, tracks = test_msckf.TestUpdateLocal()._tracked_state(noise=0.5, seed=5)
    msckf.register_map(st, make_map_bundle(), RigidTransform(yaw_rotation(0.3),
                                                              [1.0, 2.0, 3.0]))
    for kf in range(3):
        assert msckf.ensure_keyframe(st, 1, kf)
    rng = np.random.default_rng(3)
    d = st.dim
    mix = rng.normal(0, 1e-3, (d, d))
    st.P = st.P + mix @ mix.T
    means_before, p_nn_before = snapshot_nuisance(st)
    a = st.active_dim
    p_an_before = st.P[:a, a:].copy()
    ref = oracle.update_local(copy.deepcopy(st), tracks)
    msckf.update_local(st, tracks)
    assert st.last_report.used > 0
    assert report_counts(st.last_report) == report_counts(ref.last_report)
    means_after, p_nn_after = snapshot_nuisance(st)
    assert np.array_equal(p_nn_after, p_nn_before)
    for key, (q, p) in means_before.items():
        assert np.array_equal(means_after[key][0], q)
        assert np.array_equal(means_after[key][1], p)
    assert np.abs(st.P[:a, a:] - ref.P[:a, a:]).max() < 1e-12
    assert np.abs(st.P[:a, a:] - p_an_before).max() > 1e-9  # the update moved P_AN
    assert np.array_equal(st.P[a:, :a], st.P[:a, a:].T)
