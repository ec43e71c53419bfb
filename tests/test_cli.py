"""In-process smoke test of the command line: every subcommand on a tiny run."""

from mapvins import metrics
from mapvins.cli import main
from mapvins.harness import ExperimentConfig, save_config
from mapvins.sim import Scenario, ScenarioConfig


def tiny_config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.scenario = ScenarioConfig(duration=2.0, seed=4, num_maps=1,
                                  map_update_period=1.0)
    cfg.seeds = [4]
    return cfg


def test_every_subcommand_runs(tmp_path, capsys):
    cfg = tiny_config()
    cfg_path = tmp_path / "exp.yaml"
    save_config(cfg, cfg_path)

    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "scen")]) == 0
    assert (tmp_path / "scen" / "scenario.json").exists()
    assert (tmp_path / "scen" / "map1.map").exists()

    assert main(["localize", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    log = tmp_path / "run" / "runs" / "seed4.jsonl"
    assert log.exists()

    # estimate from the pose log, truth from the same scenario
    scenario = Scenario(cfg.scenario)
    est = metrics.trajectory_from_pose_log(log, "local")
    gt = metrics.Trajectory(scenario.frame_times, tuple(
        scenario.frame_pose(f) for f in range(len(scenario.frame_times))), "local")
    metrics.save_trajectory(est, tmp_path / "est.txt")
    metrics.save_trajectory(gt, tmp_path / "gt.txt")
    capsys.readouterr()
    assert main(["evaluate", "--est", str(tmp_path / "est.txt"),
                 "--gt", str(tmp_path / "gt.txt"), "--mode", "local"]) == 0
    expected = metrics.local_trajectory_error(metrics.load_trajectory(tmp_path / "est.txt"),
                                              metrics.load_trajectory(tmp_path / "gt.txt"))
    assert capsys.readouterr().out.strip() == f"local_rmse {expected:.6f}"

    assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")]) == 0
