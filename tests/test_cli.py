import csv
import json

import numpy as np
import pytest

from depthnav import read_pfm
from depthnav.cli import CSV_COLUMNS, cli

from conftest import SCENARIO_DIR


class TestRun:
    def test_empty_scenario_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)]) == 0
        assert "reached_goal" in capsys.readouterr().out
        assert (out / "trajectory.csv").exists()
        assert (out / "outcome.json").exists()
        assert (out / "scenario.json").exists()

    def test_trajectory_schema_and_time_grid(self, tmp_path):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)])
        with open(out / "trajectory.csv", newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == CSV_COLUMNS
            rows = list(reader)
        outcome = json.loads((out / "outcome.json").read_text())
        # row count = duration / ts + 1 for an uninterrupted run
        assert len(rows) == round(outcome["time"] / 0.2) + 1
        ts = [float(r["t"]) for r in rows]
        assert all(abs((b - a) - 0.2) < 1e-9 for a, b in zip(ts, ts[1:]))

    def test_stuck_scenario_exit_two(self, tmp_path):
        assert cli(["run", str(SCENARIO_DIR / "sealed.json"), "--out", str(tmp_path / "r")]) == 2

    def test_missing_scenario_exit_one(self, tmp_path, capsys):
        code = cli(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "corridor.json"), "--out", str(out)])
        assert cli(["verify", str(out)]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_violating_run_exit_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "corridor.json"), "--out", str(out)])
        # adversarial fixture: drag one logged sample into the pillar
        traj = out / "trajectory.csv"
        with open(traj, newline="") as f:
            rows = list(csv.DictReader(f))
        rows[len(rows) // 2]["px"], rows[len(rows) // 2]["py"], rows[len(rows) // 2]["pz"] = (
            "3.8", "0.0", "1.5",
        )
        with open(traj, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
            w.writeheader()
            w.writerows(rows)
        assert cli(["verify", str(out)]) == 1
        assert "violations: 0" not in capsys.readouterr().out


class TestRender:
    def test_writes_readable_pfm(self, tmp_path):
        out = tmp_path / "depth.pfm"
        code = cli(
            ["render", str(SCENARIO_DIR / "corridor.json"), "--pose", "0", "0", "1.2",
             "--out", str(out)]
        )
        assert code == 0
        depth = read_pfm(out)
        assert depth.width == 640 and depth.height == 480
        assert np.all(depth.values > 0.0) and np.all(depth.values <= 10.0)

    def test_default_pose_is_scenario_start(self, tmp_path):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        cli(["render", str(SCENARIO_DIR / "corridor.json"), "--out", str(a)])
        cli(["render", str(SCENARIO_DIR / "corridor.json"), "--pose", "0", "0", "1.2",
             "--out", str(b)])
        assert np.array_equal(read_pfm(a).values, read_pfm(b).values)

    def test_negative_exponent_pose(self, tmp_path):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        corridor = str(SCENARIO_DIR / "corridor.json")
        assert cli(["render", corridor, "--pose", "0", "-5.8e-05", "1.2", "--out", str(a)]) == 0
        assert cli(["render", corridor, "--pose", "0", "-0.000058", "1.2", "--out", str(b)]) == 0
        assert np.array_equal(read_pfm(a).values, read_pfm(b).values)

    @pytest.mark.parametrize("pose", [["0", "0"], ["0", "0", "1.2", "0", "0", "0", "0"]])
    def test_wrong_pose_length_exit_one(self, tmp_path, capsys, pose):
        out = tmp_path / "depth.pfm"
        assert cli(["render", str(SCENARIO_DIR / "corridor.json"), "--pose", *pose,
                    "--out", str(out)]) == 1
        assert "--pose takes 3 or 6 values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pose", [["nan", "0", "1.2"], ["0", "0", "1.2", "0", "-inf", "0"]])
    def test_non_finite_pose_exit_one(self, tmp_path, capsys, pose):
        out = tmp_path / "depth.pfm"
        assert cli(["render", str(SCENARIO_DIR / "corridor.json"), "--pose", *pose,
                    "--out", str(out)]) == 1
        assert "--pose" in capsys.readouterr().err
        assert not out.exists()


class TestGains:
    def test_prints_both_modes(self, capsys):
        assert cli(["gains"]) == 0
        out = capsys.readouterr().out
        assert "mode l0" in out and "mode l1" in out
        assert "residual" in out

    def test_scenario_gains(self, capsys):
        assert cli(["gains", str(SCENARIO_DIR / "corridor.json")]) == 0
        assert "kp = 0.577350" in capsys.readouterr().out


class TestUsage:
    def test_unknown_command_exit_one(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_no_command_exit_one(self):
        assert cli([]) == 1
