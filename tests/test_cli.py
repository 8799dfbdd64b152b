import csv
import json
import pathlib

import numpy as np
import pytest

from depthnav import read_pfm
from depthnav.cli import CSV_COLUMNS, cli

from conftest import SCENARIO_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


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

    def test_out_is_a_file_exit_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestVerify:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "corridor.json"), "--out", str(out)])
        assert cli(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "violations: 0" in text
        assert "first violation" not in text

    def test_violating_run_exit_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "corridor.json"), "--out", str(out)])
        # adversarial fixture: drag one logged sample into the pillar
        _rewrite(out, lambda rows: rows[len(rows) // 2].update(px="3.8", py="0.0", pz="1.5"))
        assert cli(["verify", str(out)]) == 1
        assert "violations: 0" not in capsys.readouterr().out

    def test_names_first_violation(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)])
        # a box across the straight path at x = 3.0; rho 0.35 reaches it from x = 2.65
        scenario = json.loads((out / "scenario.json").read_text())
        scenario["scene"] = [{"type": "box", "min": [3.0, -5.0, 0.0], "max": [3.2, 5.0, 3.0]}]
        (out / "scenario.json").write_text(json.dumps(scenario))
        capsys.readouterr()
        assert cli(["verify", str(out)]) == 1
        with open(out / "trajectory.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        i = next(i for i, r in enumerate(rows) if float(r["px"]) >= 2.65)
        row = rows[i]
        text = capsys.readouterr().out
        assert (
            f"first violation: row {i}, t = {float(row['t'])} s, "
            f"mode {row['mode']}, event {row['event']}"
        ) in text
        assert "min clearance: -0.35 m" in text

    @pytest.mark.parametrize("column", ["px", "py", "pz"])
    @pytest.mark.parametrize("value", ["nan", "inf", "abc", ""])
    def test_rejects_non_finite_position(self, tmp_path, capsys, column, value):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)])
        _rewrite(out, lambda rows: rows[3].update({column: value}))
        capsys.readouterr()
        assert cli(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: trajectory row 3: {column}" in captured.err
        assert "violations" not in captured.out

    def test_rejects_all_nan_positions(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "corridor.json"), "--out", str(out)])
        _rewrite(out, lambda rows: [r.update(px="nan") for r in rows])
        assert cli(["verify", str(out)]) == 1
        assert "error: trajectory row 0: px" in capsys.readouterr().err

    def test_rejects_missing_position_column(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(out)])
        _rewrite(out, lambda rows: [r.pop("px") for r in rows])
        assert cli(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: trajectory row 0: missing column 'px'" in err
        assert "Traceback" not in err


def _rewrite(run_dir, edit):
    """Apply edit to the rows of run_dir's trajectory.csv and write them back,
    with the columns the edited rows still have."""
    path = run_dir / "trajectory.csv"
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


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

    @pytest.mark.parametrize("name, pose", [
        ("corridor_start", []),
        ("corridor_6dof", ["--pose", "2.0", "2.6", "1.5", "0.1", "-0.05", "0.6"]),
    ])
    def test_matches_golden_pfm(self, tmp_path, name, pose):
        """Full frames byte-identical to tests/golden/render/, written by an
        unculled renderer; the 6-DoF pose sees a wall box straddle z_near."""
        out = tmp_path / "depth.pfm"
        assert cli(["render", str(SCENARIO_DIR / "corridor.json"), *pose, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "render" / f"{name}.pfm").read_bytes()

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

    def test_out_is_a_directory_exit_one(self, tmp_path, capsys):
        assert cli(["render", str(SCENARIO_DIR / "empty.json"), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
