import csv
import json
import os
import pathlib

import numpy as np
import pytest

from depthnav import read_pfm
from depthnav.cli import CSV_COLUMNS, _parser, cli

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

    def test_timed_out_scenario_exit_three(self, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "empty.json").read_text())
        data["planner"] = {"mission_timeout": 0.2}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        assert cli(["run", str(scenario), "--out", str(tmp_path / "r")]) == 3
        assert "mission timed_out at t = 0.2 s (2 samples)" in capsys.readouterr().out

    def test_world_past_the_size_limit_exit_one(self, tmp_path, capsys):
        """A wall at x = 5 with 1e50 m half-extents in a 1e51 m world, which
        the render loses (a mission flies through it): refused naming
        world_bounds, with no mission run."""
        data = json.loads((SCENARIO_DIR / "empty.json").read_text())
        data["world_bounds"] = {"min": [-1e51] * 3, "max": [1e51] * 3}
        data["scene"] = [{"type": "wall", "point": [5.0, 0.0, 0.0], "normal": [-1.0, 0.0, 0.0],
                          "half_extents": [1e50, 1e50]}]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "r"
        assert cli(["run", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid world_bounds.min: each coordinate must lie within 1,000,000 m")
        assert not out.exists()

    def test_world_at_the_size_limit_is_sound(self, tmp_path, capsys):
        """A 1 m box at x = 5-6 spanning a +-1e6 m world blocks every way to
        the goal: the mission ends stuck and the oracle finds no violation."""
        data = json.loads((SCENARIO_DIR / "empty.json").read_text())
        data["world_bounds"] = {"min": [-1e6] * 3, "max": [1e6] * 3}
        data["scene"] = [{"type": "box", "min": [5.0, -1e6, -1e6], "max": [6.0, 1e6, 1e6]}]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "r"
        assert cli(["run", str(scenario), "--out", str(out)]) == 2
        assert cli(["verify", str(out)]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_rerun_in_place_exit_zero(self, tmp_path):
        """A run directory's own scenario.json re-runs into that directory:
        the copy onto itself is skipped and the mission writes the same bytes."""
        assert cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(tmp_path)]) == 0
        first = [(tmp_path / name).read_bytes() for name in ("trajectory.csv", "outcome.json")]
        assert cli(["run", str(tmp_path / "scenario.json"), "--out", str(tmp_path)]) == 0
        assert [(tmp_path / name).read_bytes() for name in ("trajectory.csv", "outcome.json")] == first

    def test_missing_scenario_exit_one(self, tmp_path, capsys):
        code = cli(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    # file bytes that decode to no scenario: bad JSON, a byte that is not
    # UTF-8, and an integer past Python's 4,300-digit string conversion limit
    UNDECODABLE = [b"{not json", b'{"robot": {"rho": 0.35}}\xd8', b'{"robot": {"rho": 1' + b"0" * 4300 + b"}}"]

    @pytest.mark.parametrize("content", UNDECODABLE, ids=["json", "utf8", "digits"])
    def test_undecodable_scenario_is_a_parse_error(self, tmp_path, capsys, content):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(content)
        out = tmp_path / "r"
        assert cli(["run", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario parse error: ")
        assert "Traceback" not in err
        assert not out.exists()

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
        assert depth.shape == (480, 640)
        assert np.all(depth > 0.0) and np.all(depth <= 10.0)

    def test_default_pose_is_scenario_start(self, tmp_path):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        cli(["render", str(SCENARIO_DIR / "corridor.json"), "--out", str(a)])
        cli(["render", str(SCENARIO_DIR / "corridor.json"), "--pose", "0", "0", "1.2",
             "--out", str(b)])
        assert np.array_equal(read_pfm(a), read_pfm(b))

    @pytest.mark.parametrize("name, pose", [
        ("corridor_start", []),
        ("corridor_6dof", ["--pose", "2.0", "2.6", "1.5", "0.1", "-0.05", "0.6"]),
    ])
    def test_matches_golden_pfm(self, tmp_path, name, pose):
        """Full frames byte-identical to tests/golden/render/, written by an
        unculled renderer; the 6-DoF pose sees a wall box straddle z_near.
        The render overwrites a file in place: over a longer one (the other
        golden plus 1 KB of junk) it leaves the golden's bytes and no more,
        and over the null device, which cannot be cut, it still exits 0."""
        corridor = str(SCENARIO_DIR / "corridor.json")
        golden = (GOLDEN_DIR / "render" / f"{name}.pfm").read_bytes()
        other = "corridor_6dof" if name == "corridor_start" else "corridor_start"
        out, longer = tmp_path / "depth.pfm", tmp_path / "longer.pfm"
        longer.write_bytes((GOLDEN_DIR / "render" / f"{other}.pfm").read_bytes() + b"\xff" * 1024)
        for path in (out, longer):
            assert cli(["render", corridor, *pose, "--out", str(path)]) == 0
            assert path.read_bytes() == golden
        assert cli(["render", corridor, *pose, "--out", os.devnull]) == 0

    def test_negative_exponent_pose(self, tmp_path):
        a = tmp_path / "a.pfm"
        b = tmp_path / "b.pfm"
        corridor = str(SCENARIO_DIR / "corridor.json")
        assert cli(["render", corridor, "--pose", "0", "-5.8e-05", "1.2", "--out", str(a)]) == 0
        assert cli(["render", corridor, "--pose", "0", "-0.000058", "1.2", "--out", str(b)]) == 0
        assert np.array_equal(read_pfm(a), read_pfm(b))

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
    # the default weights' gains and residuals, as `depthnav gains` prints them
    DEFAULT_GAINS = (
        "mode l0: kp = 0.577350  kv = 1.089970  ARE residual = 4.441e-16\n"
        "mode l1: kp = 3.162278  kv = 2.706392  ARE residual = 1.110e-16\n"
    )

    def test_prints_both_modes(self, capsys):
        assert cli(["gains"]) == 0
        out = capsys.readouterr().out
        assert "mode l0" in out and "mode l1" in out
        assert "residual" in out
        assert out == self.DEFAULT_GAINS

    def test_scenario_gains(self, capsys):
        assert cli(["gains", str(SCENARIO_DIR / "corridor.json")]) == 0
        out = capsys.readouterr().out
        assert "kp = 0.577350" in out
        assert out == self.DEFAULT_GAINS

    def test_weights_with_infinite_gain_exit_one(self, tmp_path, capsys):
        """qp = r = 1e200 solve to kp = inf: refused, not printed."""
        data = json.loads((SCENARIO_DIR / "corridor.json").read_text())
        data["planner"]["weights_l1"] = {"qp": 1e200, "qv": 0.1, "r": 1e200}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
        assert cli(["gains", str(scenario)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid planner.weights_l1.qp:")


class TestParserReuse:
    def test_calls_carry_nothing_between_them(self, tmp_path, capsys):
        """One process's parser, reused call after call: a posed render, a
        render without --pose, a rejected pose, gains and a mission each
        read only their own arguments."""
        corridor = str(SCENARIO_DIR / "corridor.json")
        parser = _parser()
        out = tmp_path / "depth.pfm"
        pose = ["2.0", "2.6", "1.5", "0.1", "-0.05", "0.6"]
        assert cli(["render", corridor, "--pose", *pose, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "render" / "corridor_6dof.pfm").read_bytes()
        assert cli(["render", corridor, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "render" / "corridor_start.pfm").read_bytes()
        capsys.readouterr()
        assert cli(["render", corridor, "--pose", "0", "0", "--out", str(tmp_path / "x.pfm")]) == 1
        assert "--pose takes 3 or 6 values" in capsys.readouterr().err
        assert cli(["gains"]) == 0
        assert "mode l0" in capsys.readouterr().out
        run = tmp_path / "run"
        assert cli(["run", str(SCENARIO_DIR / "empty.json"), "--out", str(run)]) == 0
        for fname in ("trajectory.csv", "outcome.json"):
            assert (run / fname).read_bytes() == (GOLDEN_DIR / "empty" / fname).read_bytes()
        assert _parser() is parser


class TestUsage:
    def test_unknown_command_exit_one(self, capsys):
        assert cli(["frobnicate"]) == 1

    def test_no_command_exit_one(self):
        assert cli([]) == 1
