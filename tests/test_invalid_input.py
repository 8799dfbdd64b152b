"""Every numeric scenario field rejects NaN, infinity, a wrong sign, a
string, a boolean and an integer beyond float's range: ``depthnav run`` exits
1 and names the field path on stderr, with no traceback and no mission run."""

import copy
import json

import pytest

from depthnav.cli import cli
from depthnav.scenario import parse_scenario

from conftest import SCENARIO_DIR

BASE = json.loads((SCENARIO_DIR / "corridor.json").read_text())
BASE["scene"] = [
    {"type": "box", "min": [3.5, -0.7, 0.0], "max": [4.1, 0.7, 3.0]},
    {"type": "sphere", "center": [6.0, -1.8, 1.2], "radius": 0.6},
    {"type": "wall", "point": [9.0, 2.0, 1.0], "normal": [-1.0, 0.0, 0.0], "half_extents": [0.5, 0.5]},
]


class _Huge(int):
    """10**400, a 401-digit JSON integer beyond float's range, named so in test ids."""

    def __str__(self):
        return "10**400"


NAN, INF, NEG, STR, BOOL, HUGE = float("nan"), float("inf"), -1.0, "x", True, _Huge(10**400)
ALL = (NAN, INF, NEG, STR, BOOL, HUGE)
SIGNED = (NAN, INF, STR, BOOL, HUGE)  # -1 is a valid value for these fields

# (key path into the scenario dict, bad values, field path the error must name)
FIELDS = [
    *((("intrinsics", k), ALL, f"intrinsics.{k}")
      for k in ("fsx", "fsy", "cx", "cy", "width", "height", "z_near", "max_depth")),
    *((("intrinsics", k), (0.0,), f"intrinsics.{k}") for k in ("cx", "cy")),  # on the border
    # beyond float32, which a pixel with no hit holds (pytest turns the
    # overflow warning a run would give into an error)
    (("intrinsics", "max_depth"), (3.5e38, 1e39), "intrinsics.max_depth"),
    (("robot", "rho"), ALL, "robot.rho"),
    *((("planner", k), ALL, f"planner.{k}")
      for k in ("tau", "ts", "d_l", "eps_reach", "max_rings", "mission_timeout")),
    *((("planner", w, k), ALL, f"planner.{w}.{k}")
      for w in ("weights_l0", "weights_l1") for k in ("qp", "qv", "r")),
    *((("start", k, i), SIGNED, f"start.{k}") for k in ("p", "v") for i in range(3)),
    (("start", "p"), ([0.0, 1.2], [[0.0], [0.0, 1.2]]), "start.p"),
    *((("goal", k), SIGNED, f"goal.{k}") for k in ("x_goal", "y_ref", "z_ref")),
    # outside world_bounds, like a start there (1e300 overflows the regulator)
    *((("goal", k), (1e300,), f"goal.{k}") for k in ("x_goal", "y_ref", "z_ref")),
    *((("world_bounds", k, 0), SIGNED, f"world_bounds.{k}") for k in ("min", "max")),
    (("scene", 0, "min", 1), SIGNED, "scene[0].min"),
    (("scene", 0, "max", 2), SIGNED, "scene[0].max"),
    (("scene", 1, "center", 0), SIGNED, "scene[1].center"),
    (("scene", 1, "radius"), ALL, "scene[1].radius"),
    (("scene", 2, "point", 2), SIGNED, "scene[2].point"),
    (("scene", 2, "normal", 0), SIGNED, "scene[2].normal"),
    (("scene", 2, "half_extents", 1), ALL, "scene[2].half_extents"),
    # a section, the scene list or a primitive of the wrong JSON kind
    (("robot",), (3,), "robot"),
    (("scene",), ({},), "scene"),
    (("scene", 0), (3,), "scene[0]"),
]

CASES = [
    pytest.param(keys, value, path, id=f"{'.'.join(map(str, keys))}={value}")
    for keys, values, path in FIELDS
    for value in values
]


def _with(keys, value):
    data = copy.deepcopy(BASE)
    node = data
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return data


def test_base_scenario_is_valid():
    sc = parse_scenario(copy.deepcopy(BASE))
    assert len(sc.scene.primitives) == 3


@pytest.mark.parametrize("keys, value, path", CASES)
def test_run_rejects_invalid_field(tmp_path, capsys, keys, value, path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_with(keys, value)))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"invalid {path}:" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_rejects_overflowing_horizon(tmp_path, capsys):
    """tau / ts overflows to infinity: an invalid tau, not an OverflowError."""
    data = _with(("planner", "tau"), 1e300)
    data["planner"]["ts"] = 1e-300
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: invalid planner.tau:" in err
    assert "Traceback" not in err
    assert not out.exists()


# planner values each field accepts alone, which together leave no usable
# mission: (planner keys and values, the error's field path)
UNFLYABLE = [
    ({"weights_l1": {"qp": 1e200, "qv": 0.1, "r": 1e200}}, "planner.weights_l1.qp"),  # kp = inf
    ({"weights_l0": {"qp": 1e-300, "qv": 0.1, "r": 1e-300}}, "planner.weights_l0.qp"),  # kp = 0
    ({"tau": 1e-10, "ts": 0.2}, "planner.tau"),  # a horizon of no sample
]


@pytest.mark.parametrize("values, path", UNFLYABLE, ids=[path for _, path in UNFLYABLE])
def test_run_rejects_unflyable_planner(tmp_path, capsys, values, path):
    """Rejected when the scenario is parsed, not found by a mission that
    dies, times out or warns."""
    data = copy.deepcopy(BASE)
    data["planner"].update(values)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {path}:")
    assert "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_run_refuses_camera_blind_to_max_depth(tmp_path, capsys):
    """fsx = fsy = 7000 puts the blind zone at 10.86 m, beyond max_depth
    10 m: no sample could be checked free, so the mission is refused
    rather than flown with every sample unchecked."""
    data = copy.deepcopy(BASE)
    data["intrinsics"].update(fsx=7000.0, fsy=7000.0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: intrinsics:")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_refuses_colliding_start(tmp_path, capsys):
    """A box around empty.json's start: every field is valid alone, but the
    oracle finds the start in collision, and the error names start.p."""
    data = json.loads((SCENARIO_DIR / "empty.json").read_text())
    data["scene"] = [{"type": "box", "min": [-1.0, -1.0, 0.2], "max": [1.0, 1.0, 2.2]}]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: start.p:")
    assert "Traceback" not in err
    assert not out.exists()


def test_run_rejects_untyped_primitive(tmp_path, capsys):
    data = copy.deepcopy(BASE)
    del data["scene"][1]["type"]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: missing required field scene[1].type\n"
    assert not out.exists()


# (key path of the unknown key, the field path the error must name)
UNKNOWN = [
    (("seed",), "seed"),
    (("intrinsics", "fx"), "intrinsics.fx"),
    (("robot", "rh0"), "robot.rh0"),
    (("planner", "umax"), "planner.umax"),
    (("planner", "u_max"), "planner.u_max"),  # the loop has no input clamp
    (("planner", "horizon_samples"), "planner.horizon_samples"),  # derived from tau and ts
    (("planner", "weights_l0", "q"), "planner.weights_l0.q"),
    (("planner", "weights_l1", "R"), "planner.weights_l1.R"),
    (("start", "vel"), "start.vel"),
    (("goal", "x"), "goal.x"),
    (("world_bounds", "lo"), "world_bounds.lo"),
    (("scene", 0, "radius"), "scene[0].radius"),  # a key of another primitive type
    (("scene", 1, "centre"), "scene[1].centre"),
    (("scene", 2, "min"), "scene[2].min"),
]


@pytest.mark.parametrize("keys, path", UNKNOWN, ids=[path for _, path in UNKNOWN])
def test_run_rejects_unknown_key(tmp_path, capsys, keys, path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_with(keys, 0.1)))
    out = tmp_path / "run"
    assert cli(["run", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: unknown field {path}\n" in err
    assert "Traceback" not in err
    assert not out.exists()
