"""The shipped scenarios' outputs are byte-identical to the committed
reference files in tests/golden/<name>/.

A change that alters a shipped trajectory on purpose regenerates them with
``depthnav run scenarios/<name>.json --out tests/golden/<name>`` (and deletes
the copied scenario.json) and says why in CHANGES.md.

Seeded clutter missions beyond the shipped scenarios are pinned by one
digest each, over the mission's outcome and the oracle's verdict. Every
appended sample of these missions carries the check reason it was appended
with.
"""

import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from depthnav import (
    Box,
    CameraIntrinsics,
    GoalRegion,
    PlannerConfig,
    RobotModel,
    Scene,
    Sphere,
    StateVec,
    load_scenario,
    run_mission,
    verify_mission,
)
from depthnav.cli import cli
from depthnav.planner import ROW_COLUMNS

from conftest import SCENARIO_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name, code", [("corridor", 0), ("empty", 0), ("sealed", 2)])
def test_outputs_match_golden(tmp_path, name, code):
    out = tmp_path / name
    assert cli(["run", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]) == code
    for fname in ("trajectory.csv", "outcome.json"):
        assert (out / fname).read_bytes() == (GOLDEN_DIR / name / fname).read_bytes(), fname


def _clutter_scenes(n: int) -> list:
    """n seeded scenes; scene k holds 2 + k % 5 boxes and spheres between the
    start and the goal plane."""
    rng = np.random.default_rng(13)
    scenes = []
    for k in range(n):
        prims = []
        for _ in range(2 + k % 5):
            c = np.array([rng.uniform(2.0, 9.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.4)])
            if rng.random() < 0.5:
                h = rng.uniform(0.15, 0.6, 3)
                prims.append(Box(tuple((c - h).tolist()), tuple((c + h).tolist())))
            else:
                prims.append(Sphere(tuple(c.tolist()), float(rng.uniform(0.25, 0.7))))
        scenes.append(Scene(tuple(prims)))
    return scenes


# one digest per clutter mission: a change that moves a trajectory, an event,
# the status or the oracle's verdict names the mission it moved. The list pins
# today's flagged missions too (ROADMAP item 1 re-baselines it with the oracle).
CLUTTER_DIGESTS = [
    "4edaa4aa33c7fd92",  # 0: reached_goal at 4.6 s
    "1d9022f05c0982b4",  # 1: reached_goal at 9.2 s, 70 oracle violations
    "08e170734029f257",  # 2: reached_goal at 4.6 s
    "a756816fb2756cc2",  # 3: reached_goal at 7.6 s
    "9fa74779359d2a45",  # 4: reached_goal at 9.6 s
    "60e2f20724026c20",  # 5: reached_goal at 8.8 s, 78 oracle violations
    # 6: its min_clearance took a BLAS norm until the oracle summed its own
    # squares; the recorded value is the one every OpenBLAS kernel now gives
    "012524bbf0018514",  # 6: reached_goal at 4.6 s
    "2437e16a6a69e853",  # 7: reached_goal at 4.6 s
    "b6482767a1080148",  # 8: reached_goal at 4.6 s
    "f8a1dca91b7c07d6",  # 9: reached_goal at 7.0 s, 33 oracle violations
    "614da3a0d1fdef49",  # 10: reached_goal at 8.2 s
    "5af7da15e11e4d56",  # 11: reached_goal at 4.6 s
    "f416b551b50e2ce3",  # 12: reached_goal at 4.6 s
    "be6bb7f64b486cb5",  # 13: stuck at 2.6 s
    "f638357a68a362e8",  # 14: reached_goal at 7.2 s
    "52392023b604bf6b",  # 15: reached_goal at 4.6 s
]

CLUTTER_SCENES = _clutter_scenes(len(CLUTTER_DIGESTS))


@functools.cache
def _mission(name):
    """A shipped scenario's mission, by name, or clutter scene k's, by index."""
    if isinstance(name, str):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        return run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
    intr = CameraIntrinsics(fsx=96.25, fsy=96.25, cx=80.0, cy=60.0, width=160, height=120)
    return run_mission(CLUTTER_SCENES[name], StateVec.rest([0.0, 0.0, 1.2]), GoalRegion(10.0, 0.0, 1.2),
                       PlannerConfig(d_l=1.0), intr, RobotModel())


@pytest.mark.parametrize("k", range(len(CLUTTER_DIGESTS)))
def test_clutter_mission_matches_digest(k):
    out = _mission(k)
    report = verify_mission(out.rows, CLUTTER_SCENES[k], RobotModel().rho)
    payload = [out.status, out.time, out.rows, out.events, report.violation_count,
               report.min_clearance.hex()]
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16] == CLUTTER_DIGESTS[k]


@pytest.mark.parametrize("name", ["corridor", "empty", "sealed", *range(len(CLUTTER_DIGESTS))])
def test_appended_samples_carry_their_check_reason(name):
    """One reason per appended sample, "start" first. A lookahead is appended
    only when no checked sample decided against it, so every l0 sample was
    read free or skipped in the blind zone, and every l1 sample, checked in
    no image, is unchecked."""
    out = _mission(name)
    assert len(out.reasons) == len(out.modes) == len(out.appended)
    assert out.reasons[0] == "start"
    for reason, mode in zip(out.reasons[1:], out.modes[1:]):
        assert reason in (("unchecked",) if mode == "l1" else ("free", "blind")), (reason, mode)


@pytest.mark.parametrize("name", ["corridor", "empty", "sealed", *range(len(CLUTTER_DIGESTS))])
def test_rows_execute_one_sample_per_tick(name):
    """One executor index: the executor advances one appended sample per
    tick, so row k is appended sample k, and the last row is exec_idx's."""
    out = _mission(name)
    assert out.tick == out.exec_idx
    assert len(out.rows) == out.exec_idx + 1
    for k, row in enumerate(out.rows):
        assert [row[c] for c in ROW_COLUMNS[2:11]] == out.appended[k].tolist(), k
