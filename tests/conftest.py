import pathlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from depthnav import Box, CameraIntrinsics, RobotModel, StateVec, rollout, solve_are_axis

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def max_junction_mismatch(sc, out):
    """Worst position/velocity gap when each appended step is re-integrated
    from its predecessor with the generating mode's gains and reference.

    Zero (up to float noise) means the chained trajectory is junction-
    continuous: no lookahead boundary introduces a state jump.
    """
    gains = {
        "l0": solve_are_axis(sc.planner.weights_l0),
        "l1": solve_are_axis(sc.planner.weights_l1),
    }
    escapes = iter(
        StateVec.rest(e["position"]) for e in out.events if e["event"] == "escape_found"
    )
    goal_ref = sc.goal.reference()
    x_ref = goal_ref
    prev_label = "l0"
    worst = 0.0
    for (s0, _, _), (s1, _, label) in zip(out.appended, out.appended[1:]):
        if label == "l1" and prev_label == "l0":
            x_ref = next(escapes)
        elif label == "l0":
            x_ref = goal_ref
        prev_label = label
        la = rollout(s0, x_ref, gains[label], sc.planner.ts, sc.planner.ts, u_max=sc.planner.u_max)
        s_pred, _ = la.samples[1]
        worst = max(
            worst,
            float(np.max(np.abs(s_pred.p - s1.p))),
            float(np.max(np.abs(s_pred.v - s1.v))),
        )
    return worst


@dataclass(frozen=True)
class CountingBox(Box):
    """Box that records the number of rays of each intersect call."""

    calls: list = field(default_factory=list)

    def intersect(self, origin, dirs, z_near):
        self.calls.append(dirs.size // 3)
        return super().intersect(origin, dirs, z_near)


@pytest.fixture
def intr():
    """Full-resolution camera used by the shipped scenarios."""
    return CameraIntrinsics(fsx=385.0, fsy=385.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def intr_small():
    """Quarter-resolution camera for fast randomized tests."""
    return CameraIntrinsics(fsx=96.25, fsy=96.25, cx=80.0, cy=60.0, width=160, height=120)


@pytest.fixture
def robot():
    return RobotModel(rho=0.35)
