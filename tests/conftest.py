import pathlib
from dataclasses import dataclass, field

import numpy as np
import pytest

from depthnav import Box, CameraIntrinsics, RobotModel, rollout

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def replay_steps(sc, out):
    """Yield (s0, s1, p_ref, weights, same_leg) for each appended step
    s0 -> s1, where s0 and s1 are sample rows [p | v | u].

    p_ref and weights are the reference point and the ModeWeights of the
    mode that generated s1: the goal point and l0's, or the escape point of
    the matching `escape_found` event and l1's. same_leg is true when
    s0 was generated toward the same reference (the start counts as l0).
    """
    escapes = iter(np.array(e["position"]) for e in out.events if e["event"] == "escape_found")
    p_ref = goal_ref = sc.goal.reference()
    for s0, s1, label0, label in zip(out.appended, out.appended[1:], out.modes, out.modes[1:]):
        if label != label0:
            p_ref = next(escapes) if label == "l1" else goal_ref
        w = sc.planner.weights_l1 if label == "l1" else sc.planner.weights_l0
        yield s0, s1, p_ref, w, label == label0


def max_junction_mismatch(sc, out):
    """Worst position/velocity gap when each appended step is re-integrated
    from its predecessor with the generating mode's gains and reference.

    Zero (up to float noise) means the chained trajectory is junction-
    continuous: no lookahead boundary introduces a state jump.
    """
    ts = sc.planner.ts
    worst = 0.0
    for s0, s1, p_ref, w, _ in replay_steps(sc, out):
        s_pred = rollout(s0, p_ref, w, 1, ts).samples[1]
        worst = max(
            worst,
            float(np.max(np.abs(s_pred[:3] - s1[:3]))),
            float(np.max(np.abs(s_pred[3:6] - s1[3:6]))),
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
