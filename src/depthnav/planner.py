"""Hybrid automaton (Go-To-Goal / Escape) with the receding-horizon
generate/check/append loop and a deterministic simulated executor.

The original two-thread design (generation + execution) is restated as a
single deterministic timeline: the executor advances one sample every ts of
simulated time and generation happens instantaneously at tick boundaries.
Generation keeps at most one full horizon of unexecuted samples buffered
ahead of the executor. A tick that appends no lookahead (it defers or
predicts a collision) while the executor is on the last appended sample
appends that lookahead's first sample, with its mode label and check
reason, and logs starvation, so the executor always has one more sample
of the closed loop it is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .collision import _blind_zone_radius, find_escape, waypoints2collision
from .frames import CameraIntrinsics, Configuration
from .lqr import ModeWeights, StateVec, rollout
from .oracle import brute_force_collision
from .scene import RobotModel, Scene, _norm, render_scene_depth
from .validation import coerce, integer, real

__all__ = [
    "GoalRegion",
    "PlannerConfig",
    "PlannerState",
    "guard_l1_to_l0",
    "step_planner",
    "run_mission",
    "EVENT_PRIORITY",
    "ROW_COLUMNS",
]


@dataclass(frozen=True)
class GoalRegion:
    """Goal half-space x >= x_goal, plus the reference point l0 regulates to."""

    x_goal: float
    y_ref: float = 0.0
    z_ref: float = 0.0

    def __post_init__(self):
        coerce(self, real, "x_goal", "y_ref", "z_ref")

    def contains(self, p) -> bool:
        return float(p[0]) >= self.x_goal

    def reference(self) -> np.ndarray:
        return np.array([self.x_goal, self.y_ref, self.z_ref])


@dataclass(frozen=True)
class PlannerConfig:
    tau: float = 0.8
    ts: float = 0.2
    d_l: float = 0.5
    eps_reach: float = 0.15
    max_rings: int = 20
    mission_timeout: float = 60.0
    weights_l0: ModeWeights = ModeWeights(1.0, 0.1, 3.0)
    weights_l1: ModeWeights = ModeWeights(1.0, 0.1, 0.1)
    horizon_samples: int = field(init=False, repr=False, compare=False)  # samples after a lookahead's start

    def __post_init__(self):
        coerce(self, real, "tau", "ts", "d_l", "eps_reach", "mission_timeout", positive=True)
        n = self.tau / self.ts
        if not math.isfinite(n) or (k := round(n)) < 1 or abs(k * self.ts - self.tau) > 1e-9:
            raise ValueError(f"tau: must be a positive integral multiple of ts, got tau / ts = {n!r}")
        object.__setattr__(self, "horizon_samples", k)
        coerce(self, integer, "max_rings", minimum=1)
        for name in ("weights_l0", "weights_l1"):
            if not isinstance(getattr(self, name), ModeWeights):
                raise TypeError(f"{name}: must be ModeWeights, got {getattr(self, name)!r}")


# executed-trajectory row fields, in trajectory.csv column order
ROW_COLUMNS = ["t", "mode", "px", "py", "pz", "vx", "vy", "vz", "ux", "uy", "uz", "event"]

# event vocabulary for log rows, most significant first
EVENT_PRIORITY = (
    "goal",
    "stuck",
    "escape_reached",
    "escape_found",
    "collision_predicted",
    "deferred",
    "starvation",
    "none",
)


@dataclass
class PlannerState:
    """The appended trajectory, start included, as one row [p | v | u]
    (ROW_COLUMNS[2:11]), one mode label and one check reason per sample
    ("start" first, then what :func:`waypoints2collision` returned), and
    the executor's place in it, which advances one sample per tick.
    :func:`run_mission` adds one executed row per tick and, on the terminal
    tick, the status and time."""

    appended: np.ndarray  # (N, 9)
    modes: list  # N mode labels
    reasons: list  # N check reasons
    exec_idx: int = 0
    x_esc: np.ndarray | None = None  # the escape point, set exactly in l1
    events: list = field(default_factory=list)
    rows: list = field(default_factory=list, init=False)  # executed rows (dicts, one per tick)
    status: str | None = field(default=None, init=False)  # reached_goal | stuck | timed_out
    time: float | None = field(default=None, init=False)

    @property
    def mode(self) -> str:
        return "l0" if self.x_esc is None else "l1"

    @property
    def tick(self) -> int:
        """The tick count, which is exec_idx: one executed sample per tick
        (an alias kept for perfbench's tick probe, which reads both)."""
        return self.exec_idx

    def log(self, event: str, **info):
        self.events.append({"tick": self.exec_idx, "event": event, "mode": self.mode, **info})

    @property
    def reached_goal(self) -> bool:
        return self.status == "reached_goal"


def guard_l1_to_l0(p: np.ndarray, x_esc: np.ndarray, eps_reach: float) -> bool:
    """Fires once the escape point is physically reached from position p."""
    return _norm((p - x_esc).tolist()) <= eps_reach


def step_planner(
    scene: Scene,
    state: PlannerState,
    cfg: PlannerConfig,
    goal: GoalRegion,
    intr: CameraIntrinsics,
    robot: RobotModel,
) -> PlannerState:
    """One planning tick at the executor's current time.

    Generates one lookahead from the end of the appended trajectory with
    the mode's gains, to a point at rest: the goal in l0, the escape point in
    l1. In l0 it renders a depth image from the current configuration; in
    l1 there is none. :func:`waypoints2collision` gives each sample its
    reason, and the first "collision" or "out_of_view" decides: with none
    the lookahead is appended with its reasons, one leaving the view
    appends nothing (the next tick regenerates the same lookahead and
    checks it in a fresh image), and a predicted collision starts the
    escape search. A tick that appends nothing and does not end stuck,
    with the executor on the last appended sample, appends the lookahead's
    first sample with its label and reason and logs starvation: one more
    ts step of the closed loop the vehicle is on.
    """
    p_exec = state.appended[state.exec_idx, :3]

    # l1 -> l0: escape physically reached; resume toward goal from the actual state
    if state.x_esc is not None and guard_l1_to_l0(p_exec, state.x_esc, cfg.eps_reach):
        state.log("escape_reached")
        state.appended = state.appended[: state.exec_idx + 1]
        del state.modes[state.exec_idx + 1 :], state.reasons[state.exec_idx + 1 :]
        state.x_esc = None

    unexecuted = len(state.appended) - 1 - state.exec_idx
    if unexecuted > cfg.horizon_samples:
        return state  # buffer holds a full horizon; nothing to generate

    # escape maneuvers head to an already-verified free point while cutting
    # across the view cone; they get no image, so every sample reads
    # "unchecked" (end-to-end safety is covered by the 3D oracle sweep)
    mode = state.mode
    if state.x_esc is not None:
        p_ref, w, depth = state.x_esc, cfg.weights_l1, None
    else:
        p_ref, w = goal.reference(), cfg.weights_l0
        q_c = Configuration(*p_exec.tolist())  # heading held toward +x: no yaw planning
        depth = render_scene_depth(scene, q_c, intr)
    la = rollout(state.appended[-1], p_ref, w, cfg.horizon_samples, cfg.ts)
    positions = la.samples[:, :3]
    reasons = waypoints2collision(positions, depth, robot)

    # the check stops at its first sample that is not free, so at most one
    # sample reads "out_of_view" or "collision"; reasons[i] is sample i + 1's
    n = cfg.horizon_samples  # samples to append
    if "out_of_view" in reasons:
        state.log("deferred", sample=reasons.index("out_of_view") + 1)
        n = 0
    elif "collision" in reasons:  # collision predicted somewhere in [k*tau, (k+1)*tau]
        hit_idx = reasons.index("collision") + 1
        state.log("collision_predicted", sample=hit_idx)
        esc = find_escape(positions[hit_idx], depth, cfg.d_l, cfg.max_rings, robot)
        if esc.stuck:
            state.log("stuck")
            return state
        state.x_esc = esc.position
        state.log("escape_found", position=[float(v) for v in esc.position])
        n = 0
    if n == 0 and unexecuted == 0:  # the executor would starve
        state.log("starvation")
        n = 1
    state.appended = np.concatenate((state.appended, la.samples[1 : n + 1]))
    state.modes += [mode] * n
    state.reasons += reasons[:n]
    return state


def _row(t: float, mode_label: str, sample: np.ndarray, event: str) -> dict:
    values = [round(t, 9), mode_label, *sample.tolist(), event]
    return dict(zip(ROW_COLUMNS, values))


def solve_gains(cfg: PlannerConfig) -> dict:
    """Each mode's weights, which hold the gains they solved and checked."""
    return {"l0": cfg.weights_l0, "l1": cfg.weights_l1}


def run_mission(
    scene: Scene,
    x0: StateVec,
    goal: GoalRegion,
    cfg: PlannerConfig,
    intr: CameraIntrinsics,
    robot: RobotModel,
) -> PlannerState:
    """Interleave planning ticks with the simulated executor until terminal,
    and return the state it stepped.

    The executor moves to the next appended sample every ts of simulated
    time (perfect tracking); :func:`step_planner` leaves it one unless the
    tick ends stuck. The state is returned on the terminal tick, before the
    executor would advance, so ``exec_idx`` is the last executed sample and
    ``len(rows) == exec_idx + 1``. Raises ValueError on a start the oracle
    finds in collision, and on a camera whose blind zone
    (:func:`_blind_zone_radius`) reaches max_depth: no sample of such a
    camera could ever be checked free.
    """
    if brute_force_collision(scene, x0.p, robot.rho):
        raise ValueError("start.p: initial state is in collision per the 3D oracle")
    if _blind_zone_radius(intr, robot) >= intr.max_depth:
        raise ValueError("intrinsics: the blind zone reaches max_depth, so no sample could be checked")

    start = np.concatenate((x0.p, x0.v, np.zeros(3)))
    state = PlannerState(appended=start[None], modes=["l0"], reasons=["start"])
    while True:
        t = state.exec_idx * cfg.ts
        n_before = len(state.events)
        step_planner(scene, state, cfg, goal, intr, robot)
        tick_events = [e["event"] for e in state.events[n_before:]]
        sample = state.appended[state.exec_idx]

        if "stuck" in tick_events:
            state.status = "stuck"
        elif goal.contains(sample):
            tick_events.append("goal")
            state.status = "reached_goal"
        elif t >= cfg.mission_timeout:
            state.status = "timed_out"

        event = min(tick_events, key=EVENT_PRIORITY.index) if tick_events else "none"
        state.rows.append(_row(t, state.modes[state.exec_idx], sample, event))
        if state.status is not None:
            state.time = t
            return state
        state.exec_idx += 1
