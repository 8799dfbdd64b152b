"""Hybrid automaton (Go-To-Goal / Escape) with the receding-horizon
generate/check/append loop and a deterministic simulated executor.

The original two-thread design (generation + execution) is restated as a
single deterministic timeline: the executor advances one sample every ts of
simulated time and generation happens instantaneously at tick boundaries.
Generation keeps at most one full horizon of unexecuted samples buffered
ahead of the executor; if the buffer empties the executor holds position
and a starvation event is logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .collision import Verdict, find_escape, waypoints2collision
from .frames import CameraIntrinsics, Configuration
from .lqr import ModeWeights, StateVec, are_residual, horizon_steps, rollout, solve_are_axis
from .oracle import brute_force_collision
from .scene import RobotModel, Scene, render_scene_depth
from .validation import coerce, integer, real

__all__ = [
    "Mode",
    "GoalRegion",
    "PlannerConfig",
    "PlannerState",
    "MissionOutcome",
    "guard_l1_to_l0",
    "step_planner",
    "run_mission",
    "EVENT_PRIORITY",
    "ROW_COLUMNS",
]


class Mode(Enum):
    GO_TO_GOAL = "l0"
    ESCAPE = "l1"


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

    def reference(self) -> StateVec:
        return StateVec.rest([self.x_goal, self.y_ref, self.z_ref])


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
    u_max: float | None = None  # None: unclamped inputs

    def __post_init__(self):
        coerce(self, real, "tau", "ts", "d_l", "eps_reach", "mission_timeout", positive=True)
        coerce(self, integer, "max_rings", minimum=1)
        if self.u_max is not None:
            coerce(self, real, "u_max", positive=True)
        horizon_steps(self.tau, self.ts)

    @property
    def horizon_samples(self) -> int:
        return horizon_steps(self.tau, self.ts)


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
    appended: list  # list[(StateVec, u ndarray, mode label)]
    exec_idx: int = 0
    tick: int = 0
    x_esc: StateVec | None = None  # the escape point, set exactly in l1
    events: list = field(default_factory=list)

    @property
    def mode(self) -> Mode:
        return Mode.GO_TO_GOAL if self.x_esc is None else Mode.ESCAPE

    @property
    def exec_sample(self):
        return self.appended[self.exec_idx]

    def log(self, event: str, **info):
        self.events.append({"tick": self.tick, "event": event, "mode": self.mode.value, **info})


@dataclass
class MissionOutcome:
    """Terminal mission status with the executed trajectory and event log."""

    status: str  # reached_goal | stuck | timed_out
    time: float
    rows: list  # executed trajectory rows (dicts, one per tick)
    appended: list  # full feasible trajectory samples
    events: list

    @property
    def reached_goal(self) -> bool:
        return self.status == "reached_goal"


def guard_l1_to_l0(x: StateVec, x_esc: StateVec, eps_reach: float) -> bool:
    """Fires once the escape point is physically reached."""
    return float(np.linalg.norm(x.p - x_esc.p)) <= eps_reach


def step_planner(
    scene: Scene,
    state: PlannerState,
    cfg: PlannerConfig,
    goal: GoalRegion,
    intr: CameraIntrinsics,
    robot: RobotModel,
    gains: dict,
) -> PlannerState:
    """One planning tick at the executor's current time.

    Generates one lookahead from the end of the appended trajectory: toward
    the goal in l0, toward the escape point in l1. In l0 it renders a depth
    image from the current configuration and checks the lookahead against
    it (:func:`waypoints2collision` decides which samples the check reads);
    a free lookahead is appended, one leaving the view appends nothing
    (the next tick regenerates the same lookahead and checks it in a fresh
    image), and a predicted collision starts the escape search. In l1 the
    lookahead is appended unchecked.
    """
    exec_state = state.exec_sample[0]

    # l1 -> l0: escape physically reached; resume toward goal from the actual state
    if state.mode is Mode.ESCAPE and guard_l1_to_l0(exec_state, state.x_esc, cfg.eps_reach):
        state.log("escape_reached")
        del state.appended[state.exec_idx + 1 :]
        state.x_esc = None

    unexecuted = len(state.appended) - 1 - state.exec_idx
    if unexecuted > cfg.horizon_samples:
        return state  # buffer holds a full horizon; nothing to generate

    x_start = state.appended[-1][0]
    x_ref = state.x_esc if state.mode is Mode.ESCAPE else goal.reference()
    la = rollout(x_start, x_ref, gains[state.mode.value], cfg.tau, cfg.ts, u_max=cfg.u_max)

    # escape maneuvers head to an already-verified free point while cutting
    # across the view cone; they are appended without a render or image
    # check (end-to-end safety is covered by the 3D oracle sweep)
    verdict, hit_idx = Verdict.FREE, None
    if state.mode is Mode.GO_TO_GOAL:
        q_c = Configuration(*exec_state.p.tolist())  # heading held toward +x: no yaw planning
        depth = render_scene_depth(scene, q_c, intr)
        positions = la.positions()
        verdict, hit_idx = waypoints2collision(positions, depth, robot)

    if verdict is Verdict.FREE:
        state.appended.extend((s, u, state.mode.value) for s, u in la.samples[1:])
    elif verdict is Verdict.OUT_OF_VIEW:
        state.log("deferred", sample=hit_idx)
    else:  # collision predicted somewhere in [k*tau, (k+1)*tau]
        state.log("collision_predicted", sample=hit_idx)
        esc = find_escape(positions[hit_idx], depth, cfg.d_l, cfg.max_rings, robot)
        if esc.stuck:
            state.log("stuck")
        else:
            state.x_esc = StateVec.rest(esc.position)
            state.log("escape_found", position=[float(v) for v in esc.position])
    return state


def _row(t: float, mode_label: str, s: StateVec, u, event: str) -> dict:
    values = [round(t, 9), mode_label, *s.p.tolist(), *s.v.tolist(), *u.tolist(), event]
    return dict(zip(ROW_COLUMNS, values))


def solve_gains(cfg: PlannerConfig) -> dict:
    """Per-mode axis gains, solved once prior to the mission."""
    return {"l0": solve_are_axis(cfg.weights_l0), "l1": solve_are_axis(cfg.weights_l1)}


def run_mission(
    scene: Scene,
    x0: StateVec,
    goal: GoalRegion,
    cfg: PlannerConfig,
    intr: CameraIntrinsics,
    robot: RobotModel,
) -> MissionOutcome:
    """Interleave planning ticks with the simulated executor until terminal.

    The executor moves to the next appended sample every ts of simulated
    time (perfect tracking); if no unexecuted sample exists it holds
    position and logs starvation.
    """
    if brute_force_collision(scene, x0.p, robot.rho):
        raise ValueError("initial state is in collision per the 3D oracle")
    gains = solve_gains(cfg)
    for label, w in (("l0", cfg.weights_l0), ("l1", cfg.weights_l1)):
        g = gains[label]
        res = are_residual(g, w)
        # relative to the equation's largest term, so large valid weights pass
        if res >= 1e-9 * max(1.0, w.qp, w.qv, g.s11, g.s12**2 / w.r, g.s22**2 / w.r):
            raise RuntimeError(f"Riccati residual {res:.3e} too large for mode {label}")

    state = PlannerState(appended=[(x0, np.zeros(3), Mode.GO_TO_GOAL.value)])
    rows: list = []
    starved = False  # the executor could not advance at the end of the last tick
    while True:
        t = state.tick * cfg.ts
        n_before = len(state.events)
        step_planner(scene, state, cfg, goal, intr, robot, gains)
        tick_events = [e["event"] for e in state.events[n_before:]]
        if starved:
            tick_events.append("starvation")
        s, u, mode_label = state.exec_sample

        status = None
        if "stuck" in tick_events:
            status = "stuck"
        elif goal.contains(s.p):
            tick_events.append("goal")
            status = "reached_goal"
        elif t >= cfg.mission_timeout:
            status = "timed_out"

        event = min(tick_events, key=EVENT_PRIORITY.index) if tick_events else "none"
        rows.append(_row(t, mode_label, s, u, event))
        if status is not None:
            return MissionOutcome(
                status=status,
                time=t,
                rows=rows,
                appended=list(state.appended),
                events=list(state.events),
            )

        starved = state.exec_idx == len(state.appended) - 1
        if not starved:
            state.exec_idx += 1
        state.tick += 1
