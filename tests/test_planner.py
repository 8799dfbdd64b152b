import dataclasses

import numpy as np
import pytest

from depthnav import (
    Box,
    Configuration,
    GoalRegion,
    ModeWeights,
    PlannerConfig,
    RobotModel,
    Scene,
    Sphere,
    StateVec,
    guard_l1_to_l0,
    load_scenario,
    render_scene_depth,
    rollout,
    run_mission,
    waypoints2collision,
)
from depthnav import lqr, planner
from depthnav.collision import _blind_zone_radius
from depthnav.planner import (
    EVENT_PRIORITY,
    ROW_COLUMNS,
    PlannerState,
    solve_gains,
    step_planner,
)
from depthnav.oracle import verify_mission

from conftest import SCENARIO_DIR, CountingBox, max_junction_mismatch


def _run(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    return sc, run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)


@pytest.fixture(scope="module")
def corridor():
    return _run("corridor")


@pytest.fixture(scope="module")
def empty():
    return _run("empty")


def _clutter(rng) -> Scene:
    """2-6 boxes and spheres between the start and the goal plane."""
    prims = []
    for _ in range(int(rng.integers(2, 7))):
        c = np.array([rng.uniform(2.0, 9.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.4)])
        if rng.random() < 0.5:
            h = rng.uniform(0.15, 0.6, 3)
            prims.append(Box(tuple(c - h), tuple(c + h)))
        else:
            prims.append(Sphere(tuple(c), float(rng.uniform(0.25, 0.7))))
    return Scene(tuple(prims))


def _start(x0: StateVec) -> PlannerState:
    """A planner state holding only the start sample, at rest input, in l0."""
    return PlannerState(appended=np.concatenate((x0.p, x0.v, np.zeros(3)))[None], modes=["l0"], reasons=["start"])


class TestGuards:
    def test_l1_to_l0_distance_threshold(self):
        esc = np.array([1.0, 0.0, 0.0])
        assert guard_l1_to_l0(np.array([1.0, 0.0, 0.0]), esc, 0.15)
        assert guard_l1_to_l0(np.array([1.1, 0.0, 0.0]), esc, 0.15)
        assert not guard_l1_to_l0(np.array([2.0, 0.0, 0.0]), esc, 0.15)


class TestPlannerConfig:
    def test_defaults(self):
        cfg = PlannerConfig()
        assert cfg.tau == 0.8 and cfg.ts == 0.2
        assert cfg.horizon_samples == 4

    def test_rejects_non_integral_horizon(self):
        with pytest.raises(ValueError):
            PlannerConfig(tau=0.7, ts=0.2)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            PlannerConfig(ts=0.0)

    def test_solve_gains_reads_the_weights(self):
        cfg = PlannerConfig()
        assert solve_gains(cfg) == {"l0": cfg.weights_l0.gain, "l1": cfg.weights_l1.gain}

    def test_rejects_weights_of_another_type(self):
        with pytest.raises(TypeError, match="^weights_l0: must be ModeWeights"):
            PlannerConfig(weights_l0=(1.0, 0.1, 3.0))

    def test_horizon_samples_is_derived_when_built(self):
        """horizon_samples is no init field: replace rebuilds it from tau and
        ts, and the constructor refuses it."""
        assert dataclasses.replace(PlannerConfig(), tau=1.0).horizon_samples == 5
        with pytest.raises(TypeError):
            PlannerConfig(horizon_samples=5)


class TestEmptySceneMission:
    def test_reaches_goal_in_l0(self, empty):
        _, out = empty
        assert out.status == "reached_goal"
        assert all(r["mode"] == "l0" for r in out.rows)
        assert out.rows[-1]["px"] >= 10.0
        assert out.rows[-1]["event"] == "goal"

    def test_progress_strictly_decreasing(self, empty):
        sc, out = empty
        dists = (sc.goal.x_goal - out.appended[:, 0]).tolist()
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_no_starvation_or_collisions(self, empty):
        _, out = empty
        assert all(e["event"] not in ("collision_predicted", "starvation", "stuck") for e in out.events)


class TestCorridorMission:
    def test_reaches_goal_with_escape(self, corridor):
        _, out = corridor
        assert out.status == "reached_goal"
        events = [e["event"] for e in out.events]
        assert "collision_predicted" in events
        assert "escape_found" in events
        assert "escape_reached" in events

    def test_oracle_clean(self, corridor):
        sc, out = corridor
        report = verify_mission(out.rows, sc.scene, sc.robot.rho)
        assert report.violation_count == 0
        assert report.min_clearance > 0

    def test_mode_sequence_validity(self, corridor):
        """l0->l1 only after a logged collision, l1->l0 only at escape-reached."""
        _, out = corridor
        mode = "l0"
        prev = None
        for e in out.events:
            if e["event"] == "escape_found":
                assert mode == "l0"
                assert prev is not None
                assert prev["event"] == "collision_predicted" and prev["tick"] == e["tick"]
                mode = "l1"
            elif e["event"] == "escape_reached":
                assert mode == "l1"
                mode = "l0"
            elif e["event"] in ("collision_predicted", "stuck"):
                assert mode == "l0"
            prev = e

    def test_junction_continuity(self, corridor):
        """Every appended step re-integrates exactly from its predecessor.

        One-step closed-loop integration from sample i with the generating
        mode's gains and reference must reproduce sample i+1, so the chained
        trajectory has no position/velocity jumps at lookahead boundaries.
        """
        sc, out = corridor
        assert max_junction_mismatch(sc, out) <= 1e-9

    def test_sample_accounting(self, corridor):
        """Of the 36 executed samples after the start, 17 were read free by
        the image check of the tick that appended them, 10 were skipped by
        it (inside the blind zone) and 9 are l1 samples, appended unchecked."""
        _, out = corridor
        assert out.status == "reached_goal" and out.time == pytest.approx(7.2)
        # row i executed appended sample i, the last one exec_idx
        executed = [[r["px"], r["py"], r["pz"]] for r in out.rows]
        assert executed == out.appended[: out.exec_idx + 1, :3].tolist()
        reasons = out.reasons[1 : out.exec_idx + 1]
        assert {r: reasons.count(r) for r in set(reasons)} == {"free": 17, "blind": 10, "unchecked": 9}
        assert all((r == "unchecked") == (m == "l1") for r, m in zip(reasons, out.modes[1:]))

    def test_determinism(self):
        _, out1 = _run("corridor")
        _, out2 = _run("corridor")
        assert out1.rows == out2.rows
        assert out1.events == out2.events
        assert out1.status == out2.status


class TestMissionExits:
    """The two ends of a tick that no shipped scenario reaches: the timeout,
    and a tick that appends no lookahead while the executor is on the last
    appended sample."""

    def test_timeout_ends_the_mission(self):
        sc = load_scenario(SCENARIO_DIR / "empty.json")
        cfg = dataclasses.replace(sc.planner, mission_timeout=0.2)
        out = run_mission(sc.scene, sc.x0, sc.goal, cfg, sc.intrinsics, sc.robot)
        assert (out.status, out.time, len(out.rows)) == ("timed_out", 0.2, 2)
        assert not out.reached_goal

    def test_starved_executor_keeps_flying(self):
        """A sphere 2.5 m ahead of a start at 2 m/s: tick 0 predicts the
        collision and finds an escape, appending no lookahead, so it appends
        its l0 lookahead's first sample and logs starvation; at t = 0.2 the
        executor flies that sample, one ts step of the closed loop it is on,
        the escape leg then moves it on from there, and the mission reaches
        the goal with a clean path."""
        sc = load_scenario(SCENARIO_DIR / "empty.json")
        scene = Scene((Sphere((2.5, 0.0, 1.2), 0.3),))
        x0 = StateVec(sc.x0.p, [2.0, 0.0, 0.0])
        out = run_mission(scene, x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        r0, r1, r2 = out.rows[:3]
        assert r0["event"] == "escape_found"
        assert [(e["tick"], e["event"]) for e in out.events[:3]] == [
            (0, "collision_predicted"), (0, "escape_found"), (0, "starvation")]
        assert (r1["t"], r1["mode"], r1["event"]) == (0.2, "l0", "none")
        assert r1["px"] == pytest.approx(0.4653, abs=1e-4) and r1["vx"] == pytest.approx(2.6218, abs=1e-4)
        step = rollout(out.appended[0], sc.goal.reference(), sc.planner.weights_l0.gain, 1, sc.planner.ts)
        assert np.array_equal(out.appended[1], step.samples[1])
        assert out.reasons[:3] == ["start", "blind", "unchecked"]
        # row k executed appended sample k
        assert len(out.rows) == out.exec_idx + 1 == out.tick + 1
        assert [[r[c] for c in ROW_COLUMNS[2:11]] for r in out.rows] == out.appended[: out.exec_idx + 1].tolist()
        assert r2["mode"] == "l1" and r2["px"] > r1["px"] and r2["event"] == "none"
        assert (out.status, out.time, len(out.rows)) == ("reached_goal", pytest.approx(6.4), 33)
        report = verify_mission(out.rows, scene, sc.robot.rho)
        assert report.violation_count == 0 and report.min_clearance == pytest.approx(0.0364, abs=1e-4)


class TestSealedMission:
    def test_stuck(self):
        _, out = _run("sealed")
        assert out.status == "stuck"
        assert out.rows[-1]["event"] == "stuck"


class TestPoleMission:
    @pytest.mark.xfail(strict=True, reason="the unchecked l1 leg flies through the pole (ROADMAP item 1)")
    @pytest.mark.parametrize("y", [0.0, 0.2])
    @pytest.mark.parametrize("res", ["intr_small", "intr"])
    def test_executed_path_is_oracle_clean(self, request, res, y):
        """A lone 0.3 x 0.3 x 3 m pole dead ahead: whether the mission reaches
        the goal or stops, its executed path must not touch the pole. Today it
        reaches the goal with 33 (y = 0) or 39 (y = 0.2) swept violations, the
        first at row 9 in l1."""
        intr = request.getfixturevalue(res)
        scene = Scene((Box((4.85, y - 0.15, 0.0), (5.15, y + 0.15, 3.0)),))
        robot = RobotModel()
        out = run_mission(scene, StateVec.rest([0.0, 0.0, 1.2]), GoalRegion(10.0, 0.0, 1.2),
                          PlannerConfig(), intr, robot)
        assert verify_mission(out.rows, scene, robot.rho).violation_count == 0


class TestOffCentreCamera:
    @pytest.mark.xfail(strict=True, reason="the blind-zone filter skips every sample (ROADMAP item 2)")
    @pytest.mark.parametrize("res, cx", [("intr_small", 5.0), ("intr", 20.0)], ids=["intr_small", "intr"])
    def test_executed_path_is_oracle_clean(self, request, res, cx):
        """The corridor flown with the principal point near the left image
        edge: the blind-zone radius, sized by the narrowest image margin, is
        7.39 m instead of 1.21 m, so the planner checks no sample. Today the
        mission reaches the goal at 4.6 s with no collision_predicted event
        and 19 swept violations (min clearance -0.35 m)."""
        intr = dataclasses.replace(request.getfixturevalue(res), cx=cx)
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        out = run_mission(sc.scene, sc.x0, sc.goal, sc.planner, intr, sc.robot)
        assert verify_mission(out.rows, sc.scene, sc.robot.rho).violation_count == 0


class TestOneSampleHorizon:
    @pytest.mark.xfail(strict=True, reason="a horizon inside the blind zone is never checked (ROADMAP item 2)")
    @pytest.mark.parametrize("res", ["intr_small", "intr"])
    def test_executed_path_is_oracle_clean(self, request, res):
        """The corridor flown with tau = 0.2 s, so the horizon is one ts
        sample, at most 0.69 m ahead at the mission's top speed of 3.43 m/s:
        inside the 1.21 m blind zone, so all 23 executed samples read
        "blind". Today the mission reaches the goal at
        4.6 s with no collision_predicted event and 19 swept violations, the
        first at row 7 (min clearance -0.35 m). tau = 0.4 and 0.6 stop stuck
        with a clean sweep."""
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        cfg = dataclasses.replace(sc.planner, tau=0.2)
        out = run_mission(sc.scene, sc.x0, sc.goal, cfg, request.getfixturevalue(res), sc.robot)
        assert verify_mission(out.rows, sc.scene, sc.robot.rho).violation_count == 0


class TestRiccatiGate:
    def test_large_valid_weights_reach_the_goal(self):
        """qp = r = 1e9 solve to kp = 1 with an absolute residual of about
        2e-7, tiny against the equation's 2e9-sized terms: the mission runs."""
        sc = load_scenario(SCENARIO_DIR / "empty.json")
        cfg = dataclasses.replace(sc.planner, weights_l0=ModeWeights(1e9, 3.3, 1e9))
        out = run_mission(sc.scene, sc.x0, sc.goal, cfg, sc.intrinsics, sc.robot)
        assert out.reached_goal

    def test_perturbed_gain_raises(self, monkeypatch):
        """A 0.1% error in s11 at the default l0 weights is refused when the
        weights are built, naming qp."""
        solve = lqr.solve_are_axis

        def perturbed(w):
            g = solve(w)
            return dataclasses.replace(g, s11=g.s11 * 1.001)

        monkeypatch.setattr(lqr, "solve_are_axis", perturbed)
        with pytest.raises(ValueError, match="^qp: .* Riccati residual"):
            ModeWeights(1.0, 0.1, 3.0)


class TestStepPlanner:
    def test_collision_switches_to_escape(self, intr, robot):
        """Wall ahead with a gap above: one tick in range flips the mode to l1."""
        scene = Scene(
            (
                Box((4.0, -8.0, -8.0), (4.4, 8.0, 2.0)),
                Box((4.0, -8.0, 4.0), (4.4, 8.0, 8.0)),
            )
        )
        cfg = PlannerConfig(d_l=1.0)
        goal = GoalRegion(10.0, 0.0, 1.5)
        state = _start(StateVec([1.2, 0.0, 1.5], [2.0, 0.0, 0.0]))
        for _ in range(25):
            step_planner(scene, state, cfg, goal, intr, robot)
            if state.mode == "l1":
                break
            state.exec_idx += 1
        assert state.mode == "l1"
        assert state.x_esc is not None
        assert state.x_esc[2] > 1.5  # escape found through the gap above

    def test_collision_tick_appends_nothing(self, intr, robot):
        """The tick that predicts a collision with samples still buffered
        ahead of the executor appends no sample, label or reason. Its
        lookahead, checked again in the tick's image, reads free or blind up
        to the logged sample, "collision" there, and "unchecked" after it."""
        scene = Scene((Box((4.0, -8.0, -8.0), (4.4, 8.0, 2.0)), Box((4.0, -8.0, 4.0), (4.4, 8.0, 8.0))))
        cfg = PlannerConfig(d_l=1.0)
        goal = GoalRegion(10.0, 0.0, 1.5)
        state = _start(StateVec([1.2, 0.0, 1.5], [2.0, 0.0, 0.0]))
        for _ in range(25):
            before = state.appended.copy(), list(state.modes), list(state.reasons), len(state.events)
            p_exec = state.appended[state.exec_idx, :3]
            step_planner(scene, state, cfg, goal, intr, robot)
            if any(e["event"] == "collision_predicted" for e in state.events[before[3]:]):
                break
            state.exec_idx += 1
        appended, modes, reasons, n_events = before
        assert state.events[n_events]["event"] == "collision_predicted"
        assert state.exec_idx < len(appended) - 1
        assert np.array_equal(state.appended, appended) and state.modes == modes and state.reasons == reasons
        hit = state.events[n_events]["sample"]
        la = rollout(appended[-1], goal.reference(), cfg.weights_l0.gain, cfg.horizon_samples, cfg.ts)
        depth = render_scene_depth(scene, Configuration(*p_exec.tolist()), intr)
        checked = waypoints2collision(la.samples[:, :3], depth, robot)
        assert 1 <= hit < cfg.horizon_samples
        assert set(checked[: hit - 1]) <= {"free", "blind"}
        assert checked[hit - 1 :] == ["collision"] + ["unchecked"] * (cfg.horizon_samples - hit)

    def test_casts_only_for_checked_samples(self, intr, robot):
        """An l0 tick whose lookahead lies wholly inside the blind zone checks
        nothing and casts no ray; the first tick that checks a sample casts
        the floor, which reaches in front of its footprints, and not the
        box, which lies beyond them."""
        box = CountingBox((6.0, -2.0, 0.0), (6.5, 2.0, 3.0))
        floor = CountingBox((-5.0, -5.0, -1.0), (20.0, 5.0, 0.0))
        scene = Scene((box, floor))
        # slow start: a heavy l0 input weight keeps the first lookaheads blind
        cfg = PlannerConfig(weights_l0=ModeWeights(1.0, 0.1, 300.0))
        goal = GoalRegion(10.0, 0.0, 1.2)
        blind = _blind_zone_radius(intr, robot)
        state = _start(StateVec.rest([0.0, 0.0, 1.2]))
        blind_ticks, checking = 0, False
        for _ in range(60):
            cam = state.appended[state.exec_idx, :3]
            n_appended = len(state.appended)
            step_planner(scene, state, cfg, goal, intr, robot)
            assert state.mode == "l0" and not state.events
            new = state.appended[n_appended:, :3]
            if len(new) and all(np.linalg.norm(p - cam) <= blind for p in new):
                assert box.calls == [] and floor.calls == []
                blind_ticks += 1
            elif len(new):
                checking = True
                break
            state.exec_idx += 1
        assert blind_ticks >= 1 and checking
        assert box.calls == [] and sum(floor.calls) > 0

    def test_deferral_rechecks_the_same_lookahead(self, intr_small):
        """A deferred tick appends nothing and stays in l0; the next tick
        re-checks (a deferral never waits behind a full buffer), and when it
        appends, the samples are bit-equal to the lookahead the deferral
        generated from the same trajectory end."""
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        missions = [(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)]
        rng = np.random.default_rng(1)
        for _ in range(16):
            missions.append((
                _clutter(rng), StateVec.rest([0.0, 0.0, 1.2]), GoalRegion(10.0, 0.0, 1.2),
                PlannerConfig(d_l=1.0), intr_small, RobotModel(0.35),
            ))
        deferrals = rechecked = 0
        for scene, x0, goal, cfg, intr, robot in missions:
            state = _start(x0)
            pending = None  # the trajectory end at a deferral on the previous tick
            while state.exec_idx * cfg.ts < cfg.mission_timeout:
                before, n_events = state.appended.copy(), len(state.events)
                step_planner(scene, state, cfg, goal, intr, robot)
                events = [e["event"] for e in state.events[n_events:]]
                new = state.appended[len(before):]
                if pending is not None:
                    assert events or len(new)
                    if len(new):
                        la = rollout(pending, goal.reference(), cfg.weights_l0.gain, cfg.horizon_samples, cfg.ts)
                        assert len(new) == len(la.samples) - 1
                        assert state.modes[len(before):] == ["l0"] * len(new)
                        assert np.array_equal(new, la.samples[1:])
                        rechecked += 1
                pending = None
                if "deferred" in events:
                    deferrals += 1
                    assert state.mode == "l0" and state.events[-1]["mode"] == "l0"
                    # no lookahead appended (escape_reached may have dropped unexecuted
                    # samples), only its first sample if the executor would starve
                    kept = len(state.appended) - ("starvation" in events)
                    assert kept <= len(before)
                    assert np.array_equal(state.appended[:kept], before[:kept])
                    pending = state.appended[-1]
                if "stuck" in events or goal.contains(state.appended[state.exec_idx]):
                    break
                state.exec_idx += 1
        assert deferrals >= 2
        assert rechecked >= 1

    def test_tick_grows_the_trajectory_by_one_horizon(self, intr_small, robot):
        """A free l0 tick appends exactly one horizon of rows, labels and
        reasons; a tick whose buffer already holds more than a horizon
        changes neither the trajectory nor the event log.
        len(state.appended) counts samples, start included."""
        cfg = PlannerConfig()
        state = _start(StateVec.rest([0.0, 0.0, 1.2]))
        goal = GoalRegion(10.0, 0.0, 1.2)
        for n in (1 + cfg.horizon_samples, 1 + 2 * cfg.horizon_samples):
            step_planner(Scene(()), state, cfg, goal, intr_small, robot)
            assert len(state.appended) == len(state.modes) == len(state.reasons) == n
            assert state.modes == ["l0"] * n and not state.events
        full = state.appended
        step_planner(Scene(()), state, cfg, goal, intr_small, robot)
        assert state.appended is full and len(state.modes) == len(state.reasons) == len(full) and not state.events

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_rollout_writes_n_plus_one_rows(self, n):
        la = rollout(np.zeros(6), np.array([1.0, 0.0, 0.0]), PlannerConfig().weights_l0.gain, n, 0.2)
        assert la.samples.shape == (n + 1, 9)

    def test_mission_validates_only_its_inputs(self, monkeypatch):
        """Once the scenario is built, a mission builds no StateVec and
        re-derives no horizon: its samples are the program's own arithmetic."""
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        calls = {"StateVec": 0, "horizon_steps": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(StateVec, "__post_init__", counted("StateVec", StateVec.__post_init__))
        monkeypatch.setattr(planner, "horizon_steps", counted("horizon_steps", planner.horizon_steps))
        out = run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        assert out.status == "reached_goal"
        assert calls == {"StateVec": 0, "horizon_steps": 0}

    def test_rejects_colliding_start(self, intr, robot):
        scene = Scene((Box((0.0, -1.0, -1.0), (2.0, 1.0, 1.0)),))
        with pytest.raises(ValueError, match="start.p"):
            run_mission(
                scene, StateVec.rest([1.0, 0.0, 0.0]), GoalRegion(10.0), PlannerConfig(), intr, robot
            )


class TestEventVocabulary:
    def test_all_logged_events_are_known(self, corridor):
        _, out = corridor
        for e in out.events:
            assert e["event"] in EVENT_PRIORITY
        for r in out.rows:
            assert r["event"] in EVENT_PRIORITY
