"""Acceptance gate: one test per shipped acceptance criterion.

Each test prints a single `ACCEPTANCE n: PASS|FAIL` line (visible with
`pytest -s`) and asserts the criterion at its stated tolerance.
"""

import statistics
import time

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from depthnav import (
    Box,
    Configuration,
    ModeWeights,
    Scene,
    Verdict,
    Wall,
    are_residual,
    camera_to_world,
    check_configuration,
    find_escape,
    load_scenario,
    project,
    render_scene_depth,
    rollout,
    run_mission,
    solve_are_axis,
    verify_mission,
    waypoints2collision,
    world_to_camera,
)
from depthnav.oracle import brute_force_collision
from depthnav.scene import RobotModel

from conftest import SCENARIO_DIR, max_junction_mismatch, replay_steps

Q0 = Configuration(0.0, 0.0, 0.0)


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def corridor_run():
    sc = load_scenario(SCENARIO_DIR / "corridor.json")
    t0 = time.perf_counter()
    out = run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
    wall = time.perf_counter() - t0
    return sc, out, wall


def test_criterion_1_are_correctness():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    t0 = time.perf_counter()
    worst_res, worst_gain = 0.0, 0.0
    for w in (ModeWeights(1.0, 0.1, 3.0), ModeWeights(1.0, 0.1, 0.1)):
        worst_res = max(worst_res, are_residual(solve_are_axis(w), w))
        S = solve_continuous_are(A, B, np.diag([w.qp, w.qv]), np.array([[w.r]]))
        K = (B.T @ S / w.r).ravel()
        worst_gain = max(worst_gain, abs(w.kp - K[0]), abs(w.kv - K[1]))
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-9 and worst_gain < 1e-8 and elapsed < 1.0
    _report(
        1,
        ok,
        f"ARE residual {worst_res:.2e} (< 1e-9), gain vs numeric solver "
        f"{worst_gain:.2e} (< 1e-8), runtime {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_2_corridor_reproduction(corridor_run):
    sc, out, wall = corridor_run
    report = verify_mission(out.rows, sc.scene, sc.robot.rho)
    ok = (
        out.status == "reached_goal"
        and report.violation_count == 0
        and 4.0 <= out.time <= 16.0
        and wall < 60.0
    )
    _report(
        2,
        ok,
        f"corridor mission {out.status} at t = {out.time:.1f} s (in [4, 16] s), "
        f"{report.violation_count} oracle violations, wall clock {wall:.2f} s (< 60 s) at 640x480",
    )


def test_criterion_3_classifier_soundness(intr_small):
    rng = np.random.default_rng(2024)
    robot = RobotModel(rho=0.35)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        prims = []
        for _ in range(int(rng.integers(1, 4))):
            c = np.array([rng.uniform(2.0, 8.0), rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5)])
            prims.append(Box(tuple(c - rng.uniform(0.3, 1.0, 3)), tuple(c + rng.uniform(0.3, 1.0, 3))))
        scene = Scene(tuple(prims))
        depth = render_scene_depth(scene, Q0, intr_small)
        p = np.array([rng.uniform(1.5, 7.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)])
        if (
            check_configuration(p, depth, robot) is Verdict.FREE
            and brute_force_collision(scene, p, robot.rho)
        ):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report(
        3,
        ok,
        f"{violations} Free-with-intersection cases over 200 seeded pairs (need 0), "
        f"runtime {elapsed:.1f} s (< 30 s) at 160x120",
    )


def test_criterion_4_escape_correctness(intr, robot):
    gap_scene = Scene((Box((4.0, -8.0, -8.0), (4.2, 8.0, 0.5)), Box((4.0, -8.0, 1.5), (4.2, 8.0, 8.0))))
    gap_depth = render_scene_depth(gap_scene, Q0, intr)
    sealed = Scene((Wall((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (50.0, 50.0)),))
    sealed_depth = render_scene_depth(sealed, Q0, intr)
    p_hit = np.array([4.0, 0.0, 0.0])

    gap_results = {
        find_escape(p_hit, gap_depth, 1.0, 20, robot).position.tobytes()
        for _ in range(10)
    }
    sealed_results = {
        find_escape(np.array([1.0, 0.0, 0.0]), sealed_depth, 0.5, 20, robot).stuck
        for _ in range(10)
    }
    pos = np.frombuffer(next(iter(gap_results)))
    minimal_up = np.allclose(pos, [4.0, 0.0, 1.0], atol=1e-12)  # gap side, ring k = 1
    ok = len(gap_results) == 1 and minimal_up and sealed_results == {True}
    _report(
        4,
        ok,
        f"gap fixture escape at {pos.tolist()} (expect up candidate, ring 1), "
        f"sealed fixture stuck = {sealed_results == {True}}, "
        f"bit-identical across 10 runs = {len(gap_results) == 1}",
    )


def test_criterion_5_projection_fidelity(intr):
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(1000):
        q = Configuration(*rng.uniform(-5, 5, 3), *rng.uniform(-1.5, 1.5, 3))
        # random point inside the viewing frustum of q
        zs = rng.uniform(intr.z_near, intr.max_depth)
        xs = rng.uniform(-intr.cx, intr.width - intr.cx) / intr.fsx * zs
        ys = rng.uniform(-intr.cy, intr.height - intr.cy) / intr.fsy * zs
        p_w = camera_to_world([xs, ys, zs], q)
        back = camera_to_world(world_to_camera(p_w, q), q)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - p_w))))
    worst_scale = 0.0
    for _ in range(1000):
        p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1.0, 8.0)])
        lam = rng.uniform(0.5, 3.0)
        r1, r2 = np.array(project(p, intr)), np.array(project(lam * p, intr))
        worst_scale = max(worst_scale, float(np.max(np.abs(r1 - r2))))
    ok = worst_rt < 1e-9 and worst_scale < 1e-9
    _report(
        5,
        ok,
        f"1000 frustum round trips max error {worst_rt:.2e} m (< 1e-9), "
        f"projective scaling max error {worst_scale:.2e} px (< 1e-9)",
    )


def _lyapunov(s, p_ref, w) -> float:
    """V = sum over axes of e^T S e, e = (position error, velocity), at the
    sample row s, with S the Riccati solution of the weights w."""
    s11, s12, s22 = solve_are_axis(w)
    S = np.array([[s11, s12], [s12, s22]])
    errors = (np.array([s[ax] - p_ref[ax], s[3 + ax]]) for ax in range(3))
    return sum(float(e @ S @ e) for e in errors)


def _lyapunov_violation(sc, out):
    """Largest Lyapunov increase along appended steps sharing one reference."""
    worst = 0.0
    for s0, s1, p_ref, w, same_leg in replay_steps(sc, out):
        if same_leg:
            worst = max(worst, _lyapunov(s1, p_ref, w) - _lyapunov(s0, p_ref, w))
    return worst


def test_criterion_6_trajectory_integrity(corridor_run):
    worst_junction, worst_lyap = 0.0, 0.0
    for name in ("corridor", "empty"):
        if name == "corridor":
            sc, out, _ = corridor_run
        else:
            sc = load_scenario(SCENARIO_DIR / f"{name}.json")
            out = run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        worst_junction = max(worst_junction, max_junction_mismatch(sc, out))
        worst_lyap = max(worst_lyap, _lyapunov_violation(sc, out))
    ok = worst_junction <= 1e-9 and worst_lyap <= 1e-9
    _report(
        6,
        ok,
        f"junction mismatch {worst_junction:.2e} (<= 1e-9), "
        f"max Lyapunov increase {worst_lyap:.2e} (<= 1e-9) over shipped missions",
    )


def test_criterion_7_collision_check_throughput(intr, robot):
    sc = load_scenario(SCENARIO_DIR / "corridor.json")
    depth = render_scene_depth(sc.scene, Configuration(0.0, 0.0, 1.2), sc.intrinsics)
    rng = np.random.default_rng(3)
    positions = [
        np.array([rng.uniform(2.0, 6.0), rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6)])
        for _ in range(2000)
    ]
    # one cold pass swings about 2x between runs of the same code: report
    # the median of five passes and hold the slowest to the bound
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        for p in positions:
            check_configuration(p, depth, robot)
        rates.append(len(positions) / (time.perf_counter() - t0))
    ok = min(rates) >= 1000.0
    _report(7, ok, f"{statistics.median(rates):.0f} single-configuration checks/s at 640x480, median of "
                   f"{len(rates)} passes (slowest {min(rates):.0f}, need >= 1000)")


def test_criterion_8_planning_tick_budget(robot):
    """Median full tick (render + check + rollout) within the 33 ms budget."""
    sc = load_scenario(SCENARIO_DIR / "corridor.json")
    w = sc.planner.weights_l0
    goal_ref = sc.goal.reference()
    times = []
    for x in np.linspace(0.0, 7.0, 15):
        q_c = Configuration(float(x), 0.0, 1.2)
        x_start = np.array([float(x), 0.0, 1.2, 2.0, 0.0, 0.0])
        t0 = time.perf_counter()
        depth = render_scene_depth(sc.scene, q_c, sc.intrinsics)
        la = rollout(x_start, goal_ref, w, sc.planner.horizon_samples, sc.planner.ts)
        waypoints2collision(la.samples[:, :3], depth, robot)
        times.append(time.perf_counter() - t0)
    median_ms = statistics.median(times) * 1e3
    detail = f"median planning tick {median_ms:.1f} ms at 640x480 (30 FPS budget 33 ms)"
    _report(8, median_ms <= 33.0, detail)
