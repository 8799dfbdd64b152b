"""Smoke test of the benchmark itself, at tiny sizes: result schema, seeded
generators, and the traced run's self-time accounting."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {
    "corridor_640": {},  # the shipped scenario has one size
    "clutter_sweep_160": {"width": 32, "height": 24},
    "frames_640": {"width": 32, "height": 24, "n_boxes": 2, "n_spheres": 2},
}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name,trace", [
    ("corridor_640", 0),
    ("clutter_sweep_160", 0),
    ("clutter_sweep_160", 1),
    ("frames_640", 0),
    ("frames_640", 1),
])
def test_result_schema(name, trace, tmp_path):
    result, report = run.run(name, seed=1, seconds=0.3, trace=trace, setups=1,
                             sizes=TINY[name], out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][n] > 0 for n in names)
    assert len(report["first_tasks_digest"]) == 64


def test_times_are_scaled_medians_of_repeats():
    class Frames:
        tick_is_task = True

    def result(main_s, speed):
        return workloads.TaskResult(0, "d", main_s, main_s, True, False, "frame", speed=speed)

    results = [result(1.0, 1.0), result(3.0, 0.5), result(4.0, 0.5)]
    tracer = tracing.Tracer()
    scaled = run.typical_of_repeats(Frames, results, tracer)[0]
    assert (scaled.main_s, scaled.busy_s, scaled.ticks_s) == (1.5, 1.5, [1.5])
    assert run.typical_of_repeats(Frames, results, tracer, scaled=False)[0].main_s == 3.0
    assert 0 < hostspeed.reference_s() < 1


def test_clutter_scenes_repeat_for_a_seed(tmp_path):
    a = workloads.load("clutter_sweep_160", 7, tmp_path / "a", **TINY["clutter_sweep_160"])
    b = workloads.load("clutter_sweep_160", 7, tmp_path / "b", **TINY["clutter_sweep_160"])
    c = workloads.load("clutter_sweep_160", 8, tmp_path / "c", **TINY["clutter_sweep_160"])
    assert [a.scene(i) for i in range(5)] == [b.scene(i) for i in range(5)]
    assert [a.scene(i) for i in range(5)] != [c.scene(i) for i in range(5)]
    assert all(2 <= len(a.scene(i).primitives) <= 6 for i in range(a.SCENES))


def test_clutter_start_never_collides(tmp_path):
    from depthnav import oracle

    for seed in range(20):
        w = workloads.load("clutter_sweep_160", seed, tmp_path, **TINY["clutter_sweep_160"])
        assert not any(oracle.brute_force_collision(s, workloads.START, w.robot.rho)
                       for s in w.scenes)


def test_frame_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.load("frames_640", 7, tmp_path / "a", **TINY["frames_640"])
    b = workloads.load("frames_640", 7, tmp_path / "b", **TINY["frames_640"])
    c = workloads.load("frames_640", 8, tmp_path / "c", **TINY["frames_640"])
    assert a.scenario_path.read_bytes() == b.scenario_path.read_bytes()
    assert a.scenario_path.read_bytes() != c.scenario_path.read_bytes()
    assert [a.poses[i] for i in range(4)] == [b.poses[i] for i in range(4)]
    assert [a.poses[i] for i in range(4)] != [c.poses[i] for i in range(4)]
    # poses cycle, and are passed in fixed-point form that reads back exactly
    assert a.key(a.POSES + 3) == 3
    assert all(float(f"{v:.6f}") == v for i in range(a.POSES) for v in a.poses[i])
    assert len(workloads.dense_scenario(np.random.default_rng(0), 640, 480, 12, 12)["scene"]) == 24


def test_spot_check_rejects_a_wrong_depth(tmp_path):
    w = workloads.load("frames_640", 3, tmp_path, **TINY["frames_640"])
    assert w.task(0).problems == []
    depth = workloads.read_pfm_bytes(w.pfm_path.read_bytes()).copy()
    depth[depth < w.intr["max_depth"]] -= 0.05
    depth[depth >= w.intr["max_depth"]] = 1.0
    bad = workloads.spot_check(depth, w.poses[0], w.intr, w.prims,
                               np.random.default_rng(0), 8)
    assert len(bad) == 8


def test_failed_render_call_is_counted_not_fatal(tmp_path):
    w = workloads.load("frames_640", 3, tmp_path, **TINY["frames_640"])
    w.scenario_path = tmp_path / "missing.json"
    r = w.task(0)
    assert r.failed and not r.clean and r.problems == []
    assert r.note.startswith("render exited 1: error: cannot read scenario file")


def test_traced_self_times_account_for_tick_time(tmp_path):
    from depthnav import planner

    original = planner.step_planner
    w = workloads.load("clutter_sweep_160", 2, tmp_path, **TINY["clutter_sweep_160"])
    results, tracer = run.measure(w, tracing.LAYERS, count=3)
    assert planner.step_planner is original  # patches are undone

    spans, self_s = tracer.spans, tracer.self_times()
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def subtree_self(i):
        return self_s[i] + sum(subtree_self(j) for j in children.get(i, []))

    ticks = [i for i, s in enumerate(spans) if s.name == "planner.tick"]
    assert ticks and {spans[i].task for i in ticks} == {0, 1, 2}
    for i in ticks:
        assert subtree_self(i) == pytest.approx(spans[i].duration, rel=1e-9, abs=1e-12)
        assert all(s >= 0 for s in (self_s[j] for j in children.get(i, [])))

    metrics = tracing.layer_metrics(tracer, len(results), 0.0)
    layer_self = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    roots = sum(s.duration for s in spans if s.parent < 0)
    assert layer_self == pytest.approx(roots, rel=1e-9)
    assert metrics["planner.tick.working"] <= metrics["planner.tick.calls"]
    assert metrics["oracle.verify.calls"] == 3
