"""In-memory span recorder for the depthnav benchmark.

Spans are recorded from outside the program: a probe replaces a function
attribute on a depthnav module with a timing wrapper, at the name the caller
looks up (``depthnav.planner.render_scene_depth``, not
``depthnav.scene.render_scene_depth``), and puts the original back when the
``patched`` block ends. Everything runs in one thread, so the open spans form
a stack and a span's children never overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from os.path import getsize


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    task: int  # mission or frame index within the run
    info: object = None  # what the probe's `after` hook measured

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """Where to patch (module, attribute), the span name, and optional hooks.

    ``before(*args)`` runs ahead of the call and its value is handed to
    ``after(args, result, token)``, whose return value is kept as
    ``Span.info``. Both run outside the timed interval.
    """

    module: str
    attr: str
    span: str
    before: object = None
    after: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = -1
        self._stack: list[int] = []

    def wrap(self, probe: Probe, fn):
        spans, stack = self.spans, self._stack
        before, after = probe.before, probe.after

        def traced(*args, **kwargs):
            token = before(*args) if before is not None else None
            span = Span(probe.span, 0.0, 0.0, stack[-1] if stack else -1, self.task)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                span.info = after(args, result, token)
            return result

        return traced

    @contextmanager
    def patched(self, probes):
        saved = []
        try:
            for probe in probes:
                module = importlib.import_module(probe.module)
                original = getattr(module, probe.attr)
                saved.append((module, probe.attr, original))
                setattr(module, probe.attr, self.wrap(probe, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, (s, self_s) in enumerate(zip(self.spans, self.self_times())):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "task": s.task, "self_s": self_s,
                    "info": s.info,
                }) + "\n")


# --- probes -----------------------------------------------------------------


def _tick_before(scene, state, *args):
    return len(state.appended), len(state.events)


def _tick_after(args, state, before):
    # a call that neither appended samples nor logged an event took the
    # early return for a full buffer; every other call did planning work
    working = (len(state.appended), len(state.events)) != before
    # ticks so far in which the executor could not advance (starvation)
    return {"working": working, "starved": state.tick - state.exec_idx}


TICK = Probe("depthnav.planner", "step_planner", "planner.tick", _tick_before, _tick_after)


def _render_after(args, depth, _):
    scene, _q, intr = args[:3]
    return intr.width * intr.height * len(scene.primitives)


def _mission_after(args, outcome, _):
    events = [e["event"] for e in outcome.events]
    return {"deferred": events.count("deferred"), "escape_found": events.count("escape_found")}


def _verify_after(args, report, _):
    scene = args[1]
    return {"points": len(report.flags), "prims": len(scene.primitives)}


# Every layer boundary the traced run records. The benchmark itself calls
# run_mission, verify_mission and cli through these module attributes.
LAYERS = (
    TICK,
    Probe("depthnav.planner", "run_mission", "planner.mission", after=_mission_after),
    Probe("depthnav.planner", "render_scene_depth", "scene.render", after=_render_after),
    Probe("depthnav.planner", "rollout", "lqr.rollout", after=lambda a, r, _: len(r.samples)),
    Probe("depthnav.planner", "waypoints2collision", "collision.waypoints"),
    Probe("depthnav.planner", "find_escape", "collision.escape", after=lambda a, r, _: r.stuck),
    Probe("depthnav.planner", "brute_force_collision", "oracle.brute"),
    Probe("depthnav.collision", "check_configuration", "collision.check",
          after=lambda a, r, _: r.value),
    Probe("depthnav.collision", "render_robot_footprint", "scene.footprint",
          after=lambda a, r, _: int(r.pixels.shape[0])),
    Probe("depthnav.oracle", "verify_mission", "oracle.verify", after=_verify_after),
    Probe("depthnav.oracle", "brute_force_collision", "oracle.brute"),
    Probe("depthnav.cli", "cli", "cli"),
    Probe("depthnav.cli", "load_scenario", "scenario.load"),
    Probe("depthnav.cli", "render_scene_depth", "scene.render", after=_render_after),
    Probe("depthnav.cli", "write_pfm", "scene.pfm", after=lambda a, r, _: getsize(a[0])),
)


# --- per-layer metrics ------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def layer_metrics(tracer: Tracer, tasks: int, overhead_ratio: float) -> dict:
    """Per-layer counts and times of one traced phase, keyed by metric name.

    Layers the workload never calls report zero counts and zero times.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    idx = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        idx[s.name].append(i)
        if s.parent >= 0:
            children[s.parent].append(i)

    def calls(name):
        return len(idx[name])

    def total_self(*names):
        return sum(self_s[i] for n in names for i in idx[n])

    def durations(name, scale):
        return [spans[i].duration * scale for i in idx[name]]

    def infos(name):
        return [spans[i].info for i in idx[name]]

    def ratio(num, den):
        return num / den if den else 0.0

    def descendants(i):
        stack = list(children[i])
        while stack:
            j = stack.pop()
            yield j
            stack.extend(children[j])

    # a render is used when its image is consumed after it, inside the same
    # tick or CLI call: by a collision check, or by the PFM writer
    used = 0
    for i in idx["scene.render"]:
        parent = spans[i].parent
        if parent >= 0 and any(
            spans[j].name in ("collision.check", "scene.pfm") and spans[j].start >= spans[i].end
            for j in descendants(parent)
        ):
            used += 1

    # starvation is cumulative per mission: keep each mission's last tick
    last_tick = {}
    for i in idx["planner.tick"]:
        last_tick[spans[i].parent] = spans[i].info["starved"]

    escapes = infos("collision.escape")
    checks = infos("collision.check")
    missions = infos("planner.mission")
    verifies = infos("oracle.verify")
    points = sum(v["points"] for v in verifies)
    return {
        "scene.render.calls": calls("scene.render"),
        "scene.render.ms_p50": percentile(durations("scene.render", 1e3), 0.5),
        "scene.render.ms_p90": percentile(durations("scene.render", 1e3), 0.9),
        "scene.render.self_s": total_self("scene.render"),
        "scene.render.ray_prim_M": sum(infos("scene.render")) / 1e6,
        "scene.render.used_ratio": ratio(used, calls("scene.render")),
        "scene.footprint.calls": calls("scene.footprint"),
        "scene.footprint.pixels": sum(infos("scene.footprint")),
        "scene.footprint.self_s": total_self("scene.footprint"),
        "scene.pfm.self_s": total_self("scene.pfm"),
        "scene.pfm.bytes": sum(infos("scene.pfm")),
        "collision.waypoints.self_s": total_self("collision.waypoints"),
        "collision.check.calls": len(checks),
        "collision.check.us_p50": percentile(durations("collision.check", 1e6), 0.5),
        "collision.check.self_s": total_self("collision.check"),
        "collision.check.free_ratio": ratio(checks.count("free"), len(checks)),
        "collision.check.out_of_view": checks.count("out_of_view"),
        "collision.escape.calls": len(escapes),
        "collision.escape.candidates": sum(
            sum(spans[j].name == "collision.check" for j in children[i])
            for i in idx["collision.escape"]
        ),
        "collision.escape.self_s": total_self("collision.escape"),
        "collision.escape.stuck_ratio": ratio(sum(escapes), len(escapes)),
        "lqr.rollout.calls": calls("lqr.rollout"),
        "lqr.rollout.ms_p50": percentile(durations("lqr.rollout", 1e3), 0.5),
        "lqr.rollout.self_s": total_self("lqr.rollout"),
        "lqr.rollout.samples": sum(infos("lqr.rollout")),
        "planner.tick.calls": calls("planner.tick"),
        "planner.tick.working": sum(t["working"] for t in infos("planner.tick")),
        "planner.self_s": total_self("planner.tick", "planner.mission"),
        "planner.deferred": sum(m["deferred"] for m in missions),
        "planner.starvation": sum(last_tick.values()),
        "planner.escape_found": sum(m["escape_found"] for m in missions),
        "oracle.verify.calls": len(verifies),
        "oracle.verify.ms_p50": percentile(durations("oracle.verify", 1e3), 0.5),
        "oracle.verify.self_s": total_self("oracle.verify"),
        "oracle.brute.calls": calls("oracle.brute"),
        "oracle.brute.self_s": total_self("oracle.brute"),
        "oracle.points": points,
        "oracle.distance_evals": sum(v["points"] * v["prims"] for v in verifies),
        "scenario.load.self_s": total_self("scenario.load"),
        "cli.self_s": total_self("cli"),
        "trace.tasks": tasks,
        "trace.overhead_ratio": overhead_ratio,
    }
