"""Scenario files: JSON configuration for missions, with field-path
validation errors.

All units are SI, all angles radians. Unspecified sections fall back to
defaults: the 640x480 camera below, and the library types' own defaults
(camera range 0.3-10 m, rho = 0.35 m sphere, planner timings tau = 0.8 s /
ts = 0.2 s).
Each type validates its own fields; parsing only adds the section path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .frames import CameraIntrinsics
from .lqr import ModeWeights, StateVec
from .planner import GoalRegion, PlannerConfig
from .scene import Box, RobotModel, Scene, Sphere, Wall

__all__ = ["ScenarioConfig", "ScenarioError", "load_scenario", "parse_scenario"]


class ScenarioError(ValueError):
    """Scenario parse/validation failure; message names the offending field."""


@dataclass
class ScenarioConfig:
    intrinsics: CameraIntrinsics
    robot: RobotModel
    planner: PlannerConfig
    x0: StateVec
    goal: GoalRegion
    scene: Scene


_DEFAULT_INTR = dict(fsx=385.0, fsy=385.0, cx=320.0, cy=240.0, width=640, height=480)
_DEFAULT_BOUNDS = {"min": [-50, -50, -50], "max": [50, 50, 50]}
_SECTIONS = ("intrinsics", "robot", "planner", "start", "goal", "world_bounds", "scene")
# JSON type name -> constructor and the keys of its positional arguments
_PRIMITIVES = {
    "box": (Box, ("min", "max")),
    "sphere": (Sphere, ("center", "radius")),
    "wall": (Wall, ("point", "normal", "half_extents")),
}
_PRIMITIVE_KEYS = {"type"}.union(*(keys for _, keys in _PRIMITIVES.values()))


def _object(v, path: str, keys) -> dict:
    """v as a JSON object whose keys all lie in keys; path is '' for the root."""
    if not isinstance(v, dict):
        raise ScenarioError(f"invalid {path}: must be a JSON object")
    for key in v:
        if key not in keys:
            raise ScenarioError(f"unknown field {path + '.' if path else ''}{key}")
    return v


def _get(d: dict, key: str, path: str):
    if d.get(key) is None:
        raise ScenarioError(f"missing required field {path}.{key}")
    return d[key]


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs); a field it rejects becomes a ScenarioError at path."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"invalid {path}.{e}") from e


def _within(p_lo, p_hi, lo, hi) -> bool:
    """Whether the box [p_lo, p_hi] lies within the box [lo, hi], given as
    lists of floats."""
    return all(a <= b for a, b in zip(lo, p_lo)) and all(a <= b for a, b in zip(p_hi, hi))


def parse_scenario(data: dict) -> ScenarioConfig:
    """Map a parsed scenario dict onto the library types, which validate
    their own fields; raises ScenarioError naming the offending field, and
    rejects a key no section defines with its path."""
    _object(data, "", _SECTIONS)
    intr_keys = [f.name for f in fields(CameraIntrinsics)]
    intr_d = {**_DEFAULT_INTR, **_object(data.get("intrinsics", {}), "intrinsics", intr_keys)}
    intr = _build("intrinsics", CameraIntrinsics, **intr_d)
    robot_d = _object(data.get("robot", {}), "robot", ("rho",))
    robot = _build("robot", RobotModel, robot_d.get("rho", RobotModel.rho))

    planner_keys = [f.name for f in fields(PlannerConfig)]
    kwargs = dict(_object(data.get("planner", {}), "planner", planner_keys))
    for key in ("weights_l0", "weights_l1"):
        if key in kwargs:
            path = f"planner.{key}"
            w = _object(kwargs[key], path, ("qp", "qv", "r"))
            kwargs[key] = _build(path, ModeWeights, *(_get(w, k, path) for k in ("qp", "qv", "r")))
    planner = _build("planner", PlannerConfig, **kwargs)

    start = _object(data.get("start", {}), "start", ("p", "v"))
    x0 = _build("start", StateVec, _get(start, "p", "start"), start.get("v", [0.0, 0.0, 0.0]))

    goal_d = _object(data.get("goal", {}), "goal", ("x_goal", "y_ref", "z_ref"))
    goal = _build(
        "goal", GoalRegion, _get(goal_d, "x_goal", "goal"),
        goal_d.get("y_ref", x0.p[1]), goal_d.get("z_ref", x0.p[2]),
    )

    bounds_d = _object(data.get("world_bounds", _DEFAULT_BOUNDS), "world_bounds", ("min", "max"))
    bounds = _build(
        "world_bounds", Box, _get(bounds_d, "min", "world_bounds"), _get(bounds_d, "max", "world_bounds")
    )
    lo, hi = bounds.min, bounds.max

    scene_d = data.get("scene", [])
    if not isinstance(scene_d, list):
        raise ScenarioError("invalid scene: must be a JSON list")
    prims = []
    for i, pd in enumerate(scene_d):
        path = f"scene[{i}]"
        kind = _get(_object(pd, path, _PRIMITIVE_KEYS), "type", path)
        if not isinstance(kind, str) or kind not in _PRIMITIVES:
            raise ScenarioError(f"unknown primitive type {kind!r} at {path}.type")
        make, keys = _PRIMITIVES[kind]
        _object(pd, path, ("type", *keys))
        prim = _build(path, make, *(_get(pd, k, path) for k in keys))
        if not _within(*(b.tolist() for b in prim.bounds()), lo, hi):
            raise ScenarioError(f"{path} lies outside world_bounds")
        prims.append(prim)

    p = x0.p.tolist()
    if not _within(p, p, lo, hi):
        raise ScenarioError("invalid start.p: outside world_bounds")

    return ScenarioConfig(
        intrinsics=intr, robot=robot, planner=planner, x0=x0, goal=goal,
        scene=Scene(tuple(prims)),
    )


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario parse error: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    return parse_scenario(data)
