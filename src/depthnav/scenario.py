"""Scenario files: JSON configuration for missions, with field-path
validation errors.

All units are SI, all angles radians. Unspecified sections fall back to
defaults: the 640x480 camera below, and the library types' own defaults
(camera range 0.3-10 m, rho = 0.35 m sphere, planner timings tau = 0.8 s /
ts = 0.2 s). Every world_bounds coordinate lies within 1e6 m of the origin,
the limit every primitive keeps.
A section's keys are its type's init fields, and each type validates its own
fields; parsing only adds the section path.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .frames import CameraIntrinsics
from .lqr import StateVec
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
_PRIMITIVES = {"box": Box, "sphere": Sphere, "wall": Wall}  # JSON type name -> type


@functools.cache
def _schema(T) -> tuple:
    """T's init field names, those with no default, and {name: type} of
    those whose default is itself a configuration dataclass."""
    init = [f for f in fields(T) if f.init]
    required = [f.name for f in init if f.default is MISSING and f.default_factory is MISSING]
    nested = {f.name: type(f.default) for f in init if is_dataclass(f.default)}
    return {f.name for f in init}, required, nested


def _build(path: str, T, obj, **defaults):
    """T built from the JSON object obj at path, whose keys are T's init
    fields; defaults fill the keys obj leaves out, and a field whose default
    is a dataclass is built from its own object at path.key. A key T lacks,
    a required key obj lacks (or gives as null) and a field T rejects each
    raise a ScenarioError naming the field path."""
    keys, required, nested = _schema(T)
    if not isinstance(obj, dict):
        raise ScenarioError(f"invalid {path}: must be a JSON object")
    for key in obj:
        if key not in keys:
            raise ScenarioError(f"unknown field {path}.{key}")
    for key in required:
        if obj.get(key) is None and key not in defaults:
            raise ScenarioError(f"missing required field {path}.{key}")
    kwargs = {**defaults, **obj}
    for key, sub in nested.items():
        if key in obj:
            kwargs[key] = _build(f"{path}.{key}", sub, obj[key])
    try:
        return T(**kwargs)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"invalid {path}.{e}") from e


def _within(p_lo, p_hi, lo, hi) -> bool:
    """Whether the box [p_lo, p_hi] lies within the box [lo, hi], given as
    lists of floats."""
    return all(a <= b for a, b in zip(lo, p_lo)) and all(a <= b for a, b in zip(p_hi, hi))


def parse_scenario(data: dict) -> ScenarioConfig:
    """Map a parsed scenario dict onto the library types, whose init fields
    are each section's keys and which validate their own fields; raises
    ScenarioError naming the offending field, and rejects a key no section
    defines with its path."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a JSON object")
    for key in data:
        if key not in _SECTIONS:
            raise ScenarioError(f"unknown field {key}")
    intr = _build("intrinsics", CameraIntrinsics, data.get("intrinsics", {}), **_DEFAULT_INTR)
    robot = _build("robot", RobotModel, data.get("robot", {}))
    planner = _build("planner", PlannerConfig, data.get("planner", {}))
    x0 = _build("start", StateVec, data.get("start", {}), v=[0.0, 0.0, 0.0])
    goal = _build("goal", GoalRegion, data.get("goal", {}), y_ref=x0.p[1], z_ref=x0.p[2])
    # a Box, so within the world limit every primitive keeps; the start and
    # the goal must lie inside it
    bounds = _build("world_bounds", Box, data.get("world_bounds", _DEFAULT_BOUNDS))
    lo, hi = bounds.min, bounds.max

    scene_d = data.get("scene", [])
    if not isinstance(scene_d, list):
        raise ScenarioError("invalid scene: must be a JSON list")
    prims = []
    for i, pd in enumerate(scene_d):
        path = f"scene[{i}]"
        if not isinstance(pd, dict):
            raise ScenarioError(f"invalid {path}: must be a JSON object")
        kind = pd.get("type")
        if kind is None:
            raise ScenarioError(f"missing required field {path}.type")
        if not isinstance(kind, str) or kind not in _PRIMITIVES:
            raise ScenarioError(f"unknown primitive type {kind!r} at {path}.type")
        prim = _build(path, _PRIMITIVES[kind], {k: v for k, v in pd.items() if k != "type"})
        if not _within(*(b.tolist() for b in prim.bounds()), lo, hi):
            raise ScenarioError(f"{path} lies outside world_bounds")
        prims.append(prim)

    p = x0.p.tolist()
    if not _within(p, p, lo, hi):
        raise ScenarioError("invalid start.p: outside world_bounds")
    for name, v, a, b in zip(("x_goal", "y_ref", "z_ref"), goal.reference().tolist(), lo, hi):
        if not a <= v <= b:
            raise ScenarioError(f"invalid goal.{name}: outside world_bounds")

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
    except ValueError as e:  # bad JSON, bad UTF-8 or an integer past Python's digit limit
        raise ScenarioError(f"scenario parse error: {e}") from e
    return parse_scenario(data)
