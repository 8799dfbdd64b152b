"""Brute-force 3D collision oracle, independent of the depth-image checker.

Used to validate initial states and to verify executed missions after the
fact. Boundary contact (distance exactly rho) counts as collision.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .scene import Scene

__all__ = ["OracleReport", "brute_force_collision", "min_clearance", "verify_mission"]

CLEARANCE_SENTINEL = sys.float_info.max  # empty scene / nothing to measure


@dataclass
class OracleReport:
    flags: list  # per checked sample, True = intersection
    min_clearance: float
    violation_count: int


def brute_force_collision(scene: Scene, p, rho: float) -> bool:
    """True iff a sphere of radius rho at p intersects any primitive (closed)."""
    if not rho > 0:  # NaN included
        raise ValueError(f"rho: must be positive, got {rho!r}")
    return any(prim.distance(p) <= rho for prim in scene.primitives)


def min_clearance(scene: Scene, p, rho: float) -> float:
    """Distance from the sphere surface to the nearest primitive; negative
    when intersecting, sentinel when the scene is empty."""
    if not scene.primitives:
        return CLEARANCE_SENTINEL
    return min(prim.distance(p) for prim in scene.primitives) - rho


def verify_mission(rows, scene: Scene, rho: float, refine: int = 10) -> OracleReport:
    """Sweep the executed trajectory as a sphere and report intersections.

    Checks every executed sample plus `refine - 1` linearly interpolated
    midpoints per segment (ts/refine spacing).
    """
    if not rows:
        raise ValueError("empty trajectory log")
    points = []
    prev = None
    for row in rows:
        p = np.array([row["px"], row["py"], row["pz"]])
        if prev is not None:
            for k in range(1, refine):
                points.append(prev + (p - prev) * (k / refine))
        points.append(p)
        prev = p
    flags = [brute_force_collision(scene, p, rho) for p in points]
    clearance = min((min_clearance(scene, p, rho) for p in points), default=CLEARANCE_SENTINEL)
    return OracleReport(flags=flags, min_clearance=clearance, violation_count=sum(flags))
