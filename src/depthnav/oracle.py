"""Brute-force 3D collision oracle, independent of the depth-image checker.

Used to validate initial states and to verify executed missions after the
fact. Boundary contact (distance exactly rho) counts as collision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .scene import Scene
from .validation import real

__all__ = ["OracleReport", "brute_force_collision", "verify_mission"]

CLEARANCE_SENTINEL = sys.float_info.max  # empty scene / nothing to measure
REFINE = 10  # sweep points per executed segment (ts / REFINE spacing)


@dataclass
class OracleReport:
    flags: list  # per swept point, True = intersection
    min_clearance: float  # sphere surface to the nearest primitive; < 0 inside

    @property
    def violation_count(self) -> int:
        return sum(self.flags)

    @property
    def first_violation(self) -> int | None:
        """Row ending the first violating segment (sweep point j ends at row ceil(j / REFINE))."""
        return next((-(-j // REFINE) for j, f in enumerate(self.flags) if f), None)


def brute_force_collision(scene: Scene, p, rho: float) -> bool:
    """True iff a sphere of radius rho at p intersects any primitive (closed)."""
    rho = real("rho", rho, positive=True)  # a NaN rho would read as "no collision"
    return any(prim.distance(p) <= rho for prim in scene.primitives)


def verify_mission(rows, scene: Scene, rho: float) -> OracleReport:
    """Sweep the executed trajectory as a sphere and report intersections.

    Checks every executed sample plus REFINE - 1 linearly interpolated
    midpoints per segment. Each point's nearest-primitive distance is
    computed once; it gives both the flag (distance <= rho) and the
    clearance (distance - rho). A missing or non-finite position is
    rejected with its row index and column.
    """
    rho = real("rho", rho, positive=True)
    if not rows:
        raise ValueError("empty trajectory log")
    points = []
    prev = None
    for i, row in enumerate(rows):
        try:
            p = np.array([real(key, row[key]) for key in ("px", "py", "pz")])
        except KeyError as e:
            raise ValueError(f"trajectory row {i}: missing column {e}") from e
        except (TypeError, ValueError) as e:
            raise ValueError(f"trajectory row {i}: {e}") from e
        if prev is not None:
            for k in range(1, REFINE):
                points.append(prev + (p - prev) * (k / REFINE))
        points.append(p)
        prev = p
    prims = scene.primitives
    nearest = [min((prim.distance(p) for prim in prims), default=math.inf) for p in points]
    clearance = min(nearest) - rho if prims else CLEARANCE_SENTINEL
    return OracleReport([d <= rho for d in nearest], clearance)
