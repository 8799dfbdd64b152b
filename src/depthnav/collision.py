"""Depth-image-space collision classification and escape search.

A hallucinated robot position is compared against a scene depth image,
which carries the pose and intrinsics it was rendered from: the robot is
free only when its farthest-point footprint, seen from that pose, is
strictly in front of the scene at every pixel it covers. The footprint is
projected through the rotation the image holds, so checks compute no
rotation. Only a surface nearer than the footprint's farthest depth can
decide a check, so it intersects only the primitives that can reach that
depth, over the footprint's pixel box, builds the footprint's disc mask
only over the rectangles it casts, and keeps nothing for the next check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scene import DepthImage, RobotModel, render_robot_footprint

__all__ = [
    "Verdict",
    "EscapeResult",
    "check_configuration",
    "waypoints2collision",
    "find_escape",
]


class Verdict(Enum):
    FREE = "free"
    COLLISION = "collision"
    OUT_OF_VIEW = "out_of_view"


@dataclass(frozen=True)
class EscapeResult:
    """Outcome of the escape search: a free world position, or stuck."""

    position: np.ndarray | None

    @property
    def stuck(self) -> bool:
        return self.position is None


def check_configuration(p, depth: DepthImage, robot: RobotModel) -> Verdict:
    """Classify a hallucinated robot position against a scene depth image.

    Free requires the footprint farthest depth, seen from the image's pose
    through the image's rotation, to be strictly less than the scene depth
    at every covered pixel: the footprint's disc over its tight pixel box.
    The image answers that as one depth-bounded query
    (:meth:`DepthImage.farther_than`), which intersects only the primitives
    that can lie in front of the farthest depth, over the box, asks the
    footprint for its disc mask (``mask_over``) only over the rectangles it
    casts, and caches nothing. A check that casts nothing builds no mask.
    """
    fp = render_robot_footprint(p, depth, robot)
    if not fp.fully_in_view:
        return Verdict.OUT_OF_VIEW
    if depth.farther_than(fp.box, fp.mask_over, fp.farthest_depth):
        return Verdict.FREE
    return Verdict.COLLISION


def waypoints2collision(samples, depth: DepthImage, robot: RobotModel):
    """Check time-ordered positions; return (verdict, index of first non-free).

    Returns (FREE, None) when every sample is free. Raises ValueError on an
    empty sample list (degenerate trajectory).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("degenerate trajectory: no samples to check")
    for i, p in enumerate(samples):
        v = check_configuration(p, depth, robot)
        if v is not Verdict.FREE:
            return v, i
    return Verdict.FREE, None


# camera-frame displacement directions, checked in this fixed order:
# up, down, left, right
_DIRECTIONS = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def find_escape(
    p_hit, depth: DepthImage, d_l: float, max_rings: int, robot: RobotModel
) -> EscapeResult:
    """Ring search for a free position around a colliding one.

    Precondition: p_hit collides in depth. The planner calls it only with
    the sample it has just found COLLISION in the same image, and checks
    keep nothing between calls, so p_hit itself is not checked again.
    Candidates are placed at k*d_l (k = 1, 2, ...) along the image's
    camera-frame up, down, left and right directions mapped to the world
    frame through the rotation the image holds (parallel to the image
    plane), checked in that fixed order. A direction is abandoned once its
    candidate leaves the field of view; the search is stuck when all four
    are abandoned or k exceeds max_rings.
    """
    if d_l <= 0:
        raise ValueError("d_l must be positive")
    if max_rings < 1:
        raise ValueError("max_rings must be at least 1")
    p_hit = np.asarray(p_hit, dtype=float)
    R_sw = depth.R_ws.T
    world_dirs = [R_sw @ d for d in _DIRECTIONS]
    alive = [True] * len(world_dirs)
    for k in range(1, max_rings + 1):
        if not any(alive):
            break
        for i, d in enumerate(world_dirs):
            if not alive[i]:
                continue
            cand = p_hit + k * d_l * d
            v = check_configuration(cand, depth, robot)
            if v is Verdict.FREE:
                return EscapeResult(cand)
            if v is Verdict.OUT_OF_VIEW:
                alive[i] = False
    return EscapeResult(None)
