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

from .frames import CameraIntrinsics
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

    A footprint is the whole disc in view or empty; an empty one (the disc
    leaves the image, or the sphere reaches before z_near) is OUT_OF_VIEW,
    and nothing else about it is read. Free requires the footprint
    farthest depth, seen from the image's pose through the image's
    rotation, to be strictly less than the scene depth at every covered
    pixel: the footprint's disc over its tight pixel box.
    The image answers that as one depth-bounded query
    (:meth:`DepthImage.farther_than`), which intersects only the primitives
    that can lie in front of the farthest depth, over the box, and asks the
    footprint for its disc mask (``mask_over``) only over the rectangles it
    casts. A check that casts nothing builds no mask.
    """
    fp = render_robot_footprint(p, depth, robot)
    if not fp.fully_in_view:
        return Verdict.OUT_OF_VIEW
    if depth.farther_than(fp.box, fp.mask_over, fp.farthest_depth):
        return Verdict.FREE
    return Verdict.COLLISION


def _blind_zone_radius(intr: CameraIntrinsics, robot: RobotModel) -> float:
    """Distance below which an on-axis robot footprint cannot fit the image."""
    margin = min(intr.cx, intr.cy, intr.width - intr.cx, intr.height - intr.cy)
    return intr.z_near + robot.rho + robot.rho * max(intr.fsx, intr.fsy) / margin


def waypoints2collision(lookahead, depth: DepthImage, robot: RobotModel):
    """Check a lookahead against a depth image; return (verdict, index into
    the lookahead of the first non-free sample), or (FREE, None).

    lookahead holds the (N, 3) sample positions, start sample first. The
    start sample is never read: it is the end of the trajectory the caller
    already holds. Every other sample within the blind-zone radius of the
    image's camera (:func:`_blind_zone_radius`, too close for its footprint
    disc to fit the image) is skipped; the rest are checked in order, and
    the first that is not FREE decides. Raises ValueError on an empty
    lookahead (degenerate trajectory).
    """
    if len(lookahead) == 0:
        raise ValueError("degenerate trajectory: no samples to check")
    blind = _blind_zone_radius(depth.intr, robot)
    cam = depth.q.position
    for i, p in enumerate(lookahead[1:], start=1):
        if np.linalg.norm(p - cam) > blind:
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

    Precondition: p_hit collides in depth (the planner calls it only with
    the sample it has just found COLLISION in the same image), so the
    search starts at ring 1. Candidates are placed at k*d_l (k = 1, 2, ...)
    along the image's camera-frame up, down, left and right directions,
    mapped to the world frame by one product with the rotation the image
    holds (parallel to the image plane), checked in that fixed order. A
    direction is dropped from the live list once its candidate is
    OUT_OF_VIEW (its footprint is empty); the search is stuck when no
    direction is live or k exceeds max_rings.
    """
    if d_l <= 0:
        raise ValueError("d_l must be positive")
    if max_rings < 1:
        raise ValueError("max_rings must be at least 1")
    p_hit = np.asarray(p_hit, dtype=float)
    live = list(_DIRECTIONS @ depth.R_ws)  # camera->world: R_ws.T per direction
    for k in range(1, max_rings + 1):
        kept = []
        for d in live:
            cand = p_hit + k * d_l * d
            v = check_configuration(cand, depth, robot)
            if v is Verdict.FREE:
                return EscapeResult(cand)
            if v is not Verdict.OUT_OF_VIEW:
                kept.append(d)
        live = kept
        if not live:
            break
    return EscapeResult(None)
