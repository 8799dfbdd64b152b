"""Depth-image-space collision classification and escape search.

A hallucinated robot position is compared against a scene depth image,
which carries the pose and intrinsics it was rendered from: the robot is
free only when its farthest-point footprint, seen from that pose, is
strictly in front of the scene at every pixel it covers. The footprint is
projected through the rotation the image holds, so checks compute no
rotation. Only a surface nearer than the footprint's farthest depth can
decide a check. A lookahead's samples, and an escape ring's candidates,
are checked by one footprint query (:func:`_verdicts`): it finds every
footprint's disc, compares every footprint's rays up to its farthest
depth against every primitive at once, and casts only a footprint that
some primitive can reach, over the footprint's pixel box, building the
disc mask only over the rectangles it casts. :func:`check_configuration`
checks one position the same way and is the reference the query is
tested against. The image keeps its near depths and the pixel boxes of
the primitives a query reached for the next query; no cast depth is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .frames import CameraIntrinsics
from .scene import DepthImage, RobotModel, _disc, _dot, _footprint, render_robot_footprint
from .validation import integer, real

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
    casts. A check that casts nothing builds no mask. It gives the verdict
    of the one-row footprint query (:func:`_verdicts`), which a lookahead
    and an escape ring use.
    """
    fp = render_robot_footprint(p, depth, robot)
    if not fp.fully_in_view:
        return Verdict.OUT_OF_VIEW
    if depth.farther_than(fp.box, fp.mask_over, fp.farthest_depth):
        return Verdict.FREE
    return Verdict.COLLISION


def _verdicts(points, depth: DepthImage, robot: RobotModel):
    """Yield the Verdict of each row of the (M, 3) world positions points
    against the image, in order: the one footprint query behind a
    lookahead's and an escape ring's checks.

    First every footprint's disc and farthest depth (:func:`_disc`; each
    centre is projected by its own product with the image's rotation, so
    its bits do not depend on how many rows are checked), then one
    comparison of the M footprints' rays, up to their farthest depths,
    against the P primitives (:meth:`DepthImage.reach`). A footprint in
    view that no primitive can reach is free when its farthest depth lies
    below max_depth in float32, and builds no tight box; any other builds
    it (:func:`_footprint`) and asks the image
    (:meth:`DepthImage.farther_than`) over the primitives in reach only.
    Those casts run as the verdicts are read: a caller that stops at a
    verdict casts nothing for the rows after it.
    """
    intr = depth.intr
    rel = points - depth.q.position
    R_sw = depth.R_ws.T
    discs = [_disc((d @ R_sw).tolist(), intr, robot.rho) for d in rel]
    reach = depth.reach([far for far, _, _ in discs], [box for _, box, _ in discs])
    for (far, box, disc), prims in zip(discs, reach):
        if disc is None:
            yield Verdict.OUT_OF_VIEW
        elif prims:
            fp = _footprint(far, box, disc)
            yield Verdict.FREE if depth.farther_than(fp.box, fp.mask_over, far, prims) else Verdict.COLLISION
        else:  # farther_than's answer with nothing to walk
            yield Verdict.FREE if far < np.float32(intr.max_depth) else Verdict.COLLISION


def _blind_zone_radius(intr: CameraIntrinsics, robot: RobotModel) -> float:
    """Distance below which an on-axis robot footprint cannot fit the image."""
    margin = min(intr.cx, intr.cy, intr.width - intr.cx, intr.height - intr.cy)
    return intr.z_near + robot.rho + robot.rho * max(intr.fsx, intr.fsy) / margin


def waypoints2collision(lookahead, depth: DepthImage | None, robot: RobotModel) -> list:
    """Check a lookahead against a depth image; return one reason per
    sample after the start, in order.

    lookahead holds the (N, 3) sample positions, start sample first. The
    start sample is never read: it is the end of the trajectory the caller
    already holds. Every other sample within the blind-zone radius of the
    image's camera (:func:`_blind_zone_radius`, too close for its footprint
    disc to fit the image; the distance is :func:`_norm`'s, in its axis
    order) is "blind"; the rest are checked in order by one footprint query
    (:func:`_verdicts`), each reading as its verdict's value ("free",
    "collision", "out_of_view"), and the first that is not free decides:
    every sample after it is "unchecked". With no image (depth None) every
    sample is "unchecked". Raises ValueError on an empty lookahead
    (degenerate trajectory).
    """
    if len(lookahead) == 0:
        raise ValueError("degenerate trajectory: no samples to check")
    reasons = []
    if depth is not None:
        points = np.asarray(lookahead, dtype=float)[1:]
        d = (points - depth.q.position).T
        seen = np.sqrt(_dot(d, d)) > _blind_zone_radius(depth.intr, robot)
        verdicts = _verdicts(points[seen], depth, robot)
        for checked in seen.tolist():
            reasons.append(next(verdicts).value if checked else "blind")
            if reasons[-1] not in (Verdict.FREE.value, "blind"):
                break
    return reasons + ["unchecked"] * (len(lookahead) - 1 - len(reasons))


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
    holds (parallel to the image plane); each ring's live candidates are
    one footprint query (:func:`_verdicts`), read in that fixed order. A
    direction is dropped from the live list once its candidate is
    OUT_OF_VIEW (its footprint is empty); the search is stuck when no
    direction is live or k exceeds max_rings.
    """
    d_l = real("d_l", d_l, positive=True)
    max_rings = integer("max_rings", max_rings, minimum=1)
    p_hit = np.asarray(p_hit, dtype=float)
    live = _DIRECTIONS @ depth.R_ws  # camera->world: R_ws.T per direction
    for k in range(1, max_rings + 1):
        candidates = p_hit + k * d_l * live
        kept = []
        for cand, v in zip(candidates, _verdicts(candidates, depth, robot)):
            if v is Verdict.FREE:
                return EscapeResult(cand)
            kept.append(v is not Verdict.OUT_OF_VIEW)
        live = live[kept]
        if not len(live):
            break
    return EscapeResult(None)
