"""The hallucinated robot in depth-image space: its footprint, the
collision classification of its positions, and the escape search.

A hallucinated robot position is compared against a scene depth image,
which carries the pose and intrinsics it was rendered from: the robot is
free only when its farthest-point footprint (:func:`_disc`, then
:func:`_footprint`), seen from that pose, is strictly in front of the
scene at every pixel it covers. The footprint is projected through the
rotation the image holds, so checks compute no rotation. Only a surface
nearer than the footprint's farthest depth can decide a check. A
lookahead's samples, and an escape ring's candidates, are checked by one
footprint query (:func:`_verdicts`): it finds every footprint's disc,
compares every footprint's rays up to its farthest depth against every
primitive at once, and casts only a footprint that some primitive can
reach, over the footprint's pixel box, building the disc mask only over
the rectangles it casts. :func:`check_configuration` is that query over
one position. Each verdict is a reason string: "free", "collision" or
"out_of_view". The image keeps its near depths and the pixel boxes of the
primitives a query reached for the next query; no cast depth is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import CameraIntrinsics, project
from .scene import DepthImage, RobotModel, _dot, _norm
from .validation import integer, real

__all__ = [
    "EscapeResult",
    "RobotFootprint",
    "check_configuration",
    "render_robot_footprint",
    "waypoints2collision",
    "find_escape",
]


@dataclass(frozen=True)
class EscapeResult:
    """Outcome of the escape search: a free world position, or stuck."""

    position: np.ndarray | None

    @property
    def stuck(self) -> bool:
        return self.position is None


@dataclass
class RobotFootprint:
    """Conservative pixel disc of a hallucinated robot plus its farthest depth.

    A footprint is either the whole disc, wholly inside the image, or
    empty: a robot whose disc leaves the image, or whose sphere reaches
    before z_near, has the empty box (0, 0, 0, 0) and is not in view.
    The disc is kept as its 1-D squared pixel-centre offsets from the disc
    centre, dy2 over the rows and dx2 over the columns of its tight
    half-open pixel rectangle box = (y0, y1, x0, x1), and its squared
    radius r2: pixel (iy, ix) is covered when dy2[iy - y0] + dx2[ix - x0]
    <= r2. :meth:`mask_over` builds that bool mask over any rectangle inside
    box, so a check builds it only where it casts:
    ``farther_than(box, mask_over, farthest_depth, prims)`` asks whether
    the scene lies beyond the farthest depth under the disc. Every covered
    pixel carries the same farthest-depth value (sphere model). ``pixels``
    lists the whole disc, built on read from ``mask_over(*box)``.
    """

    box: tuple
    dy2: np.ndarray
    dx2: np.ndarray
    r2: float
    farthest_depth: float

    @property
    def fully_in_view(self) -> bool:
        """Whether the disc lies wholly inside the image: its box is nonempty."""
        return self.box[0] < self.box[1]

    def mask_over(self, y0, y1, x0, x1) -> np.ndarray:
        """The disc's bool mask over the pixel rectangle [y0, y1) x [x0, x1),
        which lies inside box."""
        by, bx = self.box[0], self.box[2]
        return self.dy2[y0 - by : y1 - by, None] + self.dx2[None, x0 - bx : x1 - bx] <= self.r2

    @property
    def pixels(self) -> np.ndarray:
        """The covered pixels as an (N, 2) int array of (ix, iy), row-major."""
        iy, ix = np.nonzero(self.mask_over(*self.box))
        return np.stack([ix + self.box[2], iy + self.box[0]], axis=-1)


def render_robot_footprint(p, depth: DepthImage, robot: RobotModel) -> RobotFootprint:
    """Conservative pixel disc of the robot bounding sphere centered at p,
    seen from the pose of the depth image it is checked against, through
    the image's own rotation (:func:`_disc`, then :func:`_footprint`)."""
    center_s = (np.asarray(p, dtype=float) - depth.q.position) @ depth.R_ws.T
    return _footprint(*_disc(center_s.tolist(), depth.intr, robot.rho))


def _disc(center_s: list, intr: CameraIntrinsics, rho: float) -> tuple:
    """The footprint disc of a robot sphere of radius rho centred at the
    camera-frame point center_s (3 floats), in scalar arithmetic, as
    (far, box, disc): its farthest depth; the half-open pixel rectangle
    (y0, y1, x0, x1) of the pixels whose centres the disc's bounding square
    can hold, which holds the footprint's tight box; and disc = (rx, ry,
    pr), its pixel centre and radius. The empty footprint has box
    (0, 0, 0, 0) and disc None.

    The disc radius divides by (zc - rho), the nearest sphere depth, and is
    scaled by the view-ray secant so that every sphere surface point
    projects inside the disc even off-axis. farthest depth is zc + rho for
    all pixels. A sphere reaching before z_near, or a disc not wholly inside
    the image, gets the empty footprint.
    """
    zc = center_s[2]
    far = zc + rho
    if zc - rho < intr.z_near:
        return far, (0, 0, 0, 0), None
    rx, ry = project(center_s, intr)
    secant = _norm(center_s) / zc
    pr = max(intr.fsx, intr.fsy) * rho / (zc - rho) * secant
    if not ((rx - pr >= 0.0) and (rx + pr < intr.width) and (ry - pr >= 0.0) and (ry + pr < intr.height)):
        return far, (0, 0, 0, 0), None
    box = (math.floor(ry - pr), math.ceil(ry + pr) + 1, math.floor(rx - pr), math.ceil(rx + pr) + 1)
    return far, box, (rx, ry, pr)


def _footprint(far: float, box: tuple, disc) -> RobotFootprint:
    """The footprint of a disc from :func:`_disc`. It holds the pixels of box
    whose centers lie within the radius, kept as 1-D squared offsets, and
    its tight box is found from them in O(rows + cols): a row holds a
    covered pixel exactly when its offset plus the smallest column offset
    is within the radius (float addition is monotone), and likewise a
    column; no mask is built here. A sub-pixel disc keeps the pixel holding
    its center.
    """
    if disc is None:
        return RobotFootprint(box, np.empty(0), np.empty(0), 0.0, far)
    rx, ry, pr = disc
    iy_lo, iy_hi, ix_lo, ix_hi = box
    dx2 = (np.arange(ix_lo, ix_hi) + 0.5 - rx) ** 2
    dy2 = (np.arange(iy_lo, iy_hi) + 0.5 - ry) ** 2
    r2 = pr * pr
    rows = np.flatnonzero(dy2 + dx2.min() <= r2)
    if rows.size == 0:
        # sub-pixel disc: keep the pixel containing the center
        box, dy2, dx2 = (int(ry), int(ry) + 1, int(rx), int(rx) + 1), np.zeros(1), np.zeros(1)
    else:
        cols = np.flatnonzero(dx2 + dy2.min() <= r2)
        y0, y1, x0, x1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
        box = (iy_lo + y0, iy_lo + y1, ix_lo + x0, ix_lo + x1)
        dy2, dx2 = dy2[y0:y1], dx2[x0:x1]
    return RobotFootprint(box, dy2, dx2, r2, far)


def check_configuration(p, depth: DepthImage, robot: RobotModel) -> str:
    """Classify a hallucinated robot position against a scene depth image:
    the one-row footprint query (:func:`_verdicts`), the path a lookahead
    and an escape ring run. Returns "free", "collision" or "out_of_view".

    A footprint is the whole disc in view or empty; an empty one (the disc
    leaves the image, or the sphere reaches before z_near) is
    "out_of_view", and nothing else about it is read. Free requires the footprint
    farthest depth, seen from the image's pose through the image's
    rotation, to be strictly less than the scene depth at every covered
    pixel: the footprint's disc over its tight pixel box.
    """
    return next(_verdicts(np.asarray(p, dtype=float)[None], depth, robot))


def _verdicts(points, depth: DepthImage, robot: RobotModel):
    """Yield the verdict of each row of the (M, 3) world positions points
    against the image, in order, as its reason string ("free",
    "collision" or "out_of_view"): the one footprint query behind a
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
            yield "out_of_view"
        elif prims:
            fp = _footprint(far, box, disc)
            yield "free" if depth.farther_than(fp.box, fp.mask_over, far, prims) else "collision"
        else:  # farther_than's answer with nothing to walk
            yield "free" if far < np.float32(intr.max_depth) else "collision"


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
    (:func:`_verdicts`), each reading as its verdict ("free",
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
            reasons.append(next(verdicts) if checked else "blind")
            if reasons[-1] not in ("free", "blind"):
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
    the sample it has just found "collision" in the same image), so the
    search starts at ring 1. Candidates are placed at k*d_l (k = 1, 2, ...)
    along the image's camera-frame up, down, left and right directions,
    mapped to the world frame by one product with the rotation the image
    holds (parallel to the image plane); each ring's live candidates are
    one footprint query (:func:`_verdicts`), read in that fixed order. A
    direction is dropped from the live list once its candidate is
    "out_of_view" (its footprint is empty); the search is stuck when no
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
            if v == "free":
                return EscapeResult(cand)
            kept.append(v != "out_of_view")
        live = live[kept]
        if not len(live):
            break
    return EscapeResult(None)
