"""Analytic scene primitives, the synthetic depth camera, and the
hallucinated-robot footprint renderer.

Depth semantics: every stored value is the z-coordinate of the nearest
surface in the camera frame (stereo-camera convention), not the Euclidean
ray length. Pixels with no hit hold exactly max_depth.
"""

from __future__ import annotations

import functools
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .frames import (
    CameraIntrinsics,
    Configuration,
    project,
    world_to_camera_rotation,
)
from .validation import coerce, point, real

__all__ = [
    "Box",
    "Sphere",
    "Wall",
    "Scene",
    "DepthImage",
    "RobotModel",
    "RobotFootprint",
    "render_scene_depth",
    "render_robot_footprint",
    "write_pfm",
    "read_pfm",
]


def _dot(a, b) -> float:
    """Dot product of two 3-lists of floats, summed in axis order with no
    BLAS call, so its bits do not depend on the host's BLAS kernel."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(d) -> float:
    """Euclidean length of a 3-list of floats: the square root of
    :func:`_dot`, the one distance the oracle, the check and the planner
    share."""
    return math.sqrt(_dot(d, d))


def _first_crossing(t1, t2, hit, z_near) -> np.ndarray:
    """Per-ray depth of the first surface crossing at or beyond z_near of a
    ray entering at t1 and leaving at t2: t1 where it reaches z_near, else
    t2, and inf where hit is false or neither reaches z_near. Written into
    t2 and hit, and returns t2."""
    np.copyto(t2, t1, where=t1 >= z_near)
    hit &= t2 >= z_near
    np.copyto(t2, np.inf, where=np.logical_not(hit, out=hit))
    return t2


# The largest |coordinate| of any primitive, in metres: past about 1e35 m a
# box face loses half the frame to the pixel-box cull, and past about
# 1e154 m a sphere's squared radius overflows. Each primitive refuses to be
# built beyond it, whoever builds it.
_WORLD_LIMIT = 1e6


def _within_world(name: str, coords, value) -> None:
    """Raise ValueError naming field name, whose value is given, unless
    every one of coords lies within _WORLD_LIMIT of 0."""
    if max(map(abs, coords)) > _WORLD_LIMIT:
        raise ValueError(f"{name}: each coordinate must lie within {_WORLD_LIMIT:,.0f} m of the origin, "
                         f"got {value!r}")


# Primitive protocol (Box, Sphere, Wall): distance(p) for the oracle;
# intersect(origin, dirs, z_near), the per-ray depth of the nearest surface
# crossing at or beyond z_near (inf where none, never NaN) over the rays of
# one cast pixel rectangle, each with unit camera-z; bounds(), the
# world-frame AABB as (lo, hi); ball(), a world-frame ball holding the
# primitive, as (centre, radius).


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min/max corners (meters, world frame)."""

    min: tuple
    max: tuple

    def __post_init__(self):
        coerce(self, point, "min", "max")
        _within_world("min", self.min, self.min)
        _within_world("max", self.max, self.max)
        if not all(lo < hi for lo, hi in zip(self.min, self.max)):
            raise ValueError("min: must be strictly below max")

    @functools.cached_property
    def _lo(self) -> np.ndarray:
        return np.asarray(self.min, float)

    @functools.cached_property
    def _hi(self) -> np.ndarray:
        return np.asarray(self.max, float)

    def distance(self, p) -> float:
        p = np.asarray(p, float).tolist()
        return _norm([min(max(x, lo), hi) - x for x, lo, hi in zip(p, self.min, self.max)])

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        lo = self._lo - origin
        hi = self._hi - origin
        # one slab at a time, folded into t_near/t_far in axis order;
        # 0 * inf slab degeneracies (ray origin on a slab plane) become NaN,
        # and fmax/fmin ignore NaN, matching the unbounded-slab convention
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(3):
                inv = 1.0 / dirs[..., k]
                t1 = lo[k] * inv
                t2 = np.multiply(hi[k], inv, out=inv)
                slab_near = np.minimum(t1, t2)
                slab_far = np.maximum(t1, t2, out=t1)
                if k == 0:
                    t_near, t_far = slab_near, slab_far
                else:
                    np.fmax(t_near, slab_near, out=t_near)
                    np.fmin(t_far, slab_far, out=t_far)
        return _first_crossing(t_near, t_far, t_near <= t_far, z_near)

    def bounds(self):
        return np.asarray(self.min), np.asarray(self.max)

    def ball(self):
        return 0.5 * (self._lo + self._hi), 0.5 * math.dist(self.min, self.max)


@dataclass(frozen=True)
class Sphere:
    """Sphere obstacle (center meters, world frame)."""

    center: tuple
    radius: float

    def __post_init__(self):
        coerce(self, point, "center")
        coerce(self, real, "radius", positive=True)
        _within_world("center", self.center, self.center)
        _within_world("radius", np.concatenate(self.bounds()).tolist(), self.radius)

    @functools.cached_property
    def _center(self) -> np.ndarray:
        return np.asarray(self.center, float)

    def distance(self, p) -> float:
        d = _norm([x - c for x, c in zip(np.asarray(p, float).tolist(), self.center)])
        return max(d - self.radius, 0.0)

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        oc = origin - self._center
        dir_sq = np.einsum("...i,...i->...", dirs, dirs)
        b = dirs @ oc
        b *= 2.0
        cc = float(oc @ oc) - self.radius**2
        two_a = np.multiply(dir_sq, 2.0, out=dir_sq)
        # disc = b * b - 4.0 * dir_sq * cc, where 4.0 * dir_sq = 2.0 * two_a exactly
        disc = np.multiply(two_a, 2.0)
        disc *= cc
        bb = np.multiply(b, b)
        np.subtract(bb, disc, out=disc)
        sq = np.maximum(disc, 0.0)
        np.sqrt(sq, out=sq)
        # t1 = (-b - sq) / two_a and t2 = (-b + sq) / two_a
        neg_b = np.negative(b, out=b)
        t1 = np.subtract(neg_b, sq, out=bb)
        t1 /= two_a
        t2 = np.add(neg_b, sq, out=neg_b)
        t2 /= two_a
        return _first_crossing(t1, t2, disc >= 0.0, z_near)

    def bounds(self):
        return self._center - self.radius, self._center + self.radius

    def ball(self):
        return self._center, self.radius


@dataclass(frozen=True)
class Wall:
    """Finite rectangular wall: plane point, outward unit normal, half-extents.

    The two in-plane axes are derived deterministically from the normal.
    """

    point: tuple
    normal: tuple
    half_extents: tuple  # (hu, hv), meters

    def __post_init__(self):
        coerce(self, point, "point", "normal")
        coerce(self, point, "half_extents", n=2, positive=True)
        if abs(_norm(self.normal) - 1.0) > 1e-9:
            raise ValueError(f"normal: must be unit length, got {self.normal!r}")
        _within_world("point", self.point, self.point)
        with np.errstate(over="ignore"):  # corners past float's range are inf, and refused
            _within_world("half_extents", np.concatenate(self.bounds()).tolist(), self.half_extents)

    @functools.cached_property
    def _axes(self):
        n = np.asarray(self.normal, float)
        ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(ref, n)
        u /= _norm(u.tolist())
        v = np.cross(n, u)
        return u, v

    def distance(self, p) -> float:
        p = np.asarray(p, float).tolist()
        u, v = (a.tolist() for a in self._axes)
        hu, hv = self.half_extents
        rel = [x - o for x, o in zip(p, self.point)]
        cu, cv = min(max(_dot(rel, u), -hu), hu), min(max(_dot(rel, v), -hv), hv)
        return _norm([x - (o + cu * a + cv * b) for x, o, a, b in zip(p, self.point, u, v)])

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        origins = origin[None, None, :]
        p0 = np.asarray(self.point, float)
        n = np.asarray(self.normal, float)
        u, v = self._axes
        denom = dirs @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((p0 - origins) @ n) / denom
        hit_pt = origins + t[..., None] * dirs
        rel = hit_pt - p0
        in_rect = (np.abs(rel @ u) <= self.half_extents[0]) & (
            np.abs(rel @ v) <= self.half_extents[1]
        )
        # one plane crossing: it enters and leaves at t
        return _first_crossing(t, t, (np.abs(denom) > 1e-15) & in_rect, z_near)

    def bounds(self):
        u, v = self._axes
        p0 = np.asarray(self.point)
        hu, hv = self.half_extents
        corners = [p0 + su * hu * u + sv * hv * v for su in (-1, 1) for sv in (-1, 1)]
        return np.min(corners, axis=0), np.max(corners, axis=0)

    def ball(self):
        return np.asarray(self.point, float), math.hypot(*self.half_extents)


@dataclass(frozen=True)
class Scene:
    """Immutable list of obstacle primitives."""

    primitives: tuple = ()

    @functools.cached_property
    def _points(self) -> tuple:
        """The world-frame corners of every primitive's bounds() box followed
        by its ball() centre, (P, 9, 3), and its ball radius, (P,), stacked
        once per scene for every image's near depths and pixel boxes."""
        bounds = np.array([prim.bounds() for prim in self.primitives], float).reshape(-1, 2, 3)
        balls = [prim.ball() for prim in self.primitives]
        centres = np.array([c for c, _ in balls], float).reshape(-1, 1, 3)
        corners = np.where(_CORNERS, bounds[:, 1:], bounds[:, :1])
        return np.concatenate([corners, centres], axis=1), np.array([r for _, r in balls], float)


# How far a primitive's near depth may lie beyond a queried depth and the
# primitive still be intersected: far above the float32 spacing at any
# sensor range (about 1e-6 m at 10 m) and the float64 rounding of a hit
# against its bounds, so no primitive that can decide a query is skipped.
_NEAR_MARGIN = 1e-3


class DepthImage:
    """Per-pixel z-depth of the scene seen from pose q through intr,
    row-major float32, meters, ray-cast on demand.

    Nothing is cast on construction, and nothing a query casts is kept.
    Every read goes through one cast walk (:meth:`_walk`): ``values`` walks
    the whole frame once, on first read, and :meth:`farther_than` walks
    only its own rectangle and the primitives near enough to decide it.
    Which primitives a query walks (:meth:`reach`) is decided first by
    each primitive's camera-frame box (its near depth, :func:`_near_depths`,
    and the span of its corners; computed once per image), compared
    against the rays of any number of queries at once, and then by its
    pixel box: bounded by its bounds() box and, wholly beyond z_near, by its
    ball's silhouette (:func:`_pixel_boxes`), computed only for a primitive
    some query's rays can reach and kept with the image, so an image whose
    queries reach no primitive computes no box. Each primitive is cast
    only over its pixel box. A rectangle of more
    than _BAND_RAYS rays is cast in row bands (:func:`_bands`). No ray grid
    is kept: each cast slices the rays of its own rectangle from the
    image's 1-D column and row offsets (:func:`_pixel_rays`). R_ws is the
    rotation taking world coordinates into the image's camera frame,
    computed once per image: the rays, the pixel boxes, the near depths and
    the footprints checked against the image all use it.

    ``values`` is stored in PFM row order, bottom row first, and read top
    row first through a reversed view, so :func:`write_pfm` writes its
    buffer as is.
    """

    def __init__(self, scene: Scene, q: Configuration, intr: CameraIntrinsics):
        self.q = q
        self.intr = intr
        self._scene = scene
        self.R_ws = world_to_camera_rotation(q)
        self._kept_boxes = {}  # primitive index -> pixel box, once a query reaches it

    @functools.cached_property
    def values(self) -> np.ndarray:
        intr = self.intr
        # one buffer, bottom row first as a PFM stores it, read top row first
        values = np.full((intr.height, intr.width), intr.max_depth, np.float32)[::-1]
        every = range(len(self._scene.primitives))
        for a0, a1, b0, b1, hits in self._walk(every, 0, intr.height, 0, intr.width):
            # float32 rounding is monotone, so rounding each float64 minimum
            # gives the bits of rounding the minimum over all primitives
            view = values[a0:a1, b0:b1]
            np.minimum(view, hits, out=view, casting="same_kind")
        return values

    def reach(self, z, boxes) -> list:
        """The primitives each of M queries must walk, as lists of indices
        in scene order. Query i, at depth z[i] over the half-open pixel
        rectangle boxes[i] = (y0, y1, x0, x1), can be decided only by a hit
        in front of z[i] on a ray through the rectangle: it walks the
        primitives whose camera-frame box (:attr:`_extents`) meets the box
        of those rays from z_near to _NEAR_MARGIN beyond z[i]
        (:meth:`_ray_box`), which one (M, P) comparison tests for every
        pair, and whose pixel box meets its rectangle. Pixel boxes are
        computed only for the primitives the comparison keeps, all at once."""
        rays = np.array([self._ray_box(zi, box) for zi, box in zip(z, boxes)]).reshape(-1, 1, 6)
        rows = [[j for j, m in enumerate(row) if m] for row in (self._extents <= rays).all(axis=-1).tolist()]
        need = sorted(set().union(*rows))
        if not need:
            return rows
        pixel_boxes = dict(zip(need, self._boxes(need)))
        return [[j for j in row if _meets(box, pixel_boxes[j])] for row, box in zip(rows, boxes)]

    def _ray_box(self, z, box) -> tuple:
        """The camera-frame box holding every point at depth z_near to
        z + _NEAR_MARGIN on the rays through the pixel centres of the
        half-open rectangle box = (y0, y1, x0, x1), widened by _NEAR_MARGIN
        across the rays, which covers the rounding of any hit on them;
        empty for an empty rectangle. A ray's x and y are its x / z and
        y / z times its depth, and x / z and y / z grow with the pixel index,
        so the extremes lie on the first and last columns and rows at z_near
        or at the far depth. Given as the upper bounds
        then the negated lower bounds, (x_hi, y_hi, z_hi, -x_lo, -y_lo,
        -z_lo), so that one comparison against :attr:`_extents` tests
        both sides."""
        y0, y1, x0, x1 = box
        if not (y0 < y1 and x0 < x1):
            return (-math.inf,) * 6
        intr, near, far = self.intr, self.intr.z_near, z + _NEAR_MARGIN
        # the x / z of the first and last columns' rays, and y / z of the rows'
        u0, u1 = (x0 + 0.5 - intr.cx) / intr.fsx, (x1 - 0.5 - intr.cx) / intr.fsx
        v0, v1 = (y0 + 0.5 - intr.cy) / intr.fsy, (y1 - 0.5 - intr.cy) / intr.fsy
        return (max(u1 * near, u1 * far) + _NEAR_MARGIN, max(v1 * near, v1 * far) + _NEAR_MARGIN, far,
                _NEAR_MARGIN - min(u0 * near, u0 * far), _NEAR_MARGIN - min(v0 * near, v0 * far), math.inf)

    def farther_than(self, box, mask_over, z, prims=None) -> bool:
        """Whether the scene lies strictly beyond depth z at every pixel of
        a nonempty mask over the half-open pixel rectangle
        box = (y0, y1, x0, x1): ``np.all(z < values[y0:y1, x0:x1][mask])``,
        float32 comparison included, without casting the image. The mask
        is given as ``mask_over(a0, a1, b0, b1)``, which returns its bool
        mask over any rectangle [a0, a1) x [b0, b1) of image pixels inside
        box, and is asked only for the rectangles the query casts.

        A pixel with no hit holds max_depth, so z at or beyond it is never
        exceeded. Only the primitives in :meth:`reach` are walked (prims
        lists them when the caller has found them already), and the first
        band that reaches z decides."""
        intr = self.intr
        if not z < np.float32(intr.max_depth):
            return False
        if prims is None:
            prims = self.reach([z], [box])[0]
        for a0, a1, b0, b1, hits in self._walk(prims, *box):
            # clamped in float64 before rounding, as the cast rounds each
            # minimum: the same float32 bits, and no overflow past float32
            hit = np.minimum(hits[mask_over(a0, a1, b0, b1)], intr.max_depth)
            if not np.all(z < hit.astype(np.float32)):
                return False
        return True

    def _walk(self, prims, y0, y1, x0, x1):
        """The one cast walk behind every read of the image: for each
        primitive listed in prims (by index, in scene order), the rectangle
        [y0, y1) x [x0, x1) clipped to its pixel box, cast one row band at
        a time (:func:`_bands`), yielding (a0, a1, b0, b1, hits) per band
        [a0, a1) x [b0, b1) with the primitive's float64 depths there."""
        for i, (by0, by1, bx0, bx1) in zip(prims, self._boxes(prims)):
            b0, b1 = max(x0, bx0), min(x1, bx1)
            for a0, a1 in _bands(max(y0, by0), min(y1, by1), b0, b1):
                yield a0, a1, b0, b1, self._hits(self._scene.primitives[i], a0, a1, b0, b1)

    def _boxes(self, prims) -> list:
        """The pixel boxes of the primitives listed in prims, each computed
        in one pass with the others not yet known and kept."""
        kept = self._kept_boxes
        new = [i for i in prims if i not in kept]
        if new:
            kept.update(zip(new, _pixel_boxes(self._camera_points[new], self._scene._points[1][new], self.intr)))
        return [kept[i] for i in prims]

    @functools.cached_property
    def _extents(self) -> np.ndarray:
        """Each primitive's camera-frame box, which holds every hit of it:
        in x and y the span of its bounds() corners, in z from its near
        depth (:func:`_near_depths`) on. Given as the lower bounds then the
        negated upper bounds, (x_lo, y_lo, z_lo, -x_hi, -y_hi, -z_hi), (P, 6),
        as :meth:`_ray_box` gives the reverse."""
        cam = self._camera_points
        lo, hi = cam[:, :8].min(axis=1), cam[:, :8].max(axis=1)
        lo[:, 2] = _near_depths(lo[:, 2], hi[:, 2], cam[:, 8, 2] - self._scene._points[1], self.intr.z_near)
        hi[:, 2] = np.inf
        return np.concatenate([lo, -hi], axis=1)

    @functools.cached_property
    def _camera_points(self) -> np.ndarray:
        """Every primitive's bounds() corners and ball() centre in the
        camera frame, (P, 9, 3): one stacked product gives each primitive
        the bits of its own."""
        return (self._scene._points[0] - self.q.position) @ self.R_ws.T

    @functools.cached_property
    def _offsets(self) -> tuple:
        return _ray_offsets(self.intr)

    def _hits(self, prim, y0, y1, x0, x1) -> np.ndarray:
        """prim's float64 depth along the rays of a pixel rectangle."""
        dirs = _pixel_rays(self._offsets, y0, y1, x0, x1) @ self.R_ws  # camera->world: R_ws.T per ray
        return prim.intersect(self.q.position, dirs, self.intr.z_near)


@dataclass(frozen=True)
class RobotModel:
    """Pessimistic bounding sphere of the vehicle over all allowed tilts."""

    rho: float = 0.35

    def __post_init__(self):
        coerce(self, real, "rho", positive=True)


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
    ``farther_than(box, mask_over, farthest_depth)`` asks whether the scene
    lies beyond the farthest depth under the disc. Every covered pixel
    carries the same farthest-depth value (sphere model). ``pixels`` lists
    the whole disc, built on read from ``mask_over(*box)``.
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


def _ray_offsets(intr: CameraIntrinsics) -> tuple:
    """The 1-D camera-frame offsets of the pixel-centre rays: x over the
    columns and y over the rows of the frame."""
    cols = (np.arange(intr.width) + 0.5 - intr.cx) / intr.fsx
    rows = (np.arange(intr.height) + 0.5 - intr.cy) / intr.fsy
    return cols, rows


def _pixel_rays(offsets, y0, y1, x0, x1) -> np.ndarray:
    """Camera-frame ray directions through the pixel centers of the
    half-open rectangle [y0, y1) x [x0, x1), unit z component, sliced from
    the 1-D offsets of :func:`_ray_offsets`: each element is the value a
    whole-frame grid would hold at that pixel, and no grid is kept."""
    cols, rows = offsets
    rays = np.empty((y1 - y0, x1 - x0, 3))
    rays[..., 0] = cols[x0:x1]
    rays[..., 1] = rows[y0:y1, None]
    rays[..., 2] = 1.0
    return rays


# The most rays one cast takes: a larger rectangle is cast in row bands of
# at most this many rays (one row at least), so its rays, their world
# directions (192 KB each) and its per-ray temporaries (64 KB) are small
# enough for malloc to reuse from the heap; a whole 640x480 frame cast at
# once maps fresh pages and page-faults them in on every cast
_BAND_RAYS = 8192


def _meets(a, b) -> bool:
    """Whether two half-open pixel rectangles (y0, y1, x0, x1) share a pixel."""
    return max(a[0], b[0]) < min(a[1], b[1]) and max(a[2], b[2]) < min(a[3], b[3])


def _bands(y0, y1, x0, x1):
    """The row bands [a0, a1) in which the pixel rectangle [y0, y1) x
    [x0, x1) is cast, top to bottom, each of at most _BAND_RAYS rays or one
    row; none when the rectangle is empty."""
    if x0 < x1:
        step = max(_BAND_RAYS // (x1 - x0), 1)
        for a0 in range(y0, y1, step):
            yield a0, min(a0 + step, y1)


# the 8 corners of an axis-aligned box, as a choice of lo (False) or hi (True) per axis
_CORNERS = np.array([[i & 4, i & 2, i & 1] for i in range(8)], dtype=bool)
# its 12 edges, as pairs of corner indices that differ in one axis
_EDGES = np.array([(i, i | b) for i in range(8) for b in (1, 2, 4) if not i & b])
# a pixel box (y0, y1, x0, x1) from the floors of (v_min, -v_max, u_min, -u_max),
# and the lower clamps of those four
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
_PADS = np.array([-1.0, 2.0, -1.0, 2.0])
_CLAMP_LO = np.array([0.0, -np.inf, 0.0, -np.inf])
# the tangent root of each of (v_min, -v_max, u_min, -u_max): -sqrt or +sqrt
_ROOTS = np.array([-1.0, 1.0, -1.0, 1.0])


def _near_depths(z_lo, z_hi, ball_near, z_near) -> np.ndarray:
    """Each primitive's near depth, below which it has no hit, from the
    lowest and highest camera z of its bounds() corners and the nearest
    depth of its ball(): the smallest camera z of its bounds() box clipped
    at z = z_near, which is its nearest corner when the box lies wholly at
    or beyond z_near, z_near itself when the box straddles it (an edge
    crosses there) and inf when the box lies wholly before it; or the
    ball's nearest depth where that lies farther."""
    nears = np.where(z_lo >= z_near, z_lo, np.where(z_hi >= z_near, z_near, np.inf))
    return np.maximum(nears, ball_near, out=nears)


def _pixel_boxes(cam, radii, intr: CameraIntrinsics) -> list:
    """Half-open pixel rectangles (y0, y1, x0, x1), one per primitive given
    by its camera-frame bounds() corners and ball() centre, cam (P, 9, 3),
    and its ball radius, each holding every pixel whose ray can meet it at
    depth >= z_near, padded by a pixel for rounding; empty when the whole
    bounds() box lies before z_near. A rectangle bounds the projection of
    the bounds() box clipped at z = z_near: a box that straddles z_near
    projects its corners at or beyond z_near and the points where its edges
    cross z_near, the vertices of the clipped box, which holds every such
    hit. Where the primitive's ball() lies wholly beyond z_near, the
    rectangle is also bounded by the ball's silhouette, whose extremes are
    exact in closed form. The primitives are boxed in one array pass, and
    each box depends only on its own primitive's rows."""
    cam, ball = cam[:, :8], cam[:, 8]
    near = intr.z_near
    pts, keep = cam, cam[..., 2] >= near
    ends = keep[:, _EDGES]  # (P, 12, 2): each edge end at or beyond z_near
    cross = ends[..., 0] != ends[..., 1]  # only a straddling box's edges cross
    if cross.any():
        ab = cam[:, _EDGES]
        a, b = ab[:, :, 0], ab[:, :, 1]
        # divided only where an edge crosses, so no end pair is 0 / 0
        s = np.divide(near - a[..., 2:], b[..., 2:] - a[..., 2:], out=np.zeros(cross.shape + (1,)),
                      where=cross[..., None])
        cut = a + s * (b - a)
        cut[..., 2] = near
        pts = np.concatenate([cam, cut], axis=1)
        keep = np.concatenate([keep, cross], axis=1)
    # each vertex's image coordinates as (v, -v, u, -u), so one minimum gives
    # both extremes (negation is exact); the principal point is added last,
    # which rounds the same because adding is monotone. Pixel
    # ix's ray passes through u = ix + 0.5. A dropped vertex, which may lie
    # at z <= 0, is not divided and stays inf.
    fy, fx, cy, cx = intr.fsy, intr.fsx, intr.cy - 0.5, intr.cx - 0.5
    ext = np.full(keep.shape + (4,), np.inf)
    np.divide(pts[..., [1, 1, 0, 0]] * (fy, -fy, fx, -fx), pts[..., 2:], out=ext, where=keep[..., None])
    ext = ext.min(axis=1)
    # a ball (x, y, z) of radius r wholly beyond z_near: x / z over it spans
    # the two tangent planes through the camera centre,
    # u = (x z -+ r sqrt(x^2 + z^2 - r^2)) / (z^2 - r^2), and y / z likewise;
    # the tighter of each extreme is kept, as a maximum of (v_min, -v_max,
    # u_min, -u_max)
    beyond = ball[:, 2] - radii > near
    if beyond.any():
        c, r = ball[beyond], radii[beyond, None]
        xy, z = c[:, [1, 1, 0, 0]], c[:, 2:]
        d = z * z - r * r
        tangent = (xy * z + r * np.sqrt(xy * xy + d) * _ROOTS) * (fy, -fy, fx, -fx) / d
        ext[beyond] = np.maximum(ext[beyond], tangent)
    ext += (cy, -cy, cx, -cx)
    # floor(v_min) - 1 and ceil(v_max) + 2 = 2 - floor(-v_max), likewise for u
    boxes = np.floor(ext, out=ext) * _SIGNS + _PADS  # (y0, y1, x0, x1)
    np.maximum(boxes, _CLAMP_LO, out=boxes)
    np.minimum(boxes, (np.inf, intr.height, np.inf, intr.width), out=boxes)
    boxes[np.isinf(boxes[:, 0])] = 0  # nothing kept: wholly before z_near
    return list(map(tuple, boxes.astype(int).tolist()))


def render_scene_depth(scene: Scene, q: Configuration, intr: CameraIntrinsics) -> DepthImage:
    """Depth image of the scene from configuration q, ray-cast on demand.

    Depth is the smallest camera-frame z >= z_near over all primitive
    intersections along each pixel ray, clamped to max_depth; max_depth
    where nothing is hit. Each primitive is intersected only with the rays
    of its pixel box (:func:`_pixel_boxes`: its bounds clipped at the near
    plane, and the silhouette of its bounding ball where that lies wholly
    beyond the near plane), so a primitive the camera is passing casts only
    the frame edge it reaches and a sphere only the rays near its disc,
    with the same bits as an unculled cast. A depth-bounded query
    (:meth:`DepthImage.farther_than`) further skips every primitive that
    its rays cannot reach in front of its depth (:meth:`DepthImage.reach`)
    and casts only its own rectangle, stopping at the first row band that
    decides; ``values`` casts the whole frame once. Deterministic.
    """
    return DepthImage(scene, q, intr)


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


def write_pfm(path, values: np.ndarray) -> None:
    """Write a (height, width) depth array as a grayscale PFM: 'Pf',
    width height, scale -1.0, little-endian float32 rows bottom-up.

    An existing file is overwritten in place, then cut to the bytes written
    if it was longer: opening with O_TRUNC would free every block of the
    old file only for the write to allocate them again. Like a truncating
    write it is not atomic; a reader during the write may see old bytes."""
    height, width = values.shape
    # DepthImage.values is a reversed view of a bottom-up buffer: written
    # as is; any other array is copied once
    rows = np.ascontiguousarray(np.flipud(values), dtype="<f4")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode("ascii"))
        f.write(rows)
        # only a regular file can be cut: /dev/null or a pipe cannot
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > f.tell():
            f.truncate()


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a (height, width) float32 array, top row
    first. Raises ValueError on a size line that is not two positive
    integers, on a scale line that is not a finite nonzero number (its sign
    gives the byte order) and on a payload that is not exactly width x
    height floats."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError("not a grayscale PFM file")
        size = f.readline().split()
        if len(size) != 2 or not all(v.isdigit() and int(v) > 0 for v in size):
            raise ValueError(f"PFM size line must be two positive integers (width height), got {b' '.join(size)!r}")
        w, h = map(int, size)
        # the scale's sign gives the byte order: zero, NaN or no number gives none
        try:
            scale = float(scale_line := f.readline().strip())
        except ValueError:
            scale = math.nan
        if not (math.isfinite(scale) and scale != 0.0):
            raise ValueError(f"PFM scale line must be a finite nonzero number, got {scale_line!r}")
        # what the file holds, never the size line's claim: a bogus size
        # allocates nothing before it is rejected
        payload = f.read()
    want = w * h * 4
    if len(payload) != want:
        raise ValueError(f"PFM payload holds {len(payload)} bytes, expected {want} for {w}x{h} float32 values")
    data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4", count=w * h)
    return np.ascontiguousarray(np.flipud(data.reshape(h, w)), dtype=np.float32)
