"""Analytic scene primitives, the synthetic depth camera, and the
hallucinated-robot footprint renderer.

Depth semantics: every stored value is the z-coordinate of the nearest
surface in the camera frame (stereo-camera convention), not the Euclidean
ray length. Pixels with no hit hold exactly max_depth.
"""

from __future__ import annotations

import functools
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


# Primitive protocol (Box, Sphere, Wall): distance(p) for the oracle;
# intersect(origin, dirs, z_near), the per-ray depth of the nearest surface
# crossing at or beyond z_near (inf where none, never NaN) over the rays of
# one cast pixel rectangle, each with unit camera-z; bounds(), the
# world-frame AABB as (lo, hi).


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min/max corners (meters, world frame)."""

    min: tuple
    max: tuple

    def __post_init__(self):
        coerce(self, point, "min", "max")
        if not np.all(np.asarray(self.min) < self.max):
            raise ValueError("min: must be strictly below max")

    def distance(self, p) -> float:
        lo = np.asarray(self.min, float)
        hi = np.asarray(self.max, float)
        closest = np.clip(np.asarray(p, float), lo, hi)
        return float(np.linalg.norm(closest - p))

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        lo = np.asarray(self.min, float) - origin
        hi = np.asarray(self.max, float) - origin
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
        hit = t_near <= t_far
        first = np.where(t_near >= z_near, t_near, t_far)
        return np.where(hit & (first >= z_near), first, np.inf)

    def bounds(self):
        return np.asarray(self.min), np.asarray(self.max)


@dataclass(frozen=True)
class Sphere:
    """Sphere obstacle (center meters, world frame)."""

    center: tuple
    radius: float

    def __post_init__(self):
        coerce(self, point, "center")
        coerce(self, real, "radius", positive=True)

    def distance(self, p) -> float:
        d = float(np.linalg.norm(np.asarray(p, float) - np.asarray(self.center, float)))
        return max(d - self.radius, 0.0)

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        c = np.asarray(self.center, float)
        oc = origin - c
        dir_sq = np.einsum("...i,...i->...", dirs, dirs)
        b = 2.0 * (dirs @ oc)
        cc = float(oc @ oc) - self.radius**2
        disc = b * b - 4.0 * dir_sq * cc
        sq = np.sqrt(np.maximum(disc, 0.0))
        t1 = (-b - sq) / (2.0 * dir_sq)
        t2 = (-b + sq) / (2.0 * dir_sq)
        first = np.where(t1 >= z_near, t1, t2)
        return np.where((disc >= 0.0) & (first >= z_near), first, np.inf)

    def bounds(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius


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
        if abs(np.linalg.norm(self.normal) - 1.0) > 1e-9:
            raise ValueError(f"normal: must be unit length, got {self.normal!r}")

    def axes(self):
        n = np.asarray(self.normal, float)
        ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(ref, n)
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        return u, v

    def distance(self, p) -> float:
        p = np.asarray(p, float)
        p0 = np.asarray(self.point, float)
        u, v = self.axes()
        rel = p - p0
        cu = np.clip(rel @ u, -self.half_extents[0], self.half_extents[0])
        cv = np.clip(rel @ v, -self.half_extents[1], self.half_extents[1])
        closest = p0 + cu * u + cv * v
        return float(np.linalg.norm(p - closest))

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        origins = origin[None, None, :]
        p0 = np.asarray(self.point, float)
        n = np.asarray(self.normal, float)
        u, v = self.axes()
        denom = dirs @ n
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((p0 - origins) @ n) / denom
        hit_pt = origins + t[..., None] * dirs
        rel = hit_pt - p0
        in_rect = (np.abs(rel @ u) <= self.half_extents[0]) & (
            np.abs(rel @ v) <= self.half_extents[1]
        )
        ok = (np.abs(denom) > 1e-15) & (t >= z_near) & in_rect
        return np.where(ok, t, np.inf)

    def bounds(self):
        u, v = self.axes()
        p0 = np.asarray(self.point)
        hu, hv = self.half_extents
        corners = [p0 + su * hu * u + sv * hv * v for su in (-1, 1) for sv in (-1, 1)]
        return np.min(corners, axis=0), np.max(corners, axis=0)


@dataclass(frozen=True)
class Scene:
    """Immutable list of obstacle primitives."""

    primitives: tuple = ()

    @functools.cached_property
    def _corners(self) -> np.ndarray:
        """The world-frame corners of every primitive's bounds() box, (P, 8, 3),
        stacked once per scene for :func:`_pixel_boxes`."""
        bounds = np.array([prim.bounds() for prim in self.primitives], float).reshape(-1, 2, 3)
        return np.where(_CORNERS, bounds[:, 1:], bounds[:, :1])


# How far a primitive's near depth may lie beyond a queried depth and the
# primitive still be intersected: far above the float32 spacing at any
# sensor range (about 1e-6 m at 10 m) and the float64 rounding of a hit
# against its bounds, so no primitive that can decide a query is skipped.
_NEAR_MARGIN = 1e-3


class DepthImage:
    """Per-pixel z-depth of the scene seen from pose q through intr,
    row-major float32, meters, ray-cast on demand.

    Nothing is cast on construction, and nothing a query casts is kept:
    :meth:`farther_than` intersects only the primitives near enough to
    decide it, over its own rectangle, and ``values`` is one full cast,
    made on first read. No ray grid is kept, per image or per camera: each
    cast builds the rays of its own rectangle (:func:`_pixel_rays`). R_ws
    is the rotation taking world coordinates into the image's camera
    frame, computed once per image: the rays, the pixel boxes and the
    footprints checked against the image all use it.

    ``values`` is stored in PFM row order, bottom row first, and read top
    row first through a reversed view, so :func:`write_pfm` writes its
    buffer as is.
    """

    def __init__(self, scene: Scene, q: Configuration, intr: CameraIntrinsics):
        self.q = q
        self.intr = intr
        self._scene = scene
        self.R_ws = world_to_camera_rotation(q)

    @functools.cached_property
    def values(self) -> np.ndarray:
        intr = self.intr
        # one buffer, bottom row first as a PFM stores it, read top row first
        values = np.full((intr.height, intr.width), intr.max_depth, np.float32)[::-1]
        boxes, _ = self._boxes
        for prim, (y0, y1, x0, x1) in zip(self._scene.primitives, boxes):
            if y0 < y1 and x0 < x1:
                # float32 rounding is monotone, so rounding each float64 minimum
                # gives the bits of rounding the minimum over all primitives
                view = values[y0:y1, x0:x1]
                np.minimum(view, self._hits(prim, y0, y1, x0, x1), out=view, casting="same_kind")
        return values

    def farther_than(self, box, mask_over, z) -> bool:
        """Whether the scene lies strictly beyond depth z at every pixel of
        a nonempty mask over the half-open pixel rectangle
        box = (y0, y1, x0, x1): ``np.all(z < values[y0:y1, x0:x1][mask])``,
        float32 comparison included, without casting the image. The mask
        is given as ``mask_over(a0, a1, b0, b1)``, which returns its bool
        mask over any rectangle [a0, a1) x [b0, b1) of image pixels inside
        box, and is asked only for the rectangles the query casts.

        A pixel with no hit holds max_depth, so z at or beyond it is never
        exceeded. A primitive whose near depth lies more than _NEAR_MARGIN
        beyond z cannot hit in front of z and is skipped; each other one is
        intersected over the rectangle inside its pixel box, and the first
        that reaches z decides."""
        intr = self.intr
        if not z < np.float32(intr.max_depth):
            return False
        y0, y1, x0, x1 = box
        reach = z + _NEAR_MARGIN
        boxes, nears = self._boxes
        for prim, (by0, by1, bx0, bx1), near in zip(self._scene.primitives, boxes, nears):
            a0, a1, b0, b1 = max(y0, by0), min(y1, by1), max(x0, bx0), min(x1, bx1)
            if near > reach or a0 >= a1 or b0 >= b1:
                continue
            # clamped in float64 before rounding, as the cast rounds each
            # minimum: the same float32 bits, and no overflow past float32
            hit = np.minimum(self._hits(prim, a0, a1, b0, b1)[mask_over(a0, a1, b0, b1)], intr.max_depth)
            if not np.all(z < hit.astype(np.float32)):
                return False
        return True

    @functools.cached_property
    def _boxes(self) -> tuple:
        return _pixel_boxes(self._scene, self.q.position, self.R_ws, self.intr)

    def _hits(self, prim, y0, y1, x0, x1) -> np.ndarray:
        """prim's float64 depth along the rays of a pixel rectangle."""
        dirs = _pixel_rays(self.intr, y0, y1, x0, x1) @ self.R_ws  # camera->world: R_ws.T per ray
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
    fully_in_view: bool
    center_pixel: tuple | None = None
    pixel_radius: float = 0.0

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


def _pixel_rays(intr: CameraIntrinsics, y0, y1, x0, x1) -> np.ndarray:
    """Camera-frame ray directions through the pixel centers of the
    half-open rectangle [y0, y1) x [x0, x1), unit z component, built for
    that rectangle alone from its 1-D column and row offsets: each element
    is the value a whole-frame grid would hold at that pixel, and no grid
    is kept per camera."""
    rays = np.empty((y1 - y0, x1 - x0, 3))
    rays[..., 0] = (np.arange(x0, x1) + 0.5 - intr.cx) / intr.fsx
    rays[..., 1] = ((np.arange(y0, y1) + 0.5 - intr.cy) / intr.fsy)[:, None]
    rays[..., 2] = 1.0
    return rays


# the 8 corners of an axis-aligned box, as a choice of lo (False) or hi (True) per axis
_CORNERS = np.array([[i & 4, i & 2, i & 1] for i in range(8)], dtype=bool)
# its 12 edges, as pairs of corner indices that differ in one axis
_EDGES = np.array([(i, i | b) for i in range(8) for b in (1, 2, 4) if not i & b])
# a pixel box (y0, y1, x0, x1) from the floors of (v_min, -v_max, u_min, -u_max),
# and the lower clamps of those four
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
_PADS = np.array([-1.0, 2.0, -1.0, 2.0])
_CLAMP_LO = np.array([0.0, -np.inf, 0.0, -np.inf])


def _pixel_boxes(scene: Scene, origin, R_ws, intr: CameraIntrinsics) -> tuple:
    """Half-open pixel rectangles (y0, y1, x0, x1), one per primitive, each
    holding every pixel whose ray can meet it at depth >= z_near: the
    projection of its bounds() box clipped at z = z_near, padded by a pixel
    for rounding; empty when the whole box lies before z_near. A box that
    straddles z_near projects its corners at or beyond z_near and the points
    where its edges cross z_near: the vertices of the clipped box, which
    holds every such hit. Also each primitive's near depth, the smallest
    camera z of those vertices, below which it has no hit (inf when the
    box is empty). All primitives are boxed in one array pass over the
    scene's stacked corners."""
    cam = (scene._corners - origin) @ R_ws.T  # (P, 8, 3)
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
    # both extremes (negation is exact); the principal point is added after
    # the minimum, which rounds the same because adding is monotone. Pixel
    # ix's ray passes through u = ix + 0.5. A dropped vertex, which may lie
    # at z <= 0, is not divided and stays inf.
    fy, fx, cy, cx = intr.fsy, intr.fsx, intr.cy - 0.5, intr.cx - 0.5
    ext = np.full(keep.shape + (4,), np.inf)
    np.divide(pts[..., [1, 1, 0, 0]] * (fy, -fy, fx, -fx), pts[..., 2:], out=ext, where=keep[..., None])
    ext = ext.min(axis=1) + (cy, -cy, cx, -cx)
    # floor(v_min) - 1 and ceil(v_max) + 2 = 2 - floor(-v_max), likewise for u
    boxes = np.floor(ext, out=ext) * _SIGNS + _PADS  # (y0, y1, x0, x1)
    np.maximum(boxes, _CLAMP_LO, out=boxes)
    np.minimum(boxes, (np.inf, intr.height, np.inf, intr.width), out=boxes)
    boxes[np.isinf(boxes[:, 0])] = 0  # nothing kept: wholly before z_near
    nears = np.where(keep, pts[..., 2], np.inf).min(axis=1)
    return list(map(tuple, boxes.astype(int).tolist())), nears.tolist()


def render_scene_depth(scene: Scene, q: Configuration, intr: CameraIntrinsics) -> DepthImage:
    """Depth image of the scene from configuration q, ray-cast on demand.

    Depth is the smallest camera-frame z >= z_near over all primitive
    intersections along each pixel ray, clamped to max_depth; max_depth
    where nothing is hit. Each primitive is intersected only with the rays
    of its pixel box (:func:`_pixel_boxes`, its bounds clipped at the near
    plane), so a primitive the camera is passing casts only the frame edge
    it reaches, with the same bits as an unculled cast. A depth-bounded
    query (:meth:`DepthImage.farther_than`) further skips every primitive
    whose near depth lies beyond its depth and casts only its own
    rectangle; ``values`` casts the whole frame once.
    Deterministic.
    """
    return DepthImage(scene, q, intr)


def render_robot_footprint(p, depth: DepthImage, robot: RobotModel) -> RobotFootprint:
    """Conservative pixel disc of the robot bounding sphere centered at p,
    seen from the pose of the depth image it is checked against, through
    the image's own rotation (no rotation is computed per footprint).

    The disc radius divides by (zc - rho), the nearest sphere depth, and is
    scaled by the view-ray secant so that every sphere surface point projects
    inside the disc even off-axis. farthest depth is zc + rho for all pixels.
    The disc holds the in-image pixels whose centers lie within the radius.
    It is kept as 1-D squared offsets, and its tight box is found from them
    in O(rows + cols): a row holds a covered pixel exactly when its offset
    plus the smallest column offset is within the radius (float addition is
    monotone), and likewise a column; no mask is built here. A sub-pixel
    disc keeps the pixel holding its center, and a sphere reaching before
    z_near has an empty box.
    """
    intr = depth.intr
    center_s = (np.asarray(p, dtype=float) - depth.q.position) @ depth.R_ws.T
    zc = float(center_s[2])
    rho = robot.rho
    far = zc + rho
    if zc - rho < intr.z_near:
        return RobotFootprint((0, 0, 0, 0), np.empty(0), np.empty(0), 0.0, far, False)
    r = project(center_s, intr)
    secant = float(np.linalg.norm(center_s)) / zc
    pr = max(intr.fsx, intr.fsy) * rho / (zc - rho) * secant
    rx, ry = r
    in_view = (rx - pr >= 0.0) and (rx + pr < intr.width) and (ry - pr >= 0.0) and (ry + pr < intr.height)
    ix_lo = max(int(np.floor(rx - pr)), 0)
    ix_hi = min(int(np.ceil(rx + pr)), intr.width - 1)
    iy_lo = max(int(np.floor(ry - pr)), 0)
    iy_hi = min(int(np.ceil(ry + pr)), intr.height - 1)
    dx2 = (np.arange(ix_lo, ix_hi + 1) + 0.5 - rx) ** 2
    dy2 = (np.arange(iy_lo, iy_hi + 1) + 0.5 - ry) ** 2
    r2 = pr * pr
    rows = np.flatnonzero(dy2 + dx2.min(initial=np.inf) <= r2)  # none when the box is empty
    if rows.size == 0:
        # sub-pixel disc: keep the pixel containing the center
        cx_i = min(max(int(rx), 0), intr.width - 1)
        cy_i = min(max(int(ry), 0), intr.height - 1)
        box, dy2, dx2 = (cy_i, cy_i + 1, cx_i, cx_i + 1), np.zeros(1), np.zeros(1)
    else:
        cols = np.flatnonzero(dx2 + dy2.min() <= r2)
        y0, y1, x0, x1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
        box = (iy_lo + y0, iy_lo + y1, ix_lo + x0, ix_lo + x1)
        dy2, dx2 = dy2[y0:y1], dx2[x0:x1]
    return RobotFootprint(box, dy2, dx2, r2, far, bool(in_view), (rx, ry), pr)


def write_pfm(path, values: np.ndarray) -> None:
    """Write a (height, width) depth array as a grayscale PFM: 'Pf',
    width height, scale -1.0, little-endian float32 rows bottom-up."""
    height, width = values.shape
    # DepthImage.values is a reversed view of a bottom-up buffer: written
    # as is; any other array is copied once
    rows = np.ascontiguousarray(np.flipud(values), dtype="<f4")
    with open(path, "wb") as f:
        f.write(f"Pf\n{width} {height}\n-1.0\n".encode("ascii"))
        f.write(rows)


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a (height, width) float32 array, top row
    first. Raises ValueError on a size line that is not two positive
    integers and on a payload shorter than width x height floats."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError("not a grayscale PFM file")
        size = f.readline().split()
        if len(size) != 2 or not all(v.isdigit() and int(v) > 0 for v in size):
            raise ValueError(f"PFM size line must be two positive integers (width height), got {b' '.join(size)!r}")
        w, h = map(int, size)
        scale = float(f.readline())
        # what the file holds, never the size line's claim: a bogus size
        # allocates nothing before it is rejected
        payload = f.read()
    want = w * h * 4
    if len(payload) < want:
        raise ValueError(f"PFM payload holds {len(payload)} bytes, expected {want} for {w}x{h} float32 values")
    data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4", count=w * h)
    return np.ascontiguousarray(np.flipud(data.reshape(h, w)), dtype=np.float32)
