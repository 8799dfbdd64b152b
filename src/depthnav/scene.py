"""Analytic scene primitives, the synthetic depth camera, and the
hallucinated-robot footprint renderer.

Depth semantics: every stored value is the z-coordinate of the nearest
surface in the camera frame (stereo-camera convention), not the Euclidean
ray length. Pixels with no hit hold exactly max_depth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frames import (
    CameraIntrinsics,
    Configuration,
    project,
    world_to_camera,
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
# crossing at or beyond z_near (inf where none, never NaN) over a ray grid
# with unit camera-z; bounds(), the world-frame AABB as (lo, hi).


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by min/max corners (meters, world frame)."""

    min_corner: tuple
    max_corner: tuple

    def __post_init__(self):
        coerce(self, point, "min_corner", "max_corner")
        if not np.all(np.asarray(self.min_corner) < self.max_corner):
            raise ValueError("min_corner: must be strictly below max_corner")

    def distance(self, p) -> float:
        lo = np.asarray(self.min_corner, float)
        hi = np.asarray(self.max_corner, float)
        closest = np.clip(np.asarray(p, float), lo, hi)
        return float(np.linalg.norm(closest - p))

    def intersect(self, origin, dirs, z_near) -> np.ndarray:
        lo = np.asarray(self.min_corner, float)
        hi = np.asarray(self.max_corner, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_dirs = 1.0 / dirs
            t1 = (lo - origin) * inv_dirs
            t2 = (hi - origin) * inv_dirs
            lo_t = np.minimum(t1, t2)
            hi_t = np.maximum(t1, t2)
        # 0 * inf slab degeneracies (ray origin on a slab plane) become NaN;
        # fmax/fmin ignore NaN, matching the unbounded-slab convention
        t_near = np.fmax(np.fmax(lo_t[..., 0], lo_t[..., 1]), lo_t[..., 2])
        t_far = np.fmin(np.fmin(hi_t[..., 0], hi_t[..., 1]), hi_t[..., 2])
        hit = t_near <= t_far
        first = np.where(t_near >= z_near, t_near, t_far)
        return np.where(hit & (first >= z_near), first, np.inf)

    def bounds(self):
        return np.asarray(self.min_corner), np.asarray(self.max_corner)


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


class DepthImage:
    """Per-pixel z-depth of the scene, row-major float32, meters.

    ``DepthImage(values)`` holds a finished image. The image
    :func:`render_scene_depth` returns has cast nothing yet: :meth:`at`
    casts the pixels it reads, once, and ``values`` casts the rest.
    """

    def __init__(self, values, cast=None):
        self._values = np.ascontiguousarray(values, dtype=np.float32)
        # cast(out, y0, x0) writes the depth of the pixel rectangle whose top
        # left is (y0, x0) into out, a view of values; when given, values is
        # only the buffer the casts fill
        self._cast = cast
        self._unknown = None if cast is None else np.ones(self._values.shape, bool)

    @property
    def values(self) -> np.ndarray:
        if self._unknown is not None:
            self._fill(0, self.height, 0, self.width)
            self._cast = self._unknown = None
        return self._values

    def at(self, iy, ix) -> np.ndarray:
        """Depth at the pixels (iy[k], ix[k]), cast on first read."""
        if self._unknown is not None and len(iy):
            self._fill(int(np.min(iy)), int(np.max(iy)) + 1, int(np.min(ix)), int(np.max(ix)) + 1)
        return self._values[iy, ix]

    def _fill(self, y0, y1, x0, x1) -> None:
        """Cast the bounding rectangle of the rectangle's unknown pixels."""
        todo = self._unknown[y0:y1, x0:x1]
        rows = np.flatnonzero(todo.any(axis=1))
        if rows.size == 0:
            return
        cols = np.flatnonzero(todo.any(axis=0))
        y0, y1, x0, x1 = y0 + rows[0], y0 + rows[-1] + 1, x0 + cols[0], x0 + cols[-1] + 1
        self._cast(self._values[y0:y1, x0:x1], y0, x0)
        self._unknown[y0:y1, x0:x1] = False

    @property
    def width(self) -> int:
        return self._values.shape[1]

    @property
    def height(self) -> int:
        return self._values.shape[0]


@dataclass(frozen=True)
class RobotModel:
    """Pessimistic bounding sphere of the vehicle over all allowed tilts."""

    rho: float = 0.35

    def __post_init__(self):
        coerce(self, real, "rho", positive=True)


@dataclass
class RobotFootprint:
    """Conservative pixel disc of a hallucinated robot plus its farthest depth.

    pixels is an (N, 2) int array of (ix, iy) image indices; every listed
    pixel carries the same farthest-depth value (sphere model).
    """

    pixels: np.ndarray
    farthest_depth: float
    fully_in_view: bool
    center_pixel: tuple | None = None
    pixel_radius: float = 0.0


@functools.lru_cache(maxsize=None)
def _pixel_rays(intr: CameraIntrinsics) -> np.ndarray:
    """Camera-frame ray directions through pixel centers, unit z component."""
    xs = (np.arange(intr.width) + 0.5 - intr.cx) / intr.fsx
    ys = (np.arange(intr.height) + 0.5 - intr.cy) / intr.fsy
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx, gy, np.ones_like(gx)], axis=-1)


# the 8 corners of an axis-aligned box, as a choice of lo (False) or hi (True) per axis
_CORNERS = np.array([[i & 4, i & 2, i & 1] for i in range(8)], dtype=bool)


def _pixel_box(prim, origin, R_ws, intr: CameraIntrinsics):
    """Half-open pixel rectangle (y0, y1, x0, x1) holding every pixel whose
    ray can meet prim at depth >= z_near: the projection of its bounds()
    corners padded by a pixel for rounding; the full frame when a corner
    lies at or before z_near, and empty when all of them lie before it."""
    lo, hi = prim.bounds()
    cam = (np.where(_CORNERS, hi, lo) - origin) @ R_ws.T
    z = cam[:, 2]
    z_min, z_max = z.min(), z.max()
    if z_max < intr.z_near:
        return 0, 0, 0, 0
    if z_min <= intr.z_near:
        return 0, intr.height, 0, intr.width
    # pixel ix's ray passes through image coordinate u = ix + 0.5
    u = intr.fsx * cam[:, 0] / z + (intr.cx - 0.5)
    v = intr.fsy * cam[:, 1] / z + (intr.cy - 0.5)
    return (
        max(math.floor(v.min()) - 1, 0),
        min(math.ceil(v.max()) + 2, intr.height),
        max(math.floor(u.min()) - 1, 0),
        min(math.ceil(u.max()) + 2, intr.width),
    )


def render_scene_depth(scene: Scene, q: Configuration, intr: CameraIntrinsics) -> DepthImage:
    """Depth image of the scene from configuration q, ray-cast on demand.

    Depth is the smallest camera-frame z >= z_near over all primitive
    intersections along each pixel ray, clamped to max_depth; max_depth
    where nothing is hit. Each primitive is intersected only with the rays
    of its pixel box (:func:`_pixel_box`) that a read asks for, so only
    the pixels read are cast, with the same bits as a full-frame cast.
    Deterministic.
    """
    R_ws = world_to_camera_rotation(q)
    origin = q.position
    boxes = None

    def cast(out, y0, x0):
        nonlocal boxes
        if boxes is None:
            boxes = [_pixel_box(prim, origin, R_ws, intr) for prim in scene.primitives]
        y1, x1 = y0 + out.shape[0], x0 + out.shape[1]
        out[...] = intr.max_depth
        for prim, (by0, by1, bx0, bx1) in zip(scene.primitives, boxes):
            a0, a1, b0, b1 = max(y0, by0), min(y1, by1), max(x0, bx0), min(x1, bx1)
            if a0 >= a1 or b0 >= b1:
                continue
            dirs = _pixel_rays(intr)[a0:a1, b0:b1] @ R_ws  # camera->world: R_ws.T per ray
            t = prim.intersect(origin, dirs, intr.z_near)
            # float32 rounding is monotone, so rounding each float64 minimum
            # gives the bits of rounding the minimum over all primitives
            view = out[a0 - y0 : a1 - y0, b0 - x0 : b1 - x0]
            np.minimum(view, t, out=view, casting="same_kind")

    return DepthImage(np.empty((intr.height, intr.width), np.float32), cast)


def render_robot_footprint(
    p, q_c: Configuration, robot: RobotModel, intr: CameraIntrinsics
) -> RobotFootprint:
    """Conservative pixel disc of the robot bounding sphere centered at p.

    The disc radius divides by (zc - rho), the nearest sphere depth, and is
    scaled by the view-ray secant so that every sphere surface point projects
    inside the disc even off-axis. farthest depth is zc + rho for all pixels.
    """
    center_s = world_to_camera(p, q_c)
    zc = float(center_s[2])
    rho = robot.rho
    far = zc + rho
    if zc - rho < intr.z_near:
        return RobotFootprint(np.empty((0, 2), dtype=int), far, False)
    r = project(center_s, intr)
    secant = float(np.linalg.norm(center_s)) / zc
    pr = max(intr.fsx, intr.fsy) * rho / (zc - rho) * secant
    rx, ry = r
    in_view = (rx - pr >= 0.0) and (rx + pr < intr.width) and (ry - pr >= 0.0) and (ry + pr < intr.height)
    ix_lo = max(int(np.floor(rx - pr)), 0)
    ix_hi = min(int(np.ceil(rx + pr)), intr.width - 1)
    iy_lo = max(int(np.floor(ry - pr)), 0)
    iy_hi = min(int(np.ceil(ry + pr)), intr.height - 1)
    gx, gy = np.meshgrid(np.arange(ix_lo, ix_hi + 1), np.arange(iy_lo, iy_hi + 1))
    mask = (gx + 0.5 - rx) ** 2 + (gy + 0.5 - ry) ** 2 <= pr * pr
    pix = np.stack([gx[mask], gy[mask]], axis=-1)
    if pix.shape[0] == 0:
        # sub-pixel disc: keep the pixel containing the center
        cx_i = min(max(int(rx), 0), intr.width - 1)
        cy_i = min(max(int(ry), 0), intr.height - 1)
        pix = np.array([[cx_i, cy_i]], dtype=int)
    return RobotFootprint(pix, far, bool(in_view), (rx, ry), pr)


def write_pfm(path, depth: DepthImage) -> None:
    """Write a grayscale PFM: 'Pf', width height, scale -1.0, rows bottom-up."""
    with open(path, "wb") as f:
        f.write(b"Pf\n")
        f.write(f"{depth.width} {depth.height}\n".encode("ascii"))
        f.write(b"-1.0\n")
        f.write(np.flipud(depth.values).astype("<f4").tobytes())


def read_pfm(path) -> DepthImage:
    """Read a grayscale little-endian PFM written by :func:`write_pfm`."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"Pf":
            raise ValueError("not a grayscale PFM file")
        w, h = (int(v) for v in f.readline().split())
        scale = float(f.readline())
        data = np.frombuffer(f.read(w * h * 4), dtype="<f4" if scale < 0 else ">f4")
    return DepthImage(np.flipud(data.reshape(h, w)).copy())
