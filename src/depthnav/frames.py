"""Coordinate frames, rotations and the pinhole projection pipeline.

Conventions:
    World frame: x forward, y left, z up (right-handed).
    Body frame:  x forward, y left, z up, attached to the vehicle.
    Camera frame: x right, y down, z along the optical axis (standard CV).
    Image frame: origin top-left, rx right, ry down, units pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import coerce, integer, real

__all__ = [
    "Configuration",
    "CameraIntrinsics",
    "normalize_angle",
    "rotation_zxy",
    "body_to_camera_rotation",
    "world_to_camera_rotation",
    "world_to_camera",
    "camera_to_world",
    "project",
]


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Configuration:
    """Vehicle pose: position in meters (world frame), Euler angles in radians.

    Angles are roll (phi), pitch (theta), yaw (psi) and are normalized to
    (-pi, pi] on construction.
    """

    x: float
    y: float
    z: float
    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        coerce(self, real, "x", "y", "z")
        for name in ("phi", "theta", "psi"):
            object.__setattr__(self, name, normalize_angle(real(name, getattr(self, name))))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics.

    fsx, fsy are focal length times pixel density (pixels), cx, cy the
    principal point (pixels), strictly inside the image: on its border no
    footprint disc fits in view. z_near is the minimum imageable depth and
    max_depth the sensor range, both meters; max_depth is at most float32's
    largest value, since a pixel with no hit holds it as float32.
    """

    fsx: float
    fsy: float
    cx: float
    cy: float
    width: int
    height: int
    z_near: float = 0.3
    max_depth: float = 10.0

    def __post_init__(self):
        coerce(self, real, "fsx", "fsy", "z_near", "max_depth", positive=True)
        coerce(self, real, "cx", "cy")
        coerce(self, integer, "width", "height", minimum=1)
        for name, size in (("cx", self.width), ("cy", self.height)):
            if not 0 < getattr(self, name) < size:
                raise ValueError(f"{name}: must lie strictly inside the image, got {getattr(self, name)}")
        if not self.z_near < self.max_depth:
            raise ValueError(f"z_near: must be below max_depth, got {self.z_near}")
        if self.max_depth > _F32_MAX:
            raise ValueError(f"max_depth: must be at most float32's largest value {_F32_MAX!r}, got {self.max_depth!r}")


def _rx(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def _ry(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def _rz(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def rotation_zxy(phi: float, theta: float, psi: float) -> np.ndarray:
    """Z-X-Y Euler rotation: yaw about z, then roll about x, then pitch about y.

    The returned matrix takes body-frame coordinates into the world frame;
    its columns are the body axes expressed in world coordinates.
    """
    return _rz(psi) @ _rx(phi) @ _ry(theta)


def body_to_camera_rotation() -> np.ndarray:
    """Fixed body->camera rotation, Ry(-pi/2) * Rx(pi/2).

    Maps body forward (+x) onto the camera optical axis (+z).
    """
    return _ry(-math.pi / 2.0) @ _rx(math.pi / 2.0)


_R_BC = body_to_camera_rotation()


def world_to_camera_rotation(q: Configuration) -> np.ndarray:
    """Rotation taking world-frame coordinates into the camera frame of q."""
    return _R_BC @ rotation_zxy(q.phi, q.theta, q.psi).T


def world_to_camera(p_w, q: Configuration) -> np.ndarray:
    """Rigid transform of world point(s) into the camera frame of q.

    Accepts a single point (3,) or an array of points (N, 3). The camera
    center is the vehicle position.
    """
    p_w = np.asarray(p_w, dtype=float)
    R = world_to_camera_rotation(q)
    return (p_w - q.position) @ R.T


def camera_to_world(p_s, q: Configuration) -> np.ndarray:
    """Inverse of :func:`world_to_camera`."""
    p_s = np.asarray(p_s, dtype=float)
    R = world_to_camera_rotation(q)
    return p_s @ R + q.position


def project(p_s, intr: CameraIntrinsics):
    """Project a camera-frame point to continuous pixel coordinates.

    Returns (rx, ry), possibly outside the image bounds (the caller checks
    validity), or None when the point lies in front of the near plane and
    cannot be imaged.
    """
    xs, ys, zs = float(p_s[0]), float(p_s[1]), float(p_s[2])
    if zs < intr.z_near:
        return None
    return (intr.fsx * xs / zs + intr.cx, intr.fsy * ys / zs + intr.cy)

