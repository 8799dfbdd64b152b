import math

import numpy as np
import pytest

from depthnav import (
    CameraIntrinsics,
    Configuration,
    body_to_camera_rotation,
    camera_to_world,
    project,
    rotation_zxy,
    world_to_camera,
)
from depthnav.frames import normalize_angle, world_to_camera_rotation


class TestRotationZxy:
    def test_zero_angles_is_identity(self):
        assert np.allclose(rotation_zxy(0.0, 0.0, 0.0), np.eye(3))

    def test_quarter_yaw_maps_x_to_y(self):
        R = rotation_zxy(0.0, 0.0, math.pi / 2)
        assert np.allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_orthonormal_for_random_angles(self):
        rng = np.random.default_rng(0)
        for phi, theta, psi in rng.uniform(-math.pi, math.pi, size=(50, 3)):
            R = rotation_zxy(phi, theta, psi)
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_yaw_composition(self):
        rng = np.random.default_rng(1)
        for a, b in rng.uniform(-1.5, 1.5, size=(20, 2)):
            lhs = rotation_zxy(0, 0, a) @ rotation_zxy(0, 0, b)
            assert np.allclose(lhs, rotation_zxy(0, 0, a + b), atol=1e-9)


class TestBodyToCamera:
    def test_constant_matrix(self):
        expected = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        assert np.allclose(body_to_camera_rotation(), expected, atol=1e-12)

    def test_body_forward_maps_to_optical_axis(self):
        assert np.allclose(body_to_camera_rotation() @ [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_orthonormal_det_one(self):
        R = body_to_camera_rotation()
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


class TestWorldToCamera:
    def test_point_ahead_maps_to_optical_axis(self):
        q = Configuration(0.0, 0.0, 0.0)
        assert np.allclose(world_to_camera([2.0, 0.0, 0.0], q), [0.0, 0.0, 2.0], atol=1e-12)

    def test_camera_center_maps_to_origin(self):
        q = Configuration(1.0, -2.0, 3.0, 0.2, -0.1, 0.7)
        assert np.allclose(world_to_camera(q.position, q), [0.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = Configuration(*rng.uniform(-5, 5, 3), *rng.uniform(-1.5, 1.5, 3))
            p = rng.uniform(-10, 10, 3)
            assert np.allclose(camera_to_world(world_to_camera(p, q), q), p, atol=1e-12)

    def test_preserves_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = Configuration(*rng.uniform(-5, 5, 3), *rng.uniform(-1.5, 1.5, 3))
            a, b = rng.uniform(-10, 10, (2, 3))
            d_w = np.linalg.norm(a - b)
            d_s = np.linalg.norm(world_to_camera(a, q) - world_to_camera(b, q))
            assert abs(d_w - d_s) < 1e-9

    def test_world_to_camera_rotation_is_rotation(self):
        R = world_to_camera_rotation(Configuration(0, 0, 0, 0.3, 0.2, -0.9))
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)

    def test_batch_points(self):
        q = Configuration(1.0, 2.0, 3.0, 0.1, 0.2, 0.3)
        pts = np.random.default_rng(4).uniform(-5, 5, (7, 3))
        batched = world_to_camera(pts, q)
        for i, p in enumerate(pts):
            assert np.allclose(batched[i], world_to_camera(p, q), atol=1e-12)


class TestProject:
    def test_optical_axis_hits_principal_point(self, intr):
        assert project([0.0, 0.0, 2.0], intr) == (intr.cx, intr.cy)

    def test_direct_substitution(self):
        intr = CameraIntrinsics(fsx=100.0, fsy=100.0, cx=320.0, cy=240.0, width=640, height=480)
        rx, ry = project([1.0, 0.0, 2.0], intr)
        assert rx == pytest.approx(370.0, abs=1e-12)
        assert ry == pytest.approx(240.0, abs=1e-12)

    def test_behind_camera_returns_none(self, intr):
        assert project([0.0, 0.0, -1.0], intr) is None
        assert project([0.0, 0.0, intr.z_near - 1e-6], intr) is None

    def test_projective_scaling(self, intr):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(1.0, 8.0)])
            lam = rng.uniform(0.5, 3.0)
            r1 = np.array(project(p, intr))
            r2 = np.array(project(lam * p, intr))
            assert np.allclose(r1, r2, atol=1e-9)


class TestConfiguration:
    def test_angles_normalized(self):
        q = Configuration(0, 0, 0, phi=3 * math.pi, theta=-3 * math.pi, psi=2 * math.pi)
        assert q.phi == pytest.approx(math.pi)
        assert q.theta == pytest.approx(math.pi)  # (-pi, pi]: -pi wraps to +pi
        assert q.psi == pytest.approx(0.0)

    def test_normalize_angle_range(self):
        for a in np.linspace(-20, 20, 101):
            w = normalize_angle(a)
            assert -math.pi < w <= math.pi


class TestCameraIntrinsics:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fsx=0.0, fsy=1.0, cx=0, cy=0, width=10, height=10)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fsx=1.0, fsy=1.0, cx=10.0, cy=0.0, width=10, height=10)

    def test_rejects_bad_depth_range(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fsx=1.0, fsy=1.0, cx=5.0, cy=5.0, width=10, height=10, z_near=11.0)
