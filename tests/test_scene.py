import tracemalloc

import numpy as np
import pytest

from depthnav import (
    Box,
    Configuration,
    Scene,
    Sphere,
    Wall,
    camera_to_world,
    project,
    read_pfm,
    render_robot_footprint,
    render_scene_depth,
    world_to_camera,
    write_pfm,
)
from depthnav.scene import RobotModel, _pixel_box, _pixel_rays
from depthnav.frames import world_to_camera_rotation

from conftest import CountingBox


Q0 = Configuration(0.0, 0.0, 0.0)


class TestPrimitives:
    def test_box_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))

    def test_sphere_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Sphere((0.0, 0.0, 0.0), 0.0)

    def test_wall_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            Wall((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 1.0))

    def test_box_distance(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert box.distance([0.5, 0.5, 0.5]) == 0.0
        assert box.distance([2.0, 0.5, 0.5]) == pytest.approx(1.0)

    def test_box_ray_on_a_slab_plane(self):
        """Rays parallel to a slab and starting on its plane (1 / 0 and
        0 * inf in the slab test) meet the closed box as an unbounded slab
        would, without a numpy warning."""
        box = Box((2.0, 0.0, -1.0), (3.0, 1.0, 1.0))
        dirs = np.array([[[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 2.0]]])
        assert box.intersect(np.zeros(3), dirs, 0.1).tolist() == [[2.0, 2.0, np.inf]]

    def test_sphere_distance(self):
        s = Sphere((0.0, 0.0, 0.0), 1.0)
        assert s.distance([3.0, 0.0, 0.0]) == pytest.approx(2.0)
        assert s.distance([0.5, 0.0, 0.0]) == 0.0

    def test_wall_distance(self):
        w = Wall((5.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (2.0, 2.0))
        assert w.distance([3.0, 0.0, 0.0]) == pytest.approx(2.0)
        # beyond the rectangle edge, distance goes to the edge, not the plane
        assert w.distance([5.0, 4.0, 0.0]) == pytest.approx(2.0)


class TestRenderSceneDepth:
    def test_empty_scene_fills_max_depth(self, intr_small):
        depth = render_scene_depth(Scene(), Q0, intr_small)
        assert depth.values.shape == (120, 160)
        assert depth.values.dtype == np.float32
        assert np.all(depth.values == np.float32(intr_small.max_depth))

    def test_frontoparallel_wall_constant_depth(self, intr_small):
        wall = Wall((4.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (50.0, 50.0))
        depth = render_scene_depth(Scene((wall,)), Q0, intr_small)
        assert np.allclose(depth.values, 4.0, atol=1e-5)

    def test_box_occludes_wall(self, intr_small):
        # box face at camera depth 2 in front of a wall at depth 5
        box = Box((2.0, -0.5, -0.5), (3.0, 0.5, 0.5))
        wall = Wall((5.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (50.0, 50.0))
        depth = render_scene_depth(Scene((box, wall)), Q0, intr_small)
        cx, cy = int(intr_small.cx), int(intr_small.cy)
        assert depth.values[cy, cx] == pytest.approx(2.0, abs=1e-5)
        assert depth.values[0, 0] == pytest.approx(5.0, abs=1e-4)

    def test_occlusion_monotonicity(self, intr_small):
        rng = np.random.default_rng(10)
        for _ in range(5):
            prims = _random_primitives(rng, 3)
            base = render_scene_depth(Scene(tuple(prims)), Q0, intr_small)
            extra = prims + _random_primitives(rng, 1)
            more = render_scene_depth(Scene(tuple(extra)), Q0, intr_small)
            assert np.all(more.values <= base.values + 1e-6)

    def test_deterministic(self, intr_small):
        scene = Scene((Sphere((4.0, 0.5, 0.0), 1.0), Box((6.0, -2.0, -1.0), (7.0, 2.0, 1.0))))
        a = render_scene_depth(scene, Q0, intr_small)
        b = render_scene_depth(scene, Q0, intr_small)
        assert np.array_equal(a.values, b.values)

    def test_agrees_with_ray_march_oracle(self, intr_small):
        """Independent 1 mm ray-march: inside/outside sign change along the ray."""
        rng = np.random.default_rng(11)
        step = 1e-3
        ts = np.arange(intr_small.z_near, intr_small.max_depth + step, step)
        rays = _pixel_rays(intr_small)
        n_scenes, n_pixels = 20, 50
        for _ in range(n_scenes):
            prims = _random_primitives(rng, rng.integers(1, 4))
            scene = Scene(tuple(prims))
            depth = render_scene_depth(scene, Q0, intr_small)
            R_ws = world_to_camera_rotation(Q0)
            for _ in range(n_pixels):
                ix = int(rng.integers(0, intr_small.width))
                iy = int(rng.integers(0, intr_small.height))
                d_world = rays[iy, ix] @ R_ws
                pts = ts[:, None] * d_world[None, :]
                inside = np.zeros(len(ts), dtype=bool)
                for prim in prims:
                    if isinstance(prim, Box):
                        lo, hi = np.asarray(prim.min_corner), np.asarray(prim.max_corner)
                        inside |= np.all((pts >= lo) & (pts <= hi), axis=1)
                    else:
                        c = np.asarray(prim.center)
                        inside |= np.linalg.norm(pts - c, axis=1) <= prim.radius
                hits = np.flatnonzero(inside)
                expected = ts[hits[0]] if hits.size else intr_small.max_depth
                assert abs(float(depth.values[iy, ix]) - expected) < 2e-3


def _reference_depth(scene, q, intr):
    """Every primitive intersected with the whole ray grid, no culling:
    the float64 minimum over primitives, clamped, then rounded once."""
    dirs = _pixel_rays(intr) @ world_to_camera_rotation(q)
    depth = np.full(dirs.shape[:2], np.inf)
    for prim in scene.primitives:
        depth = np.minimum(depth, prim.intersect(q.position, dirs, intr.z_near))
    depth = np.where(np.isfinite(depth), np.minimum(depth, intr.max_depth), intr.max_depth)
    return depth.astype(np.float32)


def _camera_frame_scene(rng, q, intr, n):
    """Boxes, spheres and walls placed in q's camera frame: in view,
    straddling z_near, wholly behind the camera, or off to the side."""
    places = (
        lambda: [rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5), rng.uniform(1.0, 8.0)],
        lambda: [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), intr.z_near + rng.uniform(-0.2, 0.2)],
        lambda: [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-6.0, -2.5)],
        lambda: [rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 30.0), 0.0, rng.uniform(2.0, 6.0)],
    )
    prims = []
    for _ in range(n):
        c = camera_to_world(np.asarray(places[rng.integers(len(places))]()), q)
        kind = rng.integers(3)
        if kind == 0:
            h = rng.uniform(0.1, 0.8, 3)
            prims.append(Box(tuple(c - h), tuple(c + h)))
        elif kind == 1:
            prims.append(Sphere(tuple(c), float(rng.uniform(0.1, 0.8))))
        else:
            nrm = rng.normal(size=3)
            half = tuple(rng.uniform(0.2, 2.0, 2))
            prims.append(Wall(tuple(c), tuple(nrm / np.linalg.norm(nrm)), half))
    return Scene(tuple(prims))


def _random_pose(rng):
    return Configuration(*rng.uniform(-3.0, 3.0, 3), *rng.uniform(-np.pi, np.pi, 3))


class TestOnDemandCast:
    def test_reads_match_an_unculled_full_cast(self, intr_small):
        """Pixels read in arbitrary overlapping rectangles, then the whole
        image, equal bit for bit a cast of every primitive over every ray."""
        rng = np.random.default_rng(21)
        h, w = intr_small.height, intr_small.width
        kinds = set()
        for _ in range(30):
            q = _random_pose(rng)
            scene = _camera_frame_scene(rng, q, intr_small, int(rng.integers(4, 10)))
            ref = _reference_depth(scene, q, intr_small)
            R_ws = world_to_camera_rotation(q)
            for prim in scene.primitives:
                y0, y1, x0, x1 = _pixel_box(prim, q.position, R_ws, intr_small)
                if y0 >= y1 or x0 >= x1:
                    kinds.add("culled")
                else:
                    kinds.add("full frame" if (y1 - y0, x1 - x0) == (h, w) else "box")
            depth = render_scene_depth(scene, q, intr_small)
            for _ in range(8):
                y0, x0 = int(rng.integers(h)), int(rng.integers(w))
                y1 = int(rng.integers(y0, min(y0 + 40, h))) + 1
                x1 = int(rng.integers(x0, min(x0 + 40, w))) + 1
                gy, gx = np.mgrid[y0:y1, x0:x1]
                pick = rng.random(gy.size) < 0.5  # scattered pixels, like a footprint disc
                iy, ix = gy.ravel()[pick], gx.ravel()[pick]
                assert np.array_equal(depth.at(iy, ix).view(np.uint32), ref[iy, ix].view(np.uint32))
            assert np.array_equal(depth.values.view(np.uint32), ref.view(np.uint32))
            fresh = render_scene_depth(scene, q, intr_small)
            assert np.array_equal(fresh.values.view(np.uint32), ref.view(np.uint32))
        assert kinds == {"culled", "full frame", "box"}

    def test_culls_primitives_behind_or_beside_the_view(self, intr_small):
        behind = CountingBox((-3.0, -0.5, -0.5), (-2.0, 0.5, 0.5))
        beside = CountingBox((3.0, 20.0, -0.5), (4.0, 21.0, 0.5))
        ahead = CountingBox((3.0, -0.5, -0.5), (4.0, 0.5, 0.5))
        depth = render_scene_depth(Scene((behind, beside, ahead)), Q0, intr_small)
        depth.values
        assert behind.calls == [] and beside.calls == []
        assert 0 < sum(ahead.calls) < intr_small.width * intr_small.height

    def test_reads_cast_only_their_rectangle(self, intr_small):
        box = CountingBox((3.0, -5.0, -5.0), (4.0, 5.0, 5.0))  # fills the view
        depth = render_scene_depth(Scene((box,)), Q0, intr_small)
        assert box.calls == []
        depth.at(np.array([10, 12]), np.array([20, 25]))
        assert box.calls == [3 * 6]
        depth.at(np.array([10, 11]), np.array([20, 21]))  # already cast
        assert box.calls == [3 * 6]
        depth.values
        assert sum(box.calls) == 3 * 6 + intr_small.width * intr_small.height


class TestCastMemory:
    def test_full_frames_keep_no_ray_grid_per_rotation(self, intr):
        """Ten full 640x480 frames at ten rotations allocate only each
        primitive's pixel-box rays and the image: a 2.3 MB peak measured,
        bounded at 6 MB, against about 17 MB for one float64 world-ray grid."""
        rng = np.random.default_rng(31)
        prims = []
        for k in range(8):
            c = np.array([rng.uniform(4.0, 8.0), *rng.uniform(-1.5, 1.5, 2)])
            prims.append(Sphere(tuple(c), 0.2) if k % 2 else Box(tuple(c - 0.2), tuple(c + 0.2)))
        scene = Scene(tuple(prims))
        render_scene_depth(scene, Q0, intr).values  # builds the camera's pixel-ray grid
        tracemalloc.start()
        try:
            for _ in range(10):
                q = Configuration(0.0, 0.0, 0.0, *rng.uniform(-0.3, 0.3, 3))
                render_scene_depth(scene, q, intr).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


def _random_primitives(rng, n):
    prims = []
    for _ in range(int(n)):
        if rng.random() < 0.5:
            c = np.array([rng.uniform(2.0, 8.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)])
            prims.append(Sphere(tuple(c), float(rng.uniform(0.3, 1.2))))
        else:
            lo = np.array([rng.uniform(2.0, 8.0), rng.uniform(-3.0, 2.0), rng.uniform(-2.0, 1.0)])
            hi = lo + rng.uniform(0.4, 2.0, 3)
            prims.append(Box(tuple(lo), tuple(hi)))
    return prims


class TestRobotFootprint:
    def test_on_axis_sphere(self, intr):
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 3.0], Q0)
        fp = render_robot_footprint(p, Q0, robot, intr)
        assert fp.fully_in_view
        assert fp.farthest_depth == pytest.approx(3.3)
        assert fp.center_pixel == pytest.approx((intr.cx, intr.cy))
        assert fp.pixels.shape[0] > 0

    def test_near_plane_violation(self, intr):
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 0.4], Q0)
        fp = render_robot_footprint(p, Q0, robot, intr)
        assert not fp.fully_in_view

    def test_disc_exceeding_bounds(self, intr):
        robot = RobotModel(rho=0.3)
        # center near the image border with a large disc
        p = camera_to_world([2.3, 0.0, 3.0], Q0)
        fp = render_robot_footprint(p, Q0, robot, intr)
        assert not fp.fully_in_view

    def test_conservative_covers_all_surface_points(self, intr):
        """Every true sphere-surface projection lies inside the pixel disc."""
        rng = np.random.default_rng(12)
        robot = RobotModel(rho=0.35)
        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for center_s in ([0.0, 0.0, 3.0], [1.2, -0.8, 4.0], [-1.5, 0.9, 6.0]):
            p = camera_to_world(center_s, Q0)
            fp = render_robot_footprint(p, Q0, robot, intr)
            assert fp.fully_in_view
            surface = np.asarray(center_s) + robot.rho * dirs
            zs = surface[:, 2]
            # farthest-depth correctness: bound holds, tight at the far pole
            assert np.all(fp.farthest_depth >= zs - 1e-12)
            far_pole = np.asarray(center_s) + [0.0, 0.0, robot.rho]
            assert fp.farthest_depth == pytest.approx(far_pole[2], abs=1e-12)
            visible = surface[zs >= intr.z_near]
            rx = intr.fsx * visible[:, 0] / visible[:, 2] + intr.cx
            ry = intr.fsy * visible[:, 1] / visible[:, 2] + intr.cy
            dist = np.hypot(rx - fp.center_pixel[0], ry - fp.center_pixel[1])
            assert np.all(dist <= fp.pixel_radius + 1e-9)

    def test_subpixel_disc_keeps_center_pixel(self, intr):
        robot = RobotModel(rho=0.001)
        p = camera_to_world([0.0, 0.0, 9.0], Q0)
        fp = render_robot_footprint(p, Q0, robot, intr)
        assert fp.pixels.shape[0] >= 1


class TestPfm:
    def test_round_trip_bit_exact(self, intr_small, tmp_path):
        scene = Scene((Sphere((4.0, 0.0, 0.0), 1.0),))
        depth = render_scene_depth(scene, Q0, intr_small)
        path = tmp_path / "depth.pfm"
        write_pfm(path, depth)
        back = read_pfm(path)
        assert back.width == depth.width and back.height == depth.height
        assert np.array_equal(back.values, depth.values)
        assert back.values.dtype == np.float32

    def test_header_format(self, intr_small, tmp_path):
        depth = render_scene_depth(Scene(), Q0, intr_small)
        path = tmp_path / "depth.pfm"
        write_pfm(path, depth)
        with open(path, "rb") as f:
            assert f.readline().strip() == b"Pf"
            assert f.readline().split() == [b"160", b"120"]
            assert float(f.readline()) == -1.0

    def test_read_rejects_non_pfm(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P6\n1 1\n255\n")
        with pytest.raises(ValueError):
            read_pfm(path)
