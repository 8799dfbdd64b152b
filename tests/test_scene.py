import dataclasses
import math
import sys
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
    load_scenario,
    project,
    read_pfm,
    render_robot_footprint,
    render_scene_depth,
    run_mission,
    world_to_camera,
    write_pfm,
)
from depthnav import collision, frames, planner
from depthnav.scene import _CORNERS, _EDGES, RobotFootprint, RobotModel, _pixel_boxes, _pixel_rays
from depthnav.frames import world_to_camera_rotation

from conftest import SCENARIO_DIR, CountingBox


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

    def test_box_intersect_matches_the_three_channel_formula(self, intr_small):
        """Box.intersect's slab-by-slab fold equals, bit for bit, the slab
        test computed over all three channels at once, on ray grids from
        random 6-DoF poses with zeroed direction components and origins on
        slab planes (1 / 0, and 0 * inf giving NaN)."""

        def three_channel(box, origin, dirs, z_near):
            lo, hi = np.asarray(box.min, float), np.asarray(box.max, float)
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_dirs = 1.0 / dirs
                t1 = (lo - origin) * inv_dirs
                t2 = (hi - origin) * inv_dirs
                lo_t = np.minimum(t1, t2)
                hi_t = np.maximum(t1, t2)
            t_near = np.fmax(np.fmax(lo_t[..., 0], lo_t[..., 1]), lo_t[..., 2])
            t_far = np.fmin(np.fmin(hi_t[..., 0], hi_t[..., 1]), hi_t[..., 2])
            hit = t_near <= t_far
            first = np.where(t_near >= z_near, t_near, t_far)
            out = np.where(hit & (first >= z_near), first, np.inf)
            return out, int(np.isnan(lo_t).sum())

        rng = np.random.default_rng(5)
        zero_dirs = nan_slabs = hits = inside = 0
        for _ in range(40):
            q = _random_pose(rng)
            dirs = _frame_rays(intr_small) @ world_to_camera_rotation(q)
            k = int(rng.integers(3))
            dirs[rng.random(dirs.shape[:2]) < 0.1, k] = rng.choice([0.0, -0.0])
            zero_dirs += int(np.sum(dirs == 0.0))
            origin = q.position.copy()
            c = origin + rng.uniform(-3.0, 3.0, 3) * (rng.random() < 0.7)  # else the origin is inside
            box = Box(tuple(c - rng.uniform(0.2, 2.0, 3)), tuple(c + rng.uniform(0.2, 2.0, 3)))
            if rng.random() < 0.5:  # the origin on one of the box's slab planes
                origin[k] = (box.min, box.max)[int(rng.integers(2))][k]
            want, nans = three_channel(box, origin, dirs, intr_small.z_near)
            got = box.intersect(origin, dirs, intr_small.z_near)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            nan_slabs += nans
            hits += int(np.isfinite(want).sum())
            inside += bool(np.all(np.asarray(box.min) < origin) and np.all(origin < box.max))
        assert zero_dirs and nan_slabs and hits and inside, (zero_dirs, nan_slabs, hits, inside)

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
        rays = _frame_rays(intr_small)
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
                        lo, hi = np.asarray(prim.min), np.asarray(prim.max)
                        inside |= np.all((pts >= lo) & (pts <= hi), axis=1)
                    else:
                        c = np.asarray(prim.center)
                        inside |= np.linalg.norm(pts - c, axis=1) <= prim.radius
                hits = np.flatnonzero(inside)
                expected = ts[hits[0]] if hits.size else intr_small.max_depth
                assert abs(float(depth.values[iy, ix]) - expected) < 2e-3


def _frame_rays(intr):
    """The camera-frame rays of the whole frame, one rectangle of the
    image's size."""
    return _pixel_rays(intr, 0, intr.height, 0, intr.width)


def _reference_depth(scene, q, intr):
    """Every primitive intersected with the whole ray grid, no culling:
    the float64 minimum over primitives, clamped, then rounded once."""
    dirs = _frame_rays(intr) @ world_to_camera_rotation(q)
    depth = np.full(dirs.shape[:2], np.inf)
    for prim in scene.primitives:
        depth = np.minimum(depth, prim.intersect(q.position, dirs, intr.z_near))
    depth = np.where(np.isfinite(depth), np.minimum(depth, intr.max_depth), intr.max_depth)
    return depth.astype(np.float32)


def _camera_frame_places(rng, intr):
    """Camera-frame centre draws: in view, straddling z_near, wholly behind
    the camera, or off to the side."""
    return (
        lambda: [rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5), rng.uniform(1.0, 8.0)],
        lambda: [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), intr.z_near + rng.uniform(-0.2, 0.2)],
        lambda: [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-6.0, -2.5)],
        lambda: [rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 30.0), 0.0, rng.uniform(2.0, 6.0)],
    )


def _primitive_at(rng, c):
    """A random box, sphere or wall centred on the world point c."""
    kind = rng.integers(3)
    if kind == 0:
        h = rng.uniform(0.1, 0.8, 3)
        return Box(tuple(c - h), tuple(c + h))
    if kind == 1:
        return Sphere(tuple(c), float(rng.uniform(0.1, 0.8)))
    nrm = rng.normal(size=3)
    half = tuple(rng.uniform(0.2, 2.0, 2))
    return Wall(tuple(c), tuple(nrm / np.linalg.norm(nrm)), half)


def _camera_frame_scene(rng, q, intr, n):
    """Primitives centred on _camera_frame_places draws in q's camera frame."""
    places = _camera_frame_places(rng, intr)
    prims = []
    for _ in range(n):
        c = camera_to_world(np.asarray(places[rng.integers(len(places))]()), q)
        prims.append(_primitive_at(rng, c))
    return Scene(tuple(prims))


def _straddles_near_plane(prim, q, intr):
    """Whether prim's bounds() box has corners on both sides of z = z_near."""
    lo, hi = prim.bounds()
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    z = world_to_camera(corners, q)[:, 2]
    return z.min() <= intr.z_near <= z.max()


def _random_pose(rng):
    return Configuration(*rng.uniform(-3.0, 3.0, 3), *rng.uniform(-np.pi, np.pi, 3))


def _pixel_box(prim, origin, R_ws, intr):
    """One primitive's pixel box and near depth, computed on its own: the
    reference for _pixel_boxes, which boxes every primitive of an image in
    one pass."""
    lo, hi = prim.bounds()
    cam = (np.where(_CORNERS, hi, lo) - origin) @ R_ws.T
    z = cam[:, 2]
    z_min, z_max = z.min(), z.max()
    if z_max < intr.z_near:
        return (0, 0, 0, 0), np.inf
    if z_min <= intr.z_near:
        a, b = cam[_EDGES[:, 0]], cam[_EDGES[:, 1]]
        cross = (a[:, 2] < intr.z_near) != (b[:, 2] < intr.z_near)
        a, b = a[cross], b[cross]
        s = (intr.z_near - a[:, 2]) / (b[:, 2] - a[:, 2])
        cut = a + s[:, None] * (b - a)
        cut[:, 2] = intr.z_near
        cam = np.concatenate([cam[z >= intr.z_near], cut])
        z = cam[:, 2]
    u = intr.fsx * cam[:, 0] / z + (intr.cx - 0.5)
    v = intr.fsy * cam[:, 1] / z + (intr.cy - 0.5)
    box = (
        max(math.floor(v.min()) - 1, 0),
        min(math.ceil(v.max()) + 2, intr.height),
        max(math.floor(u.min()) - 1, 0),
        min(math.ceil(u.max()) + 2, intr.width),
    )
    return box, float(z.min())


def _box_kind(box, prim, q, intr):
    y0, y1, x0, x1 = box
    if y0 >= y1 or x0 >= x1:
        return "culled"
    if (y1 - y0, x1 - x0) == (intr.height, intr.width):
        return "full frame"
    return "clipped" if _straddles_near_plane(prim, q, intr) else "box"


def _mask_over(box, mask):
    """A bool mask over box as the mask_over callable farther_than takes:
    its slice over any image-pixel rectangle inside box."""
    y0, _, x0, _ = box
    return lambda a0, a1, b0, b1: mask[a0 - y0 : a1 - y0, b0 - x0 : b1 - x0]


class TestOnDemandCast:
    def test_reads_match_an_unculled_full_cast(self, intr_small):
        """Depth-bounded queries over arbitrary overlapping rectangles and
        masks give the verdict read from a cast of every primitive over
        every ray, and the whole image then equals that cast bit for bit.
        Query depths are drawn at a masked pixel's depth, just below the
        masked minimum in float64 (the same float32, so not farther) and in
        float32, at max_depth and at random, so both answers occur; no
        primitive hits in front of its near depth."""
        rng = np.random.default_rng(21)
        h, w = intr_small.height, intr_small.width
        kinds = set()
        answers = {True: 0, False: 0}
        for _ in range(30):
            q = _random_pose(rng)
            R_ws = world_to_camera_rotation(q)
            scene = _camera_frame_scene(rng, q, intr_small, int(rng.integers(4, 10)))
            ref = _reference_depth(scene, q, intr_small)
            boxes, nears = _pixel_boxes(scene, q.position, R_ws, intr_small)
            kinds.update(_box_kind(box, prim, q, intr_small) for box, prim in zip(boxes, scene.primitives))
            dirs = _frame_rays(intr_small) @ R_ws
            for prim, near in zip(scene.primitives, nears):
                t = prim.intersect(q.position, dirs, intr_small.z_near)
                assert np.all(t[np.isfinite(t)] >= near - 1e-9), prim
            depth = render_scene_depth(scene, q, intr_small)
            for _ in range(8):
                y0, x0 = int(rng.integers(h)), int(rng.integers(w))
                y1 = int(rng.integers(y0, min(y0 + 40, h))) + 1
                x1 = int(rng.integers(x0, min(x0 + 40, w))) + 1
                mask = rng.random((y1 - y0, x1 - x0)) < 0.7
                mask.flat[rng.integers(mask.size)] = True
                under = ref[y0:y1, x0:x1][mask]
                low = under.min()
                for z in (
                    float(under[rng.integers(under.size)]),
                    float(low) * (1.0 - 1e-9),
                    float(np.nextafter(low, np.float32(0.0))),
                    intr_small.max_depth,
                    rng.uniform(intr_small.z_near, intr_small.max_depth),
                ):
                    want = bool(np.all(z < under))
                    assert depth.farther_than((y0, y1, x0, x1), _mask_over((y0, y1, x0, x1), mask), z) is want, z
                    answers[want] += 1
            assert np.array_equal(depth.values.view(np.uint32), ref.view(np.uint32))
            fresh = render_scene_depth(scene, q, intr_small)
            assert np.array_equal(fresh.values.view(np.uint32), ref.view(np.uint32))
        assert kinds == {"culled", "full frame", "box", "clipped"}
        assert all(answers.values()), answers

    def test_clipped_box_holds_every_hit(self, intr_small):
        """Every pixel whose full-grid ray meets a primitive straddling
        z_near lies inside its pixel box, and the box is smaller than the
        frame for a quarter of them or more. An image-level check can miss
        a box that is too tight where another primitive occludes the
        missed pixels."""
        rng = np.random.default_rng(41)
        h, w = intr_small.height, intr_small.width
        straddling = tighter = 0
        for _ in range(60):
            q = _random_pose(rng)
            R_ws = world_to_camera_rotation(q)
            dirs = _frame_rays(intr_small) @ R_ws
            near = _camera_frame_places(rng, intr_small)[1]
            prims = [_primitive_at(rng, camera_to_world(np.asarray(near()), q)) for _ in range(5)]
            boxes, _ = _pixel_boxes(Scene(tuple(prims)), q.position, R_ws, intr_small)
            for prim, (y0, y1, x0, x1) in zip(prims, boxes):
                if not _straddles_near_plane(prim, q, intr_small):
                    continue
                straddling += 1
                iy, ix = np.nonzero(np.isfinite(prim.intersect(q.position, dirs, intr_small.z_near)))
                assert np.all((y0 <= iy) & (iy < y1) & (x0 <= ix) & (ix < x1)), prim
                tighter += (y1 - y0) * (x1 - x0) < h * w
        assert straddling >= 200 and tighter >= straddling // 4, (straddling, tighter)

    @pytest.mark.parametrize("camera", ["intr_small", "intr"])
    def test_one_pass_boxes_equal_per_primitive_boxes(self, camera, request):
        """The boxes of all an image's primitives, computed in one pass,
        equal one by one the boxes computed for each primitive on its own,
        over seeded 6-DoF poses with boxes, spheres and walls in front of,
        straddling z_near, behind and beside the camera; so do their near
        depths. Scenes with and without a primitive to clip must both
        occur."""
        intr = request.getfixturevalue(camera)
        rng = np.random.default_rng(61)
        kinds = set()
        unclipped_scenes = 0
        for _ in range(200):
            q = _random_pose(rng)
            R_ws = world_to_camera_rotation(q)
            scene = _camera_frame_scene(rng, q, intr, int(rng.integers(1, 25)))
            boxes, nears = _pixel_boxes(scene, q.position, R_ws, intr)
            ref = [_pixel_box(prim, q.position, R_ws, intr) for prim in scene.primitives]
            assert boxes == [box for box, _ in ref]
            assert nears == [near for _, near in ref]
            scene_kinds = {_box_kind(box, prim, q, intr) for box, prim in zip(boxes, scene.primitives)}
            unclipped_scenes += "clipped" not in scene_kinds
            kinds |= scene_kinds
        assert _pixel_boxes(Scene(), Q0.position, world_to_camera_rotation(Q0), intr) == ([], [])
        assert kinds == {"culled", "full frame", "box", "clipped"}
        assert 0 < unclipped_scenes < 200, unclipped_scenes

    def test_culls_primitives_behind_or_beside_the_view(self, intr_small):
        behind = CountingBox((-3.0, -0.5, -0.5), (-2.0, 0.5, 0.5))
        beside = CountingBox((3.0, 20.0, -0.5), (4.0, 21.0, 0.5))
        ahead = CountingBox((3.0, -0.5, -0.5), (4.0, 0.5, 0.5))
        depth = render_scene_depth(Scene((behind, beside, ahead)), Q0, intr_small)
        depth.values
        assert behind.calls == [] and beside.calls == []
        assert 0 < sum(ahead.calls) < intr_small.width * intr_small.height

    def test_side_wall_being_passed_gets_few_rays(self, intr_small):
        """A corridor side wall running from behind the camera to 6 m ahead,
        3.4 m to one side, as the shipped corridor's walls are seen from
        x = 3: its near depth is z_near, yet a query at the image centre
        does not cast it, and a full frame casts it over the frame edge its
        near-plane-clipped box reaches."""
        wall = CountingBox((-5.0, 3.4, -1.2), (6.0, 3.9, 1.8))
        depth = render_scene_depth(Scene((wall,)), Q0, intr_small)
        cy, cx = intr_small.height // 2, intr_small.width // 2
        pixel = (cy, cy + 1, cx, cx + 1)
        assert depth.farther_than(pixel, _mask_over(pixel, np.ones((1, 1), bool)), 9.0)
        assert wall.calls == []
        assert np.any(depth.values < intr_small.max_depth)
        assert 0 < sum(wall.calls) < intr_small.width * intr_small.height // 2

    def test_corridor_mission_ray_primitive_count(self, monkeypatch):
        """Ray-primitive evaluations of one shipped corridor mission: 48,012
        when a check intersects only the primitives that can reach its
        footprint's farthest depth, 128,890 when each check cast every
        primitive over its window with near-plane clipped pixel boxes, and
        672,246 when every primitive straddling z_near was cast over the
        full frame."""
        count = [0]
        for cls in (Box, Sphere):
            def counted(self, origin, dirs, z_near, _intersect=cls.intersect):
                count[0] += dirs.size // 3
                return _intersect(self, origin, dirs, z_near)

            monkeypatch.setattr(cls, "intersect", counted)
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        assert count[0] <= 50_000, count[0]

    def test_corridor_mission_mask_element_count(self, monkeypatch):
        """Footprint mask elements one shipped corridor mission builds:
        48,012 when a check builds the disc mask only over the rectangles
        it casts (19 of the 26 in-view checks cast nothing), and 813,996
        when every footprint held its whole disc bitmap."""
        count = [0]

        def counted(self, y0, y1, x0, x1, _mask_over=RobotFootprint.mask_over):
            mask = _mask_over(self, y0, y1, x0, x1)
            count[0] += mask.size
            return mask

        monkeypatch.setattr(RobotFootprint, "mask_over", counted)
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        assert 0 < count[0] <= 50_000, count[0]

    def test_corridor_mission_rotations_per_image(self, monkeypatch):
        """One shipped corridor mission computes one world-to-camera
        rotation per rendered image: the footprints and the escape search
        project through the rotation the image holds, so checking more
        samples computes none (the mission checks 29 samples against 10
        images; 40 rotations when each footprint and escape search made
        its own)."""
        counts = {"rotations": 0, "renders": 0, "checks": 0}

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)

            return wrapped

        rotation = counting("rotations", frames.world_to_camera_rotation)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "depthnav" and hasattr(module, "world_to_camera_rotation"):
                monkeypatch.setattr(module, "world_to_camera_rotation", rotation)
        monkeypatch.setattr(planner, "render_scene_depth", counting("renders", planner.render_scene_depth))
        monkeypatch.setattr(collision, "check_configuration", counting("checks", collision.check_configuration))
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
        assert counts["checks"] > counts["renders"] > 0, counts
        assert counts["rotations"] == counts["renders"], counts

    def test_reads_cast_only_their_rectangle(self, intr_small):
        """A depth-bounded query intersects no primitive whose near depth
        lies beyond its reach, intersects the others only over its
        rectangle inside their pixel boxes, stops at the first primitive in
        front of its depth and keeps nothing; values is one full cast, and a
        second read casts nothing."""
        wall = CountingBox((3.0, -5.0, -5.0), (4.0, 5.0, 5.0))  # fills the view at 3 m
        post = CountingBox((1.5, -0.2, -0.2), (1.6, 0.2, 0.2))  # a small box nearer, at the centre
        depth = render_scene_depth(Scene((wall, post)), Q0, intr_small)
        (_, post_box), _ = _pixel_boxes(Scene((wall, post)), Q0.position, world_to_camera_rotation(Q0), intr_small)
        assert wall.calls == [] and post.calls == []
        corner, centre = (10, 13, 20, 26), (55, 65, 70, 100)
        assert depth.farther_than(corner, _mask_over(corner, np.ones((3, 6), bool)), 2.9)  # the wall is beyond reach
        assert wall.calls == [] and post.calls == []
        assert not depth.farther_than(corner, _mask_over(corner, np.ones((3, 6), bool)), 3.5)
        assert wall.calls == [3 * 6] and post.calls == []  # the corner lies outside the post's box
        assert not depth.farther_than(centre, _mask_over(centre, np.ones((10, 30), bool)), 2.9)
        y0, y1, x0, x1 = post_box
        overlap = (min(65, y1) - max(55, y0)) * (min(100, x1) - max(70, x0))
        assert 0 < overlap < 10 * 30
        assert wall.calls == [3 * 6] and post.calls == [overlap]
        assert not depth.farther_than(centre, _mask_over(centre, np.ones((10, 30), bool)), 3.5)  # the wall decides first
        assert wall.calls == [3 * 6, 10 * 30] and post.calls == [overlap]
        assert not depth.farther_than(corner, _mask_over(corner, np.ones((3, 6), bool)), 3.5)  # nothing was kept
        assert wall.calls == [3 * 6, 10 * 30, 3 * 6]
        del wall.calls[:], post.calls[:]
        depth.values
        assert wall.calls == [intr_small.width * intr_small.height]
        assert post.calls == [(y1 - y0) * (x1 - x0)]
        depth.values
        assert len(wall.calls) == len(post.calls) == 1


class TestCastMemory:
    def test_full_frames_keep_no_ray_grid_per_rotation(self, intr):
        """Ten full 640x480 frames at ten rotations allocate only each
        primitive's pixel-box rays and the image: a 1.6 MB peak measured,
        bounded at 6 MB, against about 17 MB for one float64 world-ray grid."""
        rng = np.random.default_rng(31)
        scene = _small_bodies(rng)
        render_scene_depth(scene, Q0, intr).values  # the scene's stacked corners are built once, untraced
        tracemalloc.start()
        try:
            for _ in range(10):
                q = Configuration(0.0, 0.0, 0.0, *rng.uniform(-0.3, 0.3, 3))
                render_scene_depth(scene, q, intr).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("camera", ["intr_small", "intr"])
    def test_rectangle_rays_equal_the_slice_of_a_frame_build(self, camera, request):
        """The rays built for a pixel rectangle equal, bit for bit, that
        rectangle's slice of the rays built for the whole frame, and so do
        their world directions after the image's rotation: over random
        rectangles, single pixels, rectangles on each image border and the
        whole frame."""
        intr = request.getfixturevalue(camera)
        h, w = intr.height, intr.width
        frame = _frame_rays(intr)
        assert frame.shape == (h, w, 3)
        rng = np.random.default_rng(37)
        rects = [(0, h, 0, w), (0, 1, 0, 1), (h - 1, h, w - 1, w), (0, 1, 0, w), (h - 1, h, 0, w),
                 (0, h, 0, 1), (0, h, w - 1, w), (0, 7, w - 9, w), (h - 5, h, 0, 3)]
        for _ in range(40):
            y0, x0 = int(rng.integers(h)), int(rng.integers(w))
            rects.append((y0, y0 + 1, x0, x0 + 1))
            y0, y1 = np.sort(rng.integers(0, h + 1, 2))
            x0, x1 = np.sort(rng.integers(0, w + 1, 2))
            rects.append((int(y0), int(max(y1, y0 + 1)), int(x0), int(max(x1, x0 + 1))))
        for _ in range(4):
            R_ws = world_to_camera_rotation(_random_pose(rng))
            for y0, y1, x0, x1 in rects:
                rays = _pixel_rays(intr, y0, y1, x0, x1)
                want = frame[y0:y1, x0:x1]
                assert rays.shape == want.shape and np.array_equal(rays.view(np.uint64), want.view(np.uint64))
                got_dirs, want_dirs = rays @ R_ws, want @ R_ws
                assert np.array_equal(got_dirs.view(np.uint64), want_dirs.view(np.uint64)), (y0, y1, x0, x1)

    def test_an_image_and_its_checks_leave_nothing_behind(self, intr, robot):
        """A 640x480 image cast in full and checked 60 times holds memory
        only while it lives: once it is dropped, the traced size is back
        within 64 KB of where it started. The camera is one no other test
        uses, so nothing built for an earlier image can hide what a new
        camera would keep."""
        camera = dataclasses.replace(intr, cx=intr.cx + 0.25)
        rng = np.random.default_rng(43)
        scene = _small_bodies(rng)
        points = [camera_to_world([*rng.uniform(-1.5, 1.5, 2), rng.uniform(1.0, 9.0)], Q0) for _ in range(60)]
        collision.check_configuration(points[0], render_scene_depth(scene, Q0, intr), robot)  # untraced warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            depth = render_scene_depth(scene, Q0, camera)
            depth.values
            verdicts = {collision.check_configuration(p, depth, robot) for p in points}
            held = tracemalloc.get_traced_memory()[0] - before
            del depth
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(verdicts) > 1, verdicts
        assert held >= camera.width * camera.height * 4, held
        assert left < 64e3, f"{left / 1e3:.1f} KB left"


def _small_bodies(rng):
    """Eight small boxes and spheres 4-8 m in front of the default pose."""
    prims = []
    for k in range(8):
        c = np.array([rng.uniform(4.0, 8.0), *rng.uniform(-1.5, 1.5, 2)])
        prims.append(Sphere(tuple(c), 0.2) if k % 2 else Box(tuple(c - 0.2), tuple(c + 0.2)))
    return Scene(tuple(prims))


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


def _bitmap_footprint(p, q, robot, intr):
    """The footprint as a whole disc bitmap trimmed to its tight box, built
    as render_robot_footprint once built it: (box, mask, farthest depth,
    fully in view, center pixel, pixel radius). The reference for the
    disc kept as 1-D offsets."""
    center_s = world_to_camera(p, q)
    zc = float(center_s[2])
    rho = robot.rho
    far = zc + rho
    if zc - rho < intr.z_near:
        return (0, 0, 0, 0), np.zeros((0, 0), bool), far, False, None, 0.0
    rx, ry = project(center_s, intr)
    secant = float(np.linalg.norm(center_s)) / zc
    pr = max(intr.fsx, intr.fsy) * rho / (zc - rho) * secant
    in_view = (rx - pr >= 0.0) and (rx + pr < intr.width) and (ry - pr >= 0.0) and (ry + pr < intr.height)
    ix_lo = max(int(np.floor(rx - pr)), 0)
    ix_hi = min(int(np.ceil(rx + pr)), intr.width - 1)
    iy_lo = max(int(np.floor(ry - pr)), 0)
    iy_hi = min(int(np.ceil(ry + pr)), intr.height - 1)
    dx2 = (np.arange(ix_lo, ix_hi + 1) + 0.5 - rx) ** 2
    dy2 = (np.arange(iy_lo, iy_hi + 1) + 0.5 - ry) ** 2
    mask = dy2[:, None] + dx2[None, :] <= pr * pr
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        cx_i = min(max(int(rx), 0), intr.width - 1)
        cy_i = min(max(int(ry), 0), intr.height - 1)
        box, mask = (cy_i, cy_i + 1, cx_i, cx_i + 1), np.ones((1, 1), bool)
    else:
        cols = np.flatnonzero(mask.any(axis=0))
        mask = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        y0, x0 = iy_lo + int(rows[0]), ix_lo + int(cols[0])
        box = (y0, y0 + mask.shape[0], x0, x0 + mask.shape[1])
    return box, mask, far, bool(in_view), (rx, ry), pr


def _footprint_sweep(intr, seed, n):
    """Seeded footprints at random 6-DoF poses, each with its bitmap
    reference and its kind: centred, in view, border-clipped (its box on an
    image border, partly out of view), off image, sub-pixel or before
    z_near. The centre is drawn in pixel coordinates up to a third of the
    frame beyond each border, or on the principal point, at a random depth,
    and each robot is drawn from radii of 2 mm to 1 m."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = _random_pose(rng)
        depth = render_scene_depth(Scene(), q, intr)
        robot = RobotModel(float(rng.choice([0.002, 0.05, 0.35, 1.0])))
        zc = rng.uniform(0.05, intr.z_near + robot.rho + 0.2) if rng.random() < 0.1 else rng.uniform(0.5, 12.0)
        if rng.random() < 0.2:
            u, v = intr.cx + rng.uniform(-1.0, 1.0), intr.cy + rng.uniform(-1.0, 1.0)
        else:
            u = rng.uniform(-0.3, 1.3) * intr.width
            v = rng.uniform(-0.3, 1.3) * intr.height
        p = camera_to_world([(u - intr.cx) * zc / intr.fsx, (v - intr.cy) * zc / intr.fsy, zc], q)
        ref = _bitmap_footprint(p, q, robot, intr)
        box, mask, _, in_view, center, pr = ref
        if center is None:
            kind = "near plane"
        elif not (0 <= center[0] < intr.width and 0 <= center[1] < intr.height) and mask.size == 1:
            kind = "off image"
        elif pr < 0.5 and mask.size == 1:
            kind = "sub-pixel"
        elif in_view:
            kind = "centred" if abs(center[0] - intr.cx) < 1 and abs(center[1] - intr.cy) < 1 else "in view"
        elif box[0] == 0 or box[2] == 0 or box[1] == intr.height or box[3] == intr.width:
            kind = "border-clipped"
        else:
            kind = "other"
        yield render_robot_footprint(p, depth, robot), ref, kind, rng


class TestRobotFootprint:
    def test_on_axis_sphere(self, intr):
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 3.0], Q0)
        fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
        assert fp.fully_in_view
        assert fp.farthest_depth == pytest.approx(3.3)
        assert fp.center_pixel == pytest.approx((intr.cx, intr.cy))
        assert fp.pixels.shape[0] > 0

    def test_near_plane_violation(self, intr):
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 0.4], Q0)
        fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
        assert not fp.fully_in_view

    def test_disc_exceeding_bounds(self, intr):
        robot = RobotModel(rho=0.3)
        # center near the image border with a large disc
        p = camera_to_world([2.3, 0.0, 3.0], Q0)
        fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
        assert not fp.fully_in_view

    def test_conservative_covers_all_surface_points(self, intr):
        """Every true sphere-surface projection lies inside the pixel disc."""
        rng = np.random.default_rng(12)
        robot = RobotModel(rho=0.35)
        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for center_s in ([0.0, 0.0, 3.0], [1.2, -0.8, 4.0], [-1.5, 0.9, 6.0]):
            p = camera_to_world(center_s, Q0)
            fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
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

    @pytest.mark.parametrize("camera", ["intr_small", "intr"])
    def test_disc_equals_the_trimmed_bitmap(self, camera, request):
        """The disc kept as 1-D offsets has the box and, bit for bit, the
        mask of the whole disc bitmap trimmed to its tight box, and the
        same depth, view flag, centre and radius, over a seeded sweep of
        centred, in-view, border-clipped, off-image, sub-pixel and
        before-z_near footprints."""
        intr = request.getfixturevalue(camera)
        kinds = {}
        for fp, (box, mask, far, in_view, center, pr), kind, _ in _footprint_sweep(intr, 83, 600):
            assert fp.box == box, kind
            assert fp.mask_over(*fp.box).shape == mask.shape and np.array_equal(fp.mask_over(*fp.box), mask), kind
            assert (fp.farthest_depth, fp.fully_in_view, fp.center_pixel, fp.pixel_radius) == (far, in_view, center, pr)
            iy, ix = np.nonzero(mask)
            assert np.array_equal(fp.pixels, np.stack([ix + box[2], iy + box[0]], axis=-1))
            kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) >= {"centred", "in view", "border-clipped", "off image", "sub-pixel", "near plane"}, kinds

    def test_mask_over_a_rectangle_is_the_slice_of_the_mask(self, intr):
        """The mask a check builds over any rectangle inside the box equals
        that rectangle's slice of the whole disc mask, single pixels, rows,
        columns and the whole box included."""
        rects = 0
        for fp, _, kind, rng in _footprint_sweep(intr, 89, 300):
            y0, y1, x0, x1 = fp.box
            if y0 == y1:
                continue
            mask = fp.mask_over(*fp.box)
            draws = [(y0, y1, x0, x1), (y0, y0 + 1, x0, x0 + 1), (y0, y1, x1 - 1, x1), (y1 - 1, y1, x0, x1)]
            for _ in range(6):
                a0, a1 = np.sort(rng.integers(y0, y1 + 1, 2))
                b0, b1 = np.sort(rng.integers(x0, x1 + 1, 2))
                draws.append((int(a0), int(a1), int(b0), int(b1)))
            for a0, a1, b0, b1 in draws:
                sub = fp.mask_over(a0, a1, b0, b1)
                assert sub.dtype == bool and np.array_equal(sub, mask[a0 - y0 : a1 - y0, b0 - x0 : b1 - x0]), kind
                rects += 1
        assert rects > 1000, rects

    def test_subpixel_disc_keeps_center_pixel(self, intr):
        robot = RobotModel(rho=0.001)
        p = camera_to_world([0.0, 0.0, 9.0], Q0)
        fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
        assert fp.pixels.shape[0] >= 1


class TestPfm:
    def test_round_trip_bit_exact(self, intr_small, tmp_path):
        scene = Scene((Sphere((4.0, 0.0, 0.0), 1.0),))
        depth = render_scene_depth(scene, Q0, intr_small)
        path = tmp_path / "depth.pfm"
        write_pfm(path, depth.values)
        back = read_pfm(path)
        assert back.shape == depth.values.shape
        assert np.array_equal(back, depth.values)
        assert back.dtype == np.float32

    def test_header_format(self, intr_small, tmp_path):
        depth = render_scene_depth(Scene(), Q0, intr_small)
        path = tmp_path / "depth.pfm"
        write_pfm(path, depth.values)
        with open(path, "rb") as f:
            assert f.readline().strip() == b"Pf"
            assert f.readline().split() == [b"160", b"120"]
            assert float(f.readline()) == -1.0

    def test_bytes_equal_the_reference_serialization(self, intr_small, tmp_path):
        """A C-contiguous float32 image, a strided window view of it and a
        float64 array are written byte for byte as three separate header
        lines followed by the bytes of the flipped rows cast to "<f4"."""

        def serialized(values):
            height, width = values.shape
            path = tmp_path / "reference.pfm"
            with open(path, "wb") as f:
                f.write(b"Pf\n")
                f.write(f"{width} {height}\n".encode("ascii"))
                f.write(b"-1.0\n")
                f.write(np.flipud(values).astype("<f4").tobytes())
            return path.read_bytes()

        rng = np.random.default_rng(71)
        scene = Scene((Sphere((4.0, 0.0, 0.0), 1.0), Box((6.0, -3.0, -1.0), (7.0, 0.5, 2.0))))
        depth = render_scene_depth(scene, Configuration(0.0, 0.0, 0.0, 0.0, 0.1, 0.2), intr_small)
        window = depth.values[10:90, 7:133]
        assert not window.flags.c_contiguous
        arrays = (depth.values, window, rng.uniform(0.1, 10.0, (37, 53)))
        for values in arrays:
            path = tmp_path / "depth.pfm"
            write_pfm(path, values)
            assert path.read_bytes() == serialized(values)
            assert np.array_equal(read_pfm(path), values.astype(np.float32))

    def test_read_rejects_non_pfm(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P6\n1 1\n255\n")
        with pytest.raises(ValueError):
            read_pfm(path)

    def test_full_frame_is_written_without_a_copy(self, intr, tmp_path):
        """A 640x480 image's values, stored bottom row first, are written
        without copying the 1.2 MB image: the write peaks below 64 KB
        traced. values[0] is still the top row, equal to a cast of every
        primitive over row 0's rays."""
        q = Configuration(0.0, 0.0, 0.0, 0.05, -0.1, 0.2)
        scene = _small_bodies(np.random.default_rng(47))
        values = render_scene_depth(scene, q, intr).values
        dirs = _pixel_rays(intr, 0, 1, 0, intr.width) @ world_to_camera_rotation(q)
        row = np.full((1, intr.width), np.inf)
        for prim in scene.primitives:
            row = np.minimum(row, prim.intersect(q.position, dirs, intr.z_near))
        top = np.where(np.isfinite(row), np.minimum(row, intr.max_depth), intr.max_depth).astype(np.float32)
        assert np.array_equal(values[0].view(np.uint32), top[0].view(np.uint32))
        assert np.any(values != np.float32(intr.max_depth))
        path = tmp_path / "depth.pfm"
        tracemalloc.start()
        try:
            write_pfm(path, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e3, f"peak {peak / 1e3:.1f} KB"
        assert np.array_equal(read_pfm(path).view(np.uint32), values.view(np.uint32))

    def test_read_rejects_a_truncated_payload(self, tmp_path):
        """The first 100 bytes of a 640x480 corridor render hold 84 payload
        bytes: the error names those and the 1 228 800 expected."""
        sc = load_scenario(SCENARIO_DIR / "corridor.json")
        full, cut = tmp_path / "full.pfm", tmp_path / "cut.pfm"
        write_pfm(full, render_scene_depth(sc.scene, Configuration(*sc.x0.p), sc.intrinsics).values)
        cut.write_bytes(full.read_bytes()[:100])
        with pytest.raises(ValueError, match=r"holds 84 bytes, expected 1228800 for 640x480"):
            read_pfm(cut)

    def test_read_rejects_a_size_beyond_the_file_without_reading_it(self, tmp_path):
        """A size line claiming more than any buffer can hold is rejected
        by what the file holds, not by an attempt to read the claim."""
        path = tmp_path / "huge.pfm"
        path.write_bytes(b"Pf\n999999999999 999999999999\n-1.0\n" + bytes(64))
        with pytest.raises(ValueError, match=r"holds 64 bytes, expected 3999999999992000000000004 for"):
            read_pfm(path)

    @pytest.mark.parametrize("size", [b"640", b"640 480 1", b"0 480", b"640 -480", b"a b", b"6.5 4", b""])
    def test_read_rejects_a_bad_size_line(self, size, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n" + size + b"\n-1.0\n" + bytes(64))
        with pytest.raises(ValueError, match="size line must be two positive integers"):
            read_pfm(path)
