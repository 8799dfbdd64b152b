import warnings

import numpy as np
import pytest

from depthnav import (
    Box,
    CameraIntrinsics,
    Configuration,
    RobotModel,
    Scene,
    Verdict,
    Wall,
    Sphere,
    camera_to_world,
    check_configuration,
    find_escape,
    project,
    render_robot_footprint,
    render_scene_depth,
    waypoints2collision,
    world_to_camera,
)
from depthnav import collision
from depthnav.frames import world_to_camera_rotation
from depthnav.oracle import brute_force_collision
from depthnav.scene import _pixel_rays, _ray_offsets

from conftest import CountingBox

Q0 = Configuration(0.0, 0.0, 0.0)


@pytest.fixture
def wall_scene(intr):
    """Frustum-covering wall at camera depth 5."""
    wall = Wall((5.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (50.0, 50.0))
    scene = Scene((wall,))
    return scene, render_scene_depth(scene, Q0, intr)


class TestCheckConfiguration:
    def test_free_in_front_of_wall(self, wall_scene, intr):
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 3.0], Q0)  # farthest 3.3 < 5.0
        assert check_configuration(p, depth, robot) is Verdict.FREE

    def test_collision_behind_wall_surface(self, wall_scene, intr):
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 5.0], Q0)  # farthest 5.3 > 5.0
        assert check_configuration(p, depth, robot) is Verdict.COLLISION

    def test_out_of_view(self, wall_scene, intr):
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        p = camera_to_world([5.0, 0.0, 3.0], Q0)  # projects far outside the image
        assert check_configuration(p, depth, robot) is Verdict.OUT_OF_VIEW


class TestWaypoints2Collision:
    """A lookahead is checked from its start sample's successor on; every
    index refers to the whole lookahead, start sample first."""

    def test_all_free(self, wall_scene, intr):
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        lookahead = [camera_to_world([0.0, 0.0, z], Q0) for z in (0.0, 2.0, 2.4, 2.8, 3.2, 3.6)]
        assert waypoints2collision(lookahead, depth, robot) == (Verdict.FREE, None)

    def test_first_collision_index(self, wall_scene, intr):
        scene, depth = wall_scene
        robot = RobotModel(rho=0.3)
        zs = [0.0, 2.0, 2.5, 3.0, 4.9, 3.0]
        lookahead = [camera_to_world([0.0, 0.0, z], Q0) for z in zs]
        verdict, idx = waypoints2collision(lookahead, depth, robot)
        assert (verdict, idx) == (Verdict.COLLISION, 4)
        # cross-check against the 3D oracle: only that sample truly intersects
        assert brute_force_collision(scene, lookahead[4], robot.rho)
        assert not any(brute_force_collision(scene, lookahead[i], robot.rho) for i in (0, 1, 2, 3, 5))

    def test_out_of_view_index(self, wall_scene, intr):
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        lookahead = [camera_to_world([0.0, 0.0, z], Q0) for z in (0.0, 2.0, 2.4, 2.8, 3.2)]
        lookahead.append(camera_to_world([5.0, 0.0, 3.0], Q0))
        assert waypoints2collision(lookahead, depth, robot) == (Verdict.OUT_OF_VIEW, 5)

    def test_start_sample_is_never_read(self, wall_scene, intr):
        """The start sample is the end of the trajectory already held: a
        lookahead starting behind the wall but free after it is FREE."""
        _, depth = wall_scene
        robot = RobotModel(rho=0.3)
        lookahead = [camera_to_world([0.0, 0.0, z], Q0) for z in (5.0, 3.6, 3.2, 2.8)]
        assert check_configuration(lookahead[0], depth, robot) is Verdict.COLLISION
        assert waypoints2collision(lookahead, depth, robot) == (Verdict.FREE, None)

    def test_blind_lookahead_reads_nothing(self, intr, robot):
        """Samples within the blind-zone radius of the camera are skipped,
        even ones whose footprint fits the image and would collide: a
        lookahead wholly inside it is FREE and casts no ray."""
        blind = collision._blind_zone_radius(intr, robot)
        box = CountingBox((1.4, -5.0, -5.0), (2.0, 5.0, 5.0))  # fills the view at 1.4 m
        depth = render_scene_depth(Scene((box,)), Q0, intr)
        lookahead = [camera_to_world([0.0, 0.0, z], Q0) for z in (0.0, 0.3, 0.6, 0.9, 1.2)]
        assert all(np.linalg.norm(p - Q0.position) <= blind for p in lookahead)
        assert waypoints2collision(lookahead, depth, robot) == (Verdict.FREE, None)
        assert box.calls == []
        # the last sample, were it read, would cast the box and collide
        assert check_configuration(lookahead[-1], depth, robot) is Verdict.COLLISION
        assert box.calls != []

    def test_empty_list_raises(self, wall_scene, intr):
        _, depth = wall_scene
        with pytest.raises(ValueError):
            waypoints2collision(np.empty((0, 3)), depth, RobotModel())


def _gap_scene(gap_lo: float, gap_hi: float):
    """Wall at x = 4 spanning the view, with a horizontal slot z in (gap_lo, gap_hi)."""
    lower = Box((4.0, -8.0, -8.0), (4.2, 8.0, gap_lo))
    upper = Box((4.0, -8.0, gap_hi), (4.2, 8.0, 8.0))
    return Scene((lower, upper))


class TestFindEscape:
    def test_gap_above_found_at_first_ring(self, intr, robot):
        scene = _gap_scene(0.5, 1.5)
        depth = render_scene_depth(scene, Q0, intr)
        p_hit = np.array([4.0, 0.0, 0.0])
        res = find_escape(p_hit, depth, 1.0, 20, robot)
        assert not res.stuck
        assert np.allclose(res.position, [4.0, 0.0, 1.0], atol=1e-12)  # up, k = 1

    def test_sealed_frustum_is_stuck(self, intr, robot):
        wall = Wall((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (50.0, 50.0))
        scene = Scene((wall,))
        depth = render_scene_depth(scene, Q0, intr)
        res = find_escape(np.array([1.0, 0.0, 0.0]), depth, 0.5, 20, robot)
        assert res.stuck

    def test_search_starts_at_ring_one(self, intr, robot, monkeypatch):
        """The hit point is known to collide, so the first check is the first
        ring-1 candidate, and here that one is free and returned."""
        depth = render_scene_depth(_gap_scene(0.5, 1.5), Q0, intr)
        checked = []

        def counting_check(p, *args):
            checked.append(np.array(p, dtype=float))
            return check_configuration(p, *args)

        monkeypatch.setattr(collision, "check_configuration", counting_check)
        res = find_escape(np.array([4.0, 0.0, 0.0]), depth, 1.0, 20, robot)
        assert len(checked) == 1
        assert np.array_equal(checked[0], res.position)

    def test_ring_index_is_minimal(self, intr, robot):
        scene = _gap_scene(1.1, 2.9)  # slot centered two steps up for d_l = 1
        depth = render_scene_depth(scene, Q0, intr)
        p_hit = np.array([4.0, 0.0, 0.0])
        res = find_escape(p_hit, depth, 1.0, 20, robot)
        assert not res.stuck
        returned_k = round(float(np.linalg.norm(res.position - p_hit)) / 1.0)
        free_ks = []
        from depthnav.frames import world_to_camera_rotation
        from depthnav.collision import _DIRECTIONS

        R_sw = world_to_camera_rotation(Q0).T
        for k in range(1, 21):
            for d in _DIRECTIONS:
                cand = p_hit + k * 1.0 * (R_sw @ d)
                if check_configuration(cand, depth, robot) is Verdict.FREE:
                    free_ks.append(k)
        assert returned_k == min(free_ks)

    def test_deterministic_over_repeats(self, intr, robot):
        scene = _gap_scene(0.5, 1.5)
        depth = render_scene_depth(scene, Q0, intr)
        p_hit = np.array([4.0, 0.0, 0.0])
        payloads = {
            find_escape(p_hit, depth, 1.0, 20, robot).position.tobytes()
            for _ in range(10)
        }
        assert len(payloads) == 1

    def test_invalid_parameters(self, intr, robot):
        depth = render_scene_depth(Scene(), Q0, intr)
        with pytest.raises(ValueError):
            find_escape([1.0, 0.0, 0.0], depth, 0.0, 20, robot)
        with pytest.raises(ValueError):
            find_escape([1.0, 0.0, 0.0], depth, 0.5, 0, robot)


class TestSoundness:
    def test_free_never_contradicts_oracle(self, intr_small):
        """Depth-space Free must imply 3D-oracle free (occlusion only tightens),
        from random 6-DoF poses: the boxes and the sample are placed in the
        camera frame, so a check that read the wrong pose misplaces them."""
        rng = np.random.default_rng(42)
        robot = RobotModel(rho=0.35)
        free = violations = 0
        for _ in range(400):
            q = Configuration(*rng.uniform(-3.0, 3.0, 3), *rng.uniform(-np.pi, np.pi, 3))
            prims = []
            for _ in range(int(rng.integers(1, 4))):
                c = camera_to_world([rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5), rng.uniform(2.0, 8.0)], q)
                prims.append(Box(tuple(c - rng.uniform(0.3, 1.0, 3)), tuple(c + rng.uniform(0.3, 1.0, 3))))
            scene = Scene(tuple(prims))
            depth = render_scene_depth(scene, q, intr_small)
            p = camera_to_world([rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8), rng.uniform(1.5, 7.0)], q)
            if check_configuration(p, depth, robot) is Verdict.FREE:
                free += 1
                violations += brute_force_collision(scene, p, robot.rho)
        assert violations == 0
        assert 0 < free < 400  # both verdicts occur


def _pixel_list_footprint(p, q, robot, intr):
    """The footprint as the (N, 2) meshgrid list of (ix, iy) pixels it once
    was, with its farthest depth, whether it is fully in view, and which
    branch built it: "near plane", "out of view", "sub-pixel" or "disc".
    A footprint not wholly in view lists no pixel; an in-view one is built
    with the image clamps the renderer no longer needs."""
    center_s = world_to_camera(p, q)
    zc = float(center_s[2])
    far = zc + robot.rho
    if zc - robot.rho < intr.z_near:
        return np.empty((0, 2), dtype=int), far, False, "near plane"
    rx, ry = project(center_s, intr)
    secant = float(np.linalg.norm(center_s)) / zc
    pr = max(intr.fsx, intr.fsy) * robot.rho / (zc - robot.rho) * secant
    in_view = (rx - pr >= 0.0) and (rx + pr < intr.width) and (ry - pr >= 0.0) and (ry + pr < intr.height)
    if not in_view:
        return np.empty((0, 2), dtype=int), far, False, "out of view"
    ix_lo = max(int(np.floor(rx - pr)), 0)
    ix_hi = min(int(np.ceil(rx + pr)), intr.width - 1)
    iy_lo = max(int(np.floor(ry - pr)), 0)
    iy_hi = min(int(np.ceil(ry + pr)), intr.height - 1)
    gx, gy = np.meshgrid(np.arange(ix_lo, ix_hi + 1), np.arange(iy_lo, iy_hi + 1))
    mask = (gx + 0.5 - rx) ** 2 + (gy + 0.5 - ry) ** 2 <= pr * pr
    pix = np.stack([gx[mask], gy[mask]], axis=-1)
    if pix.shape[0] == 0:
        cx_i = min(max(int(rx), 0), intr.width - 1)
        cy_i = min(max(int(ry), 0), intr.height - 1)
        return np.array([[cx_i, cy_i]], dtype=int), far, True, "sub-pixel"
    return pix, far, True, "disc"


def _edge_sample(rng, intr, rho, zc):
    """A camera-frame centre whose disc edge lies within a pixel or two of
    one image border, on either side of it (a few fixed-point steps on the
    secant-scaled radius)."""
    side, u = int(rng.integers(4)), rng.uniform(-1.0, 2.0)
    x, y = rng.uniform(-0.5, 0.5, 2) * zc
    for _ in range(4):
        pr = max(intr.fsx, intr.fsy) * rho / (zc - rho) * np.linalg.norm([x, y, zc]) / zc
        if side == 0:
            x = (pr + u - intr.cx) * zc / intr.fsx
        elif side == 1:
            x = (intr.width - pr - u - intr.cx) * zc / intr.fsx
        elif side == 2:
            y = (pr + u - intr.cy) * zc / intr.fsy
        else:
            y = (intr.height - pr - u - intr.cy) * zc / intr.fsy
    return [x, y, zc]


class TestMaskWindow:
    @pytest.mark.parametrize("camera", ["intr_small", "intr"])
    def test_verdict_matches_the_pixel_list(self, camera, request):
        """check_configuration (a depth-bounded query that builds the disc
        mask only over the rectangles it casts) equals the verdict of the
        meshgrid pixel list read from a full cast, the disc mask over its
        box reads that list's bits from the checked image's values, and
        fp.pixels is that list in content and row-major order, at random
        6-DoF poses: discs anywhere in and around the view, discs touching
        an image border, sub-pixel discs, and the empty footprints of discs
        leaving the image and of spheres reaching before z_near."""
        intr = request.getfixturevalue(camera)
        rng = np.random.default_rng(77)
        robots = [RobotModel(rho) for rho in (0.002, 0.05, 0.35)]
        verdicts = {v: 0 for v in Verdict}
        kinds = {"near plane": 0, "out of view": 0, "sub-pixel": 0, "disc": 0, "touching": 0}
        for _ in range(12):
            q = Configuration(*rng.uniform(-3.0, 3.0, 3), *rng.uniform(-np.pi, np.pi, 3))
            prims = []
            for _ in range(int(rng.integers(2, 6))):
                c = camera_to_world([rng.uniform(-2.0, 2.0), rng.uniform(-1.5, 1.5), rng.uniform(1.5, 8.0)], q)
                if rng.random() < 0.5:
                    prims.append(Box(tuple(c - rng.uniform(0.2, 1.0, 3)), tuple(c + rng.uniform(0.2, 1.0, 3))))
                else:
                    prims.append(Sphere(tuple(c), float(rng.uniform(0.2, 1.0))))
            scene = Scene(tuple(prims))
            values = render_scene_depth(scene, q, intr).values
            depth = render_scene_depth(scene, q, intr)  # checked lazily, shared by the samples
            for _ in range(30):
                robot = robots[rng.integers(len(robots))]
                draw = rng.integers(3)
                if draw == 0:
                    zc = rng.uniform(1.0, 10.0)
                    c_s = [zc * rng.uniform(-1.0, 1.0), zc * rng.uniform(-0.8, 0.8), zc]
                elif draw == 1:
                    c_s = _edge_sample(rng, intr, robot.rho, rng.uniform(1.5, 10.0))
                else:
                    zc = rng.uniform(0.05, intr.z_near + robot.rho + 0.1)
                    c_s = [zc * rng.uniform(-0.5, 0.5), zc * rng.uniform(-0.5, 0.5), zc]
                p = camera_to_world(c_s, q)
                pix, far, in_view, kind = _pixel_list_footprint(p, q, robot, intr)
                if not in_view:
                    want = Verdict.OUT_OF_VIEW
                elif np.all(far < values[pix[:, 1], pix[:, 0]]):
                    want = Verdict.FREE
                else:
                    want = Verdict.COLLISION
                assert check_configuration(p, depth, robot) is want, (c_s, robot.rho)
                fp = render_robot_footprint(p, depth, robot)
                assert fp.pixels.shape == pix.shape and np.array_equal(fp.pixels, pix)
                y0, y1, x0, x1 = fp.box
                under = depth.values[y0:y1, x0:x1][fp.mask_over(*fp.box)]
                assert np.array_equal(under.view(np.uint32), values[pix[:, 1], pix[:, 0]].view(np.uint32))
                assert in_view or fp.box == (0, 0, 0, 0), kind
                verdicts[want] += 1
                kinds[kind] += 1
                kinds["touching"] += in_view and (y0 == 0 or x0 == 0 or y1 == intr.height or x1 == intr.width)
        assert all(verdicts.values()), verdicts
        assert all(kinds.values()), kinds


def _full_cast_verdict(p, depth, robot):
    """The verdict read from the image's full cast, as the check reads it."""
    fp = render_robot_footprint(p, depth, robot)
    if not fp.fully_in_view:
        return Verdict.OUT_OF_VIEW
    y0, y1, x0, x1 = fp.box
    return Verdict.FREE if np.all(fp.farthest_depth < depth.values[y0:y1, x0:x1][fp.mask_over(*fp.box)]) else Verdict.COLLISION


class TestBoundedCheck:
    """Edges of the depth-bounded query; each verdict equals the one read
    from a full cast of the same image."""

    def test_hit_rounding_to_the_farthest_depth_collides(self, intr_small):
        """A surface a hair beyond the farthest depth in float64, at the same
        float32, is not in front of the footprint: its near depth lies
        beyond the farthest depth, but within the skip margin."""
        robot = RobotModel(rho=0.3)
        p = camera_to_world([0.0, 0.0, 3.0], Q0)
        far = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr_small), robot).farthest_depth
        face = far + 1e-8
        assert far < face and np.float32(far) == np.float32(face)
        depth = render_scene_depth(Scene((Box((face, -50.0, -50.0), (face + 1.0, 50.0, 50.0)),)), Q0, intr_small)
        assert check_configuration(p, depth, robot) is Verdict.COLLISION
        assert _full_cast_verdict(p, depth, robot) is Verdict.COLLISION

    def test_empty_scene_footprint_reaching_max_depth_is_not_free(self, intr_small):
        """With nothing to hit, a fully-in-view footprint is free only when
        its farthest depth lies below max_depth in float32."""
        robot = RobotModel(rho=0.35)
        top = intr_small.max_depth - robot.rho
        depth = render_scene_depth(Scene(), Q0, intr_small)
        verdicts = []
        for zc in (top - 1.0, top - 1e-7, top, top + 2.0):
            p = camera_to_world([0.0, 0.0, zc], Q0)
            assert render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr_small), robot).fully_in_view
            verdicts.append(check_configuration(p, depth, robot))
            assert verdicts[-1] is _full_cast_verdict(p, depth, robot)
        assert verdicts == [Verdict.FREE] + [Verdict.COLLISION] * 3

    def test_grazing_hit_beyond_float32_warns_nothing(self):
        """Horizon rays graze a floor far below the camera and hit it at a
        float64 depth past the float32 range; the check clamps before it
        rounds, as the cast does, and raises no RuntimeWarning."""
        intr = CameraIntrinsics(fsx=96.25, fsy=96.25, cx=80.0, cy=60.5, width=160, height=120)
        robot = RobotModel(rho=0.35)
        floor = Box((-1.0, -1e45, -1e45), (1e45, 1e45, -1e21))
        p = camera_to_world([0.0, 0.0, 3.0], Q0)
        fp = render_robot_footprint(p, render_scene_depth(Scene(), Q0, intr), robot)
        y0, y1, x0, x1 = fp.box
        dirs = _pixel_rays(_ray_offsets(intr), y0, y1, x0, x1) @ world_to_camera_rotation(Q0)
        t = floor.intersect(Q0.position, dirs, intr.z_near)[fp.mask_over(*fp.box)]
        assert np.any(np.isfinite(t) & (t > np.finfo(np.float32).max))
        depth = render_scene_depth(Scene((floor,)), Q0, intr)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = check_configuration(p, depth, robot)
            assert got is _full_cast_verdict(p, depth, robot)
        assert got is Verdict.FREE
