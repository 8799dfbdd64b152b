import math

import numpy as np
import pytest

from depthnav import Box, OracleReport, Scene, Sphere, Wall, brute_force_collision, verify_mission
from depthnav.oracle import CLEARANCE_SENTINEL


def _rows(points, ts=0.2):
    return [
        {"t": i * ts, "mode": "l0", "px": p[0], "py": p[1], "pz": p[2],
         "vx": 0.0, "vy": 0.0, "vz": 0.0, "ux": 0.0, "uy": 0.0, "uz": 0.0, "event": "none"}
        for i, p in enumerate(points)
    ]


def _norm(d) -> float:
    d0, d1, d2 = d.tolist()
    return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)


class TestDistance:
    def test_norms_are_summed_in_axis_order(self):
        """Each distance is sqrt(d0*d0 + d1*d1 + d2*d2) of its offset, bit
        for bit, so it does not depend on the host's BLAS kernel."""
        box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        sphere = Sphere((0.5, -1.0, 2.0), 0.4)
        for p in np.random.default_rng(5).uniform(-5.0, 5.0, (200, 3)):
            assert box.distance(p) == _norm(np.clip(p, box._lo, box._hi) - p)
            assert sphere.distance(p) == max(_norm(p - sphere._center) - 0.4, 0.0)

    def test_tilted_wall_axes_are_summed_in_axis_order(self):
        """A tilted wall's in-plane axis u is cross(ref, n) over its
        axis-order length, bit for bit, and v is cross(n, u), so the wall's
        distances do not depend on the host's BLAS kernel either."""
        rng = np.random.default_rng(0)
        for _ in range(40):
            raw = rng.normal(size=3)
            n = raw / _norm(raw)
            wall = Wall((0.0, 0.0, 0.0), tuple(n.tolist()), (1.0, 1.0))
            u = np.cross([0.0, 0.0, 1.0] if abs(n[2]) < 0.9 else [1.0, 0.0, 0.0], n)
            u /= _norm(u)
            assert [a.tolist() for a in wall._axes] == [u.tolist(), np.cross(n, u).tolist()]

    def test_wall_distance_clamps_to_its_rectangle(self):
        # in-plane axes u = -y and v = +z
        wall = Wall((9.0, 2.0, 1.0), (-1.0, 0.0, 0.0), (0.5, 0.5))
        assert wall.distance([8.0, 2.0, 1.0]) == 1.0
        assert wall.distance([9.0, 2.2, 0.7]) == 0.0
        assert wall.distance([8.0, 2.8, 1.9]) == pytest.approx(math.sqrt(1.25), abs=1e-12)


class TestBruteForceCollision:
    def test_center_inside_box(self):
        scene = Scene((Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),))
        assert brute_force_collision(scene, [0.5, 0.5, 0.5], 0.1)

    def test_strict_separation_is_free(self):
        scene = Scene((Sphere((0.0, 0.0, 0.0), 1.0),))
        assert not brute_force_collision(scene, [1.0 + 0.35 + 0.01, 0.0, 0.0], 0.35)

    def test_boundary_contact_counts_as_collision(self):
        scene = Scene((Box((0.35, -1.0, -1.0), (1.0, 1.0, 1.0)),))
        assert brute_force_collision(scene, [0.0, 0.0, 0.0], 0.35)

    def test_empty_scene_is_free(self):
        assert not brute_force_collision(Scene(), [0.0, 0.0, 0.0], 0.35)

    def test_rejects_nonpositive_rho(self):
        # NaN compares false with everything: it must not read as "no collision"
        for rho in (0.0, float("nan")):
            with pytest.raises(ValueError):
                brute_force_collision(Scene(), [0.0, 0.0, 0.0], rho)
            with pytest.raises(ValueError):
                verify_mission(_rows([[0, 0, 0], [1, 0, 0]]), Scene(), rho)


class TestVerifyMission:
    def test_empty_scene_log(self):
        report = verify_mission(_rows([[0, 0, 0], [1, 0, 0], [2, 0, 0]]), Scene(), 0.35)
        assert isinstance(report, OracleReport)
        assert report.violation_count == 0
        assert report.min_clearance == CLEARANCE_SENTINEL

    def test_gap_threading_clearance(self):
        # 1.2 m corridor between two walls; rho 0.35 leaves at most 0.25 m
        scene = Scene(
            (
                Box((0.0, 0.6, -2.0), (5.0, 2.0, 2.0)),
                Box((0.0, -2.0, -2.0), (5.0, -0.6, 2.0)),
            )
        )
        points = [[x, 0.0, 0.0] for x in np.linspace(0.0, 5.0, 26)]
        report = verify_mission(_rows(points), scene, 0.35)
        assert report.violation_count == 0
        assert report.min_clearance <= 0.25

    def test_wall_punch_is_flagged(self):
        scene = Scene((Box((2.0, -1.0, -1.0), (2.5, 1.0, 1.0)),))
        points = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]  # segment passes through the box
        report = verify_mission(_rows(points), scene, 0.35)
        assert report.violation_count >= 1
        assert report.min_clearance < 0.0

    def test_midpoint_refinement_catches_skips(self):
        # samples straddle a thin obstacle that only the swept check sees
        scene = Scene((Box((0.9, -1.0, -1.0), (1.1, 1.0, 1.0)),))
        points = [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]
        report = verify_mission(_rows(points), scene, 0.1)
        assert report.violation_count >= 1

    def test_violation_count_matches_flags(self):
        scene = Scene((Box((2.0, -1.0, -1.0), (2.5, 1.0, 1.0)),))
        report = verify_mission(_rows([[0, 0, 0], [4, 0, 0]]), scene, 0.35)
        assert report.violation_count == sum(report.flags)

    def test_empty_log_raises(self):
        with pytest.raises(ValueError):
            verify_mission([], Scene(), 0.35)
