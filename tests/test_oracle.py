import numpy as np
import pytest

from depthnav import Box, OracleReport, Scene, Sphere, brute_force_collision, verify_mission
from depthnav.oracle import CLEARANCE_SENTINEL


def _rows(points, ts=0.2):
    return [
        {"t": i * ts, "mode": "l0", "px": p[0], "py": p[1], "pz": p[2],
         "vx": 0.0, "vy": 0.0, "vz": 0.0, "ux": 0.0, "uy": 0.0, "uz": 0.0, "event": "none"}
        for i, p in enumerate(points)
    ]


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
