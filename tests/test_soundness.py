"""Soundness gates that only tighten.

The ratchet flies the benchmark's 96-scene clutter sweep at 160x120 for two
seeds, verifies every mission with the brute-force oracle, and bounds how
many missions the oracle flags and how many reach the goal with a clean
sweep (ROADMAP item 20). A change that makes the planner safer lowers the
flagged bound and raises the clean one in the same change; no change may
loosen them.

The point falsifier places one small box or sphere so that it grazes a
hallucinated robot, and requires that no "free" verdict hides more than one
pixel's width of penetration at the robot's depth (ROADMAP item 18 (i)).
"""

import collections
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from depthnav import (
    Box,
    CameraIntrinsics,
    Configuration,
    RobotModel,
    Scene,
    Sphere,
    camera_to_world,
    check_configuration,
    collision,
    oracle,
    planner,
    render_scene_depth,
)

# the clutter generator is the benchmark's own, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

# per seed: at most this many oracle-flagged missions, and at least this
# many that reach the goal with a clean sweep (measured: 19 / 68 and 20 / 71)
FLAGGED_AT_MOST = {7: 19, 1001: 20}
CLEAN_AT_LEAST = {7: 68, 1001: 71}


@pytest.mark.parametrize("seed", sorted(FLAGGED_AT_MOST))
def test_clutter_sweep_soundness_ratchet(seed, tmp_path):
    """Each flagged mission's first violation is printed by the mode and
    check reason of the executed sample that ends it (run with -s)."""
    sweep = workloads.ClutterSweep(seed, tmp_path)
    flagged, clean = 0, 0
    firsts = collections.Counter()
    for scene in sweep.scenes:
        out = planner.run_mission(scene, sweep.x0, sweep.goal, sweep.cfg, sweep.intr, sweep.robot)
        report = oracle.verify_mission(out.rows, scene, sweep.robot.rho)
        if report.violation_count:
            flagged += 1
            row = report.first_violation
            firsts[f"{out.modes[row]} {out.reasons[row]}"] += 1
        else:
            clean += out.reached_goal
    print(f"seed {seed}: {flagged} flagged, {clean} clean; first violations:",
          ", ".join(f"{k} {n}" for k, n in sorted(firsts.items())))
    assert flagged <= FLAGGED_AT_MOST[seed], dict(firsts)
    assert clean >= CLEAN_AT_LEAST[seed]


CAMERA = Configuration(0.0, 0.0, 1.2)
ROBOT = RobotModel(0.35)
CAMERAS = {
    "160x120": CameraIntrinsics(fsx=96.25, fsy=96.25, cx=80.0, cy=60.0, width=160, height=120),
    "640x480": CameraIntrinsics(fsx=385.0, fsy=385.0, cx=320.0, cy=240.0, width=640, height=480),
}
CASES = 4000


def _free_penetrations(intr) -> list:
    """Over CASES seeded cases the oracle calls a collision, the
    penetration of each one read "free", in pixel widths at the robot's
    depth (z / f). A case puts the robot 1.6-8 m ahead of the camera, its
    centre on a pixel drawn over the whole frame, and one box or sphere of
    half-size 0.02-0.3 m along a random direction from it: a sphere
    penetrates by a drawn 0-0.05 m, a box, placed by its centre, by at
    least that."""
    rng = np.random.default_rng(0)
    found, free = 0, []
    while found < CASES:
        zc = rng.uniform(1.6, 8.0)
        u, v = rng.uniform(0.0, intr.width), rng.uniform(0.0, intr.height)
        p = camera_to_world([(u - intr.cx) * zc / intr.fsx, (v - intr.cy) * zc / intr.fsy, zc], CAMERA)
        d = rng.normal(size=3)
        half = rng.uniform(0.02, 0.3)
        c = p + (ROBOT.rho - rng.uniform(0.0, 0.05) + half) / math.sqrt(d @ d) * d
        if rng.random() < 0.5:
            prim = Sphere(tuple(c.tolist()), half)
        else:
            prim = Box(tuple((c - half).tolist()), tuple((c + half).tolist()))
        depth_in = ROBOT.rho - prim.distance(p)
        if depth_in < 0.0:  # a graze the oracle rounds to clear
            continue
        found += 1
        if check_configuration(p, render_scene_depth(Scene((prim,)), CAMERA, intr), ROBOT) == "free":
            free.append(depth_in / (zc / max(intr.fsx, intr.fsy)))
    return free


@pytest.mark.parametrize("camera", sorted(CAMERAS))
def test_no_free_verdict_hides_more_than_a_pixel(camera):
    """A "free" verdict may miss a sliver thinner than the pixel grid
    resolves (measured worst: 0.77 of a pixel's width at 160x120, and no
    "free" case at 640x480), never more."""
    free = _free_penetrations(CAMERAS[camera])
    print(f"{camera}: {len(free)} free of {CASES}, worst {max(free, default=0.0):.2f} px")
    assert not [px for px in free if px > 1.0], sorted(free)[-5:]


def _thin_disc(center_s, intr, rho, _disc=collision._disc):
    """The footprint disc without its secant and with zc in place of
    zc - rho: radius rho * f / zc, too small to hold the sphere."""
    far, box, disc = _disc(center_s, intr, rho)
    if disc is None:
        return far, box, disc
    rx, ry, _ = disc
    pr = max(intr.fsx, intr.fsy) * rho / center_s[2]
    box = (math.floor(ry - pr), math.ceil(ry + pr) + 1, math.floor(rx - pr), math.ceil(rx + pr) + 1)
    return far, box, (rx, ry, pr)


@pytest.mark.parametrize("camera", sorted(CAMERAS))
def test_the_falsifier_catches_a_thin_disc(camera, monkeypatch):
    """The falsifier has teeth: with the thin disc, some "free" verdicts
    hide more than a pixel's width of penetration."""
    monkeypatch.setattr(collision, "_disc", _thin_disc)
    assert any(px > 1.0 for px in _free_penetrations(CAMERAS[camera]))
