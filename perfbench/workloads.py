"""Workloads of the depthnav benchmark: seeded inputs, set-up, and one
closed-loop task at a time (a mission verified by the oracle, or one frame
rendered through the CLI and spot-checked).

Importing this module imports numpy and depthnav, from the checkout's
``src`` directory, so that set-up time includes the imports. The program
receives only the generated scenes, scenario files and poses.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import depthnav  # noqa: E402

if Path(depthnav.__file__).resolve().parent != SRC / "depthnav":
    raise ImportError(f"depthnav was imported from {depthnav.__file__}, not from {SRC}")

# run_mission, verify_mission and cli are called through their modules so
# that the traced run sees them
from depthnav import cli, oracle, planner  # noqa: E402
from depthnav.frames import CameraIntrinsics, Configuration  # noqa: E402
from depthnav.lqr import StateVec  # noqa: E402
from depthnav.scenario import load_scenario  # noqa: E402
from depthnav.scene import Box, RobotModel, Scene, Sphere, render_scene_depth  # noqa: E402

CORRIDOR = ROOT / "scenarios" / "corridor.json"
START = (0.0, 0.0, 1.2)


@dataclass
class TaskResult:
    key: int  # which distinct input ran: equal keys must give equal digests
    digest: str
    busy_s: float  # run_mission + verify_mission, or the whole render CLI call
    main_s: float  # run_mission alone, or the render CLI call
    clean: bool  # reached the goal with no oracle violation / frame passed its checks
    failed: bool  # raised, non-zero exit, or failed spot check
    outcome: str  # mission status, "frame", or "raised"
    problems: list = field(default_factory=list)  # failed deterministic checks
    note: str = ""  # what the oracle flagged, or why a frame failed
    flagged: bool = False  # the oracle flags the mission's executed path
    speed: float = 1.0  # host speed next to the task (hostspeed.REF_S / reference time)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Seeded:
    """Lazily drawn sequence, item i = draw(rng, i): the same however far it is read."""

    def __init__(self, rng, draw):
        self._rng, self._draw, self._items = rng, draw, []

    def __getitem__(self, i):
        while len(self._items) <= i:
            self._items.append(self._draw(self._rng, len(self._items)))
        return self._items[i]


def _intrinsics(width: int, height: int) -> CameraIntrinsics:
    # the shipped scenarios' camera (385 px focal length at 640x480), scaled
    fs = 385.0 * width / 640
    return CameraIntrinsics(fs, fs, width / 2, height / 2, width, height, 0.3, 10.0)


# --- missions -----------------------------------------------------------------


class _Missions:
    """Missions one after another, each followed by the oracle's sweep of its path."""

    tick_is_task = False

    def __init__(self, intr, robot, cfg, goal, x0, warm_scene):
        self.intr, self.robot, self.cfg, self.goal, self.x0 = intr, robot, cfg, goal, x0
        planner.solve_gains(cfg)
        q0 = Configuration(*(float(v) for v in x0.p))
        self.warm_digest = sha256(render_scene_depth(warm_scene, q0, intr).values.tobytes())

    def task(self, i: int) -> TaskResult:
        key = self.key(i)
        scene = self.scene(key)
        t0 = time.perf_counter()
        try:
            out = planner.run_mission(scene, self.x0, self.goal, self.cfg, self.intr, self.robot)
            t1 = time.perf_counter()
            report = oracle.verify_mission(out.rows, scene, self.robot.rho)
            t2 = time.perf_counter()
        except Exception as e:  # counted as a failed mission and reported
            busy = time.perf_counter() - t0
            return TaskResult(key, "", busy, busy, False, True, "raised",
                              [f"mission {i} raised {type(e).__name__}: {e}"])
        digest = sha256(json.dumps([out.status, out.time, out.rows, out.events]).encode())
        # An oracle-flagged path is the planner's known defect (ROADMAP item 1):
        # the mission itself ran, so it is counted (clean_ratio, report), not failed.
        violated = report.violation_count > 0
        return TaskResult(
            key=key, digest=digest, busy_s=t2 - t0, main_s=t1 - t0,
            clean=out.reached_goal and not violated, failed=False,
            outcome=out.status, problems=self.check(i, out),
            note=f"oracle flags {report.violation_count} swept samples" if violated else "",
            flagged=violated,
        )

    def check(self, i, out) -> list:
        return []


class Corridor(_Missions):
    """The shipped corridor scenario at 640x480, the same mission every time.

    The seed has no effect: the input is the committed scenario file.
    """

    def __init__(self, seed: int, workdir: Path):
        self.gen_s = 0.0
        self.sc = sc = load_scenario(CORRIDOR)
        super().__init__(sc.intrinsics, sc.robot, sc.planner, sc.goal, sc.x0, sc.scene)

    def key(self, i):
        return 0

    def scene(self, key):
        return self.sc.scene

    def check(self, i, out):
        # the outcome the README documents for this scenario
        escapes = sum(e["event"] == "escape_found" for e in out.events)
        if out.status == "reached_goal" and abs(out.time - 7.2) < 1e-9 and escapes == 1:
            return []
        return [f"mission {i}: {out.status} at {out.time} s with {escapes} escapes, "
                "expected reached_goal at 7.2 s with one escape_found"]


def clutter_layout(rng, i: int) -> list:
    """Layout i of the sweep: 2 + i % 5 boxes and spheres between the start
    and the goal plane, as (kind, centre, half-extents or radius)."""
    layout = []
    for _ in range(2 + i % 5):
        c = np.array([rng.uniform(2.0, 9.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.4)])
        if rng.random() < 0.5:
            layout.append(("box", c, rng.uniform(0.15, 0.6, 3)))
        else:
            layout.append(("sphere", c, float(rng.uniform(0.25, 0.7))))
    return layout


JITTER_M = 0.25  # largest shift of a primitive along each axis
JITTER_SCALE = 0.1  # largest relative change of its size


def clutter_scene(layout, rng) -> Scene:
    """The layout with every primitive shifted and scaled at random.

    Primitive centres stay at x >= 2 - JITTER_M and no primitive is larger
    than 0.7 * (1 + JITTER_SCALE), so every surface lies at x > 0.9: the
    start (x = 0, rho = 0.35) never collides and no scene is rejected.
    """
    prims = []
    for kind, c, size in layout:
        c = c + rng.uniform(-JITTER_M, JITTER_M, 3)
        size = size * (1.0 + rng.uniform(-JITTER_SCALE, JITTER_SCALE))
        if kind == "box":
            prims.append(Box(tuple((c - size).tolist()), tuple((c + size).tolist())))
        else:
            prims.append(Sphere(tuple(c.tolist()), float(size)))
    return Scene(tuple(prims))


class ClutterSweep(_Missions):
    """96 seeded scenes run in turn, again and again, 160x120 camera.

    Scene k is layout k of one fixed library, jittered by the seed. Drawn
    independently, 48-64 scenes left the seed-to-seed mix of mission lengths,
    and the rare timed-out mission (about 1 s, 20 typical ones), moving
    tasks_per_s and task_s_p50 by 10-20% between seeds; the jittered library
    cuts that two- to three-fold while each seed still gives its own scenes.
    A 30 s run repeats each scene about six times; its time is the median.
    """

    SCENES = 96
    LAYOUT_SEED = 0  # the library, the same for every --seed

    def __init__(self, seed: int, workdir: Path, width: int = 160, height: int = 120):
        t0 = time.perf_counter()
        library = np.random.default_rng(self.LAYOUT_SEED)
        self.scenes = [
            clutter_scene(clutter_layout(library, k), np.random.default_rng([seed, 1, k]))
            for k in range(self.SCENES)
        ]
        self.gen_s = time.perf_counter() - t0
        super().__init__(
            _intrinsics(width, height), RobotModel(0.35), planner.PlannerConfig(d_l=1.0),
            planner.GoalRegion(10.0, START[1], START[2]), StateVec.rest(START), self.scenes[0],
        )

    def key(self, i):
        return i % self.SCENES

    def scene(self, key):
        return self.scenes[key]


# --- frames -------------------------------------------------------------------


def dense_scenario(rng, width: int, height: int, n_boxes: int, n_spheres: int) -> dict:
    """Scenario dict with many small boxes and spheres 2.6-9.4 m ahead."""

    def centre():
        return np.array([rng.uniform(3.0, 9.0), rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0)])

    scene = []
    for _ in range(n_boxes):
        c, h = centre(), rng.uniform(0.1, 0.4, 3)
        scene.append({"type": "box", "min": (c - h).tolist(), "max": (c + h).tolist()})
    for _ in range(n_spheres):
        scene.append({"type": "sphere", "center": centre().tolist(),
                      "radius": float(rng.uniform(0.1, 0.4))})
    intr = _intrinsics(width, height)
    return {
        "intrinsics": {"fsx": intr.fsx, "fsy": intr.fsy, "cx": intr.cx, "cy": intr.cy,
                       "width": width, "height": height, "z_near": intr.z_near,
                       "max_depth": intr.max_depth},
        "start": {"p": list(START)},
        "goal": {"x_goal": 10.0},
        "scene": scene,
    }


def frame_pose(rng, i: int) -> list:
    """6-DoF pose (x y z phi theta psi) behind the primitives, facing them,
    to the microradian / micrometre it is typed with on the command line."""
    low, high = (-1.0, -1.0, 0.8, -0.3, -0.3, -0.5), (0.5, 1.0, 2.0, 0.3, 0.3, 0.5)
    return [round(float(v), 6) for v in rng.uniform(low, high)]


class Frames:
    """Full-frame depth renders of one seeded scene written as PFM through
    ``cli.cli(["render", ...])``, cycling through 16 seeded poses.

    Each frame's orientation differs from the previous 15, more than the
    renderer's 8-entry ray-grid cache holds, so every frame costs a full
    render; a pose's time is the median of its repeats.
    """

    tick_is_task = True
    POSES = 16
    SPOT_PIXELS = 12

    def __init__(self, seed: int, workdir: Path, width: int = 640, height: int = 480,
                 n_boxes: int = 12, n_spheres: int = 12):
        t0 = time.perf_counter()
        self.seed = seed
        data = dense_scenario(np.random.default_rng([seed, 2]), width, height, n_boxes, n_spheres)
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = workdir / "dense.json"
        self.scenario_path.write_text(json.dumps(data))
        self.pfm_path = workdir / "frame.pfm"
        self.intr = data["intrinsics"]
        self.prims = [
            Box(tuple(p["min"]), tuple(p["max"])) if p["type"] == "box"
            else Sphere(tuple(p["center"]), p["radius"])
            for p in data["scene"]
        ]
        self.poses = _Seeded(np.random.default_rng([seed, 3]), frame_pose)
        self.checked = set()  # poses whose image passed the spot check
        self.gen_s = time.perf_counter() - t0
        # warm-up: one render at the scenario start fills the pixel-ray cache
        code, err = self._render(["--out", str(self.pfm_path)])
        if code != 0:
            raise RuntimeError(f"warm-up render exited {code}: {err}")
        self.warm_digest = sha256(self.pfm_path.read_bytes())

    def _render(self, args):
        """Exit code of the render CLI call and what it wrote to stderr."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            return cli.cli(["render", str(self.scenario_path), *args]), err.getvalue()

    def key(self, i):
        return i % self.POSES

    def task(self, i: int) -> TaskResult:
        key = self.key(i)
        pose = self.poses[key]
        args = ["--pose", *(f"{v:.6f}" for v in pose), "--out", str(self.pfm_path)]
        t0 = time.perf_counter()
        try:
            code, err = self._render(args)
        except Exception as e:  # counted as a failed frame and reported
            busy = time.perf_counter() - t0
            return TaskResult(key, "", busy, busy, False, True, "raised",
                              [f"frame {i} raised {type(e).__name__}: {e}"])
        busy = time.perf_counter() - t0
        if code != 0:
            # counted, not fatal: a failed CLI call is the program's answer
            last = err.strip().splitlines()[-1:] or [""]
            return TaskResult(key, "", busy, busy, False, True, "frame",
                              note=f"render exited {code}: {last[0]}")
        data = self.pfm_path.read_bytes()
        bad = []
        # a repeat is checked by its digest, which must equal the first one's
        if key not in self.checked:
            rng = np.random.default_rng([self.seed, 4, key])
            bad = spot_check(read_pfm_bytes(data), pose, self.intr, self.prims, rng,
                             self.SPOT_PIXELS)
            if not bad:
                self.checked.add(key)
        problems = [f"frame {i}: {b}" for b in bad]
        return TaskResult(key, sha256(data), busy, busy, not bad, bool(bad), "frame", problems)


# --- independent frame check --------------------------------------------------


def read_pfm_bytes(data: bytes) -> np.ndarray:
    """Depth rows, top row first, from a grayscale PFM (rows stored bottom-up)."""
    magic, size, scale, body = data.split(b"\n", 3)
    if magic != b"Pf":
        raise ValueError("not a grayscale PFM")
    w, h = (int(v) for v in size.split())
    dtype = "<f4" if float(scale) < 0 else ">f4"
    return np.frombuffer(body, dtype=dtype, count=w * h).reshape(h, w)[::-1]


def _camera_rotation(phi: float, theta: float, psi: float) -> np.ndarray:
    """World-to-camera rotation, written out from the documented conventions
    (body Z-X-Y Euler angles; camera x right, y down, z forward) rather than
    taken from depthnav.frames, so the check does not share its code."""
    cf, sf, ct, st, cp, sp = (math.cos(phi), math.sin(phi), math.cos(theta),
                              math.sin(theta), math.cos(psi), math.sin(psi))
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cf, -sf], [0.0, sf, cf]])
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    body_to_camera = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    return body_to_camera @ (rz @ rx @ ry).T


SURFACE_TOL = 1e-4  # m: a rendered hit point lies this close to some primitive
FRONT_TOL = 1e-3  # m of camera depth: no primitive is touched this far before it
HIT_EPS = 1e-7  # m: sphere tracing counts a distance this small as a touch
MAX_STEPS = 4000


def _first_touch(c, d, prims, z0, z1):
    """Camera depth in [z0, z1] where the ray c + z d first touches a primitive.

    Sphere tracing on the primitives' exact ``distance``: a step never passes
    a surface. Returns None when nothing is touched, "inconclusive" when the
    step budget runs out first (a ray grazing a surface).
    """
    step_per_m = 1.0 / float(np.linalg.norm(d))
    z = z0
    for _ in range(MAX_STEPS):
        if z > z1:
            return None
        gap = min(p.distance(c + z * d) for p in prims)
        if gap <= HIT_EPS:
            return z
        z += gap * step_per_m
    return "inconclusive"


def spot_check(depth: np.ndarray, pose, intr: dict, prims, rng, n: int) -> list:
    """Compare n seeded pixels with the primitives' distance functions.

    A pixel holding depth D < max_depth must have a primitive surface at
    camera depth D and none before; a pixel holding max_depth must see no
    primitive within range. Returns one message per disagreeing pixel;
    pixels whose ray grazes a surface too closely to decide are skipped.
    """
    R = _camera_rotation(*pose[3:])
    c = np.asarray(pose[:3], dtype=float)
    z_near, max_depth = intr["z_near"], intr["max_depth"]
    bad = []
    for _ in range(n):
        ix, iy = int(rng.integers(intr["width"])), int(rng.integers(intr["height"]))
        ray = np.array([(ix + 0.5 - intr["cx"]) / intr["fsx"],
                        (iy + 0.5 - intr["cy"]) / intr["fsy"], 1.0])
        d = R.T @ ray
        D = float(depth[iy, ix])
        if D >= max_depth:
            touch = _first_touch(c, d, prims, z_near, max_depth - FRONT_TOL)
            if touch not in (None, "inconclusive"):
                bad.append(f"pixel ({ix}, {iy}) is empty but the ray meets a primitive at z = {touch:.6f}")
            continue
        gap = min(p.distance(c + D * d) for p in prims)
        if gap > SURFACE_TOL:
            bad.append(f"pixel ({ix}, {iy}) depth {D:.6f} is {gap:.2e} m from every primitive")
            continue
        touch = _first_touch(c, d, prims, z_near, D - FRONT_TOL)
        if touch not in (None, "inconclusive"):
            bad.append(f"pixel ({ix}, {iy}) depth {D:.6f} hides a primitive at z = {touch:.6f}")
    return bad


WORKLOADS = {"corridor_640": Corridor, "clutter_sweep_160": ClutterSweep, "frames_640": Frames}


def load(name: str, seed: int, workdir, **sizes):
    """Generate the inputs of a workload and set it up, ready for ``task``.

    ``gen_s`` on the returned object is the time spent generating inputs,
    which set-up time excludes.
    """
    return WORKLOADS[name](seed, Path(workdir), **sizes)
