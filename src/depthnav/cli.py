"""Command-line harness: run missions, render depth images, verify runs,
and print the precomputed mode gains.

Exit codes: 0 success / goal reached, 1 error or failed verification,
2 mission stuck, 3 mission timed out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import re
import shutil
import sys
from pathlib import Path

from .frames import Configuration
from .oracle import verify_mission
from .planner import ROW_COLUMNS as CSV_COLUMNS, PlannerConfig, run_mission
from .scenario import ScenarioError, load_scenario
from .scene import render_scene_depth, write_pfm

_STATUS_EXIT = {"reached_goal": 0, "stuck": 2, "timed_out": 3}


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    outcome = run_mission(sc.scene, sc.x0, sc.goal, sc.planner, sc.intrinsics, sc.robot)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.suppress(shutil.SameFileError):  # a run re-run in place keeps its scenario
        shutil.copy(args.scenario, out / "scenario.json")
    with open(out / "trajectory.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows(outcome.rows)
    with open(out / "outcome.json", "w") as f:
        json.dump(
            {"status": outcome.status, "time": outcome.time, "events": outcome.events},
            f,
            indent=2,
        )
    print(f"mission {outcome.status} at t = {outcome.time:.1f} s ({len(outcome.rows)} samples)")
    return _STATUS_EXIT[outcome.status]


def _cmd_render(args) -> int:
    sc = load_scenario(args.scenario)
    pose = args.pose or list(sc.x0.p)
    if len(pose) not in (3, 6):
        raise ValueError(f"--pose takes 3 or 6 values (x y z [phi theta psi]), got {len(pose)}")
    try:
        q = Configuration(*pose)
    except ValueError as e:
        raise ValueError(f"invalid --pose {e}") from e
    depth = render_scene_depth(sc.scene, q, sc.intrinsics)
    write_pfm(args.out, depth.values)
    print(f"wrote {sc.intrinsics.width}x{sc.intrinsics.height} depth image to {args.out}")
    return 0


def _cell(key: str, v):
    try:
        return v if key in ("mode", "event") else float(v)
    except (TypeError, ValueError):
        return v  # verify_mission names a bad position cell with its row


def _cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    sc = load_scenario(run_dir / "scenario.json")
    with open(run_dir / "trajectory.csv", newline="") as f:
        rows = [{k: _cell(k, v) for k, v in row.items()} for row in csv.DictReader(f)]
    report = verify_mission(rows, sc.scene, sc.robot.rho)
    print(f"checked {len(report.flags)} swept samples")
    print(f"violations: {report.violation_count}")
    if report.first_violation is not None:
        row = rows[report.first_violation]
        print(f"first violation: row {report.first_violation}, t = {row.get('t')} s, "
              f"mode {row.get('mode')}, event {row.get('event')}")
    print(f"min clearance: {report.min_clearance:.6g} m")
    return 0 if report.violation_count == 0 else 1


def _cmd_gains(args) -> int:
    cfg = load_scenario(args.scenario).planner if args.scenario else PlannerConfig()
    for mode, w in (("l0", cfg.weights_l0), ("l1", cfg.weights_l1)):
        print(f"mode {mode}: kp = {w.kp:.6f}  kv = {w.kv:.6f}  ARE residual = {w.residual:.3e}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; each
    parse_args call starts from a fresh namespace, so no call sees another's."""
    p = argparse.ArgumentParser(
        prog="depthnav",
        description="Depth-image-space collision checking and switched-LQR mission planning.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a mission and write logs")
    run.add_argument("scenario")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    render = sub.add_parser("render", help="render one depth image to PFM")
    render.add_argument("scenario")
    render.add_argument(
        "--pose", type=float, nargs="+", metavar="V",
        help="x y z [phi theta psi]; defaults to the scenario start",
    )
    render.add_argument("--out", required=True, help="output .pfm path")
    # argparse reads "-5.8e-05" as an option; let pose values use exponent form
    render._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|nan)$", re.I)
    render.set_defaults(func=_cmd_render)

    verify = sub.add_parser("verify", help="oracle-check a previous run directory")
    verify.add_argument("run_dir")
    verify.set_defaults(func=_cmd_verify)

    gains = sub.add_parser("gains", help="print mode gains and ARE residuals")
    gains.add_argument("scenario", nargs="?", default=None)
    gains.set_defaults(func=_cmd_gains)
    return p


def cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ScenarioError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
