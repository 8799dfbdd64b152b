"""depthnav benchmark: one workload, closed loop, single process and thread.

    python3 perfbench/run.py --workload corridor_640 --seed 1 --seconds 20 --trace 0

Runs missions (or frames) one after another for --seconds of measured time,
checks every output, and prints three JSON lines: the host record, a report
(counts, digests, the metrics under the names the planning documents use),
and last the result ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; only the planning-tick
boundary is timed. Every time in them is scaled to a reference host speed
(see hostspeed.py) and is the median over the repeats of one input; the
report also gives the unscaled medians and the host speed seen. ``--trace 1`` spends half the time untraced, replays the
same tasks with every layer boundary traced, reports per-layer metrics and
writes the spans to ``.bench_out/trace-<workload>-s<seed>.jsonl``.

Exit status 1 when a deterministic check fails: repeated inputs giving
different digests, the corridor missing its documented outcome, a frame
disagreeing with the primitives, or a task raising. Render calls that exit
non-zero are counted as failed, not fatal. Missions whose executed path the
oracle flags ran to the end: they lower clean_ratio and are counted and
listed in the report, but are not failed operations.
"""

from __future__ import annotations

import os

# single-threaded runs: set before numpy loads its BLAS
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".bench_out"
SETUP_RUNS = 9
CRITERION_8_MS = 33.0

# Set-up in a fresh interpreter, timed from its first statement, so the
# imports count. Input generation (gen_s) is subtracted.
_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import json, sys
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["bench_dir"])
import workloads
w = workloads.load(spec["name"], spec["seed"], spec["workdir"], **spec["sizes"])
print(json.dumps({"setup_s": time.perf_counter() - t0 - w.gen_s, "warm_digest": w.warm_digest}))
"""


def setup_runs(name, seed, workdir, sizes, runs):
    """Set up `runs` times, each in a fresh interpreter; each run's speed is
    the host speed from the reference loop timed here before and after it
    (in a fresh interpreter the loop's first passes are too erratic)."""
    out = []
    ref = hostspeed.reference_s()
    for k in range(runs):
        spec = {"bench_dir": str(BENCH_DIR), "name": name, "seed": seed,
                "workdir": str(workdir / f"setup-{k}"), "sizes": sizes}
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, json.dumps(spec)],
                              capture_output=True, text=True, timeout=170, cwd=workloads.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        after = hostspeed.reference_s()
        out.append({**json.loads(proc.stdout.splitlines()[-1]),
                    "speed": 2 * hostspeed.REF_S / (ref + after)})
        ref = after
    return out


def measure(w, probes, *, seconds=None, count=None):
    """Run tasks 0, 1, ... back to back, each starting when the previous one
    ends, until their measured time reaches `seconds` (at least one task),
    or until `count` tasks ran. Each task's speed is the host speed from the
    reference loop timed just before and just after it."""
    tracer = tracing.Tracer()
    results, busy = [], 0.0
    gc.collect()
    ref = hostspeed.reference_s()
    with tracer.patched(probes):
        while (busy < seconds or not results) if count is None else (len(results) < count):
            tracer.task = len(results)
            r = w.task(len(results))
            after = hostspeed.reference_s()
            r.speed, ref = 2 * hostspeed.REF_S / (ref + after), after
            results.append(r)
            busy += r.busy_s
    return results, tracer


def determinism_problems(results) -> list:
    seen = {}
    for r in results:
        seen.setdefault(r.key, set()).add(r.digest)
    return [f"input {k} gave {len(d)} different outputs" for k, d in seen.items() if len(d) > 1]


@dataclass
class Typical:
    """One distinct input: medians over its repeats."""

    main_s: float
    busy_s: float
    ticks_s: list
    clean: bool


def typical_of_repeats(w, results, tracer, scaled=True) -> dict:
    """Per distinct input: the median over its repeats of run_mission (or
    the render call), of run + verify, and of each working tick, every
    repeat's times scaled by its host speed unless `scaled` is false.

    Repeats follow the same path (their digests are checked), so their
    working ticks line up one to one.
    """
    ticks = defaultdict(list)
    for s in tracer.spans:
        if s.name == "planner.tick" and s.info["working"]:
            ticks[s.task].append(s.duration)
    repeats = defaultdict(list)
    for i, r in enumerate(results):
        k = r.speed if scaled else 1.0
        t = [r.main_s] if w.tick_is_task else ticks[i]
        repeats[r.key].append((r.main_s * k, r.busy_s * k, [x * k for x in t], r.clean))
    median = statistics.median
    return {
        key: Typical(median(m for m, _, _, _ in reps), median(b for _, b, _, _ in reps),
                     [median(col) for col in zip(*(t for _, _, t, _ in reps))], reps[0][3])
        for key, reps in repeats.items()
    }


def end_to_end(typical: dict, setup_s) -> dict:
    ticks_ms = [t * 1e3 for b in typical.values() for t in b.ticks_s]
    return {
        "setup_s": statistics.median(setup_s),
        "tick_ms_p50": tracing.percentile(ticks_ms, 0.5),
        "tick_ms_p90": tracing.percentile(ticks_ms, 0.9),
        "task_s_p50": tracing.percentile([b.main_s for b in typical.values()], 0.5),
        "tasks_per_s": len(typical) / sum(b.busy_s for b in typical.values()),
        "clean_ratio": sum(b.clean for b in typical.values()) / len(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report_metrics(w, m, typical, results, unscaled) -> dict:
    """The end-to-end metrics under the names the planning documents use,
    with sample counts, the unscaled figures and the host speed seen."""
    flagged = sum(r.flagged for r in results)
    raw = {"failed_ratio": sum(r.failed for r in results) / len(results),
           "oracle_flagged": flagged, "oracle_flagged_ratio": flagged / len(results),
           "runs": len(results), "distinct_inputs": len(typical),
           "host_speed_p50": statistics.median(r.speed for r in results),
           "unscaled": {k: unscaled[k] for k in
                        ("setup_s", "tick_ms_p50", "tick_ms_p90", "task_s_p50", "tasks_per_s")}}
    if w.tick_is_task:
        return {"frame_ms_p50": m["tick_ms_p50"], "frame_ms_p90": m["tick_ms_p90"],
                "frames_per_s": m["tasks_per_s"], **raw}
    return {"tick_ms_p50": m["tick_ms_p50"], "tick_ms_p90": m["tick_ms_p90"],
            "working_ticks": sum(len(b.ticks_s) for b in typical.values()),
            "mission_s_p50": m["task_s_p50"], "missions_per_s": m["tasks_per_s"],
            "clean_reach_ratio": m["clean_ratio"], **raw}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_sha():
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "depthnav").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
    }


def run(name, seed, seconds, trace, setups=SETUP_RUNS, sizes=None, out_dir=OUT_DIR):
    """Run one workload; returns (result, report). The result's metrics map
    names to bare values: end-to-end ones untraced, per-layer ones traced."""
    sizes = sizes or {}
    workdir = out_dir / f"{name}-s{seed}-p{os.getpid()}"
    report = {"workload": name, "seed": seed, "trace": trace}
    try:
        w = workloads.load(name, seed, workdir / "main", **sizes)
        report["warm_digest"] = w.warm_digest
        if trace:
            results, _ = measure(w, (tracing.TICK,), seconds=seconds / 2)
            traced, tracer = measure(w, tracing.LAYERS, count=len(results))
            overhead = sum(r.busy_s for r in traced) / sum(r.busy_s for r in results) - 1.0
            metrics = tracing.layer_metrics(tracer, len(traced), overhead)
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_path = out_dir / f"trace-{name}-s{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            report["trace_file"] = str(trace_path)
            executed, repeat, warm = results + traced, [], []
        else:
            results, tracer = measure(w, (tracing.TICK,), seconds=seconds)
            setup = setup_runs(name, seed, workdir, sizes, setups)
            typical = typical_of_repeats(w, results, tracer)
            metrics = end_to_end(typical, [s["setup_s"] * s["speed"] for s in setup])
            unscaled = end_to_end(typical_of_repeats(w, results, tracer, scaled=False),
                                  [s["setup_s"] for s in setup])
            report["metrics"] = report_metrics(w, metrics, typical, results, unscaled)
            if name == "corridor_640":
                report["criterion_8"] = {
                    "tick_ms_p50": metrics["tick_ms_p50"], "budget_ms": CRITERION_8_MS,
                    "within_budget": metrics["tick_ms_p50"] <= CRITERION_8_MS,
                    "note": "information only"}
            # the first input once more, so that even the shortest run repeats one
            executed, repeat = results, [w.task(0)]
            warm = [s["warm_digest"] for s in setup]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = executed + repeat
    problems = [p for r in checked for p in r.problems] + determinism_problems(checked)
    if any(d != w.warm_digest for d in warm):
        problems.append("set-up warm-up renders differ between processes")
    outcomes = defaultdict(int)
    for r in results:
        outcomes[r.outcome] += 1
    report.update({
        "outcomes": outcomes,
        "failures": [f"input {r.key}: {r.note}" for r in results if r.note][:20],
        "task_digests": [r.digest for r in results[:8]],
        "first_tasks_digest": hashlib.sha256(
            "".join(r.digest for r in results[:8]).encode()).hexdigest(),
        "problems": problems[:20],
    })
    result = {
        "correct": not problems,
        "attempted": len(executed),
        "failed": sum(r.failed for r in executed),
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    values = result["metrics"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    print(json.dumps({"host": host_record()}))
    print(json.dumps({"report": report}))
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
