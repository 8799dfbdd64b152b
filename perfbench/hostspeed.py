"""Host-speed reference for the depthnav benchmark.

A small shared host runs the same code 20-80% slower for seconds to minutes
at a time, in CPU time as much as in wall time, so the slowdown is not time
spent descheduled and a run's minimum does not remove it when a whole run is
slow. ``reference_s`` times a fixed loop of numpy array arithmetic and plain
Python that shares no code with depthnav; the benchmark runs it before and
after every task and set-up run and scales their times by ``REF_S`` over
its mean time there: the time they would have taken with the host at the
speed where the loop takes REF_S. A change to depthnav leaves the loop's
time as it is, so it moves the scaled times as much as the wall times.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the loop's time on the 2-vCPU host the benchmark was defined on,
# run between tasks, so that scaled times read close to wall times there.
REF_S = 2.5e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.random((120, 160))
_LARGE = _rng.random((240, 320))


def reference_s() -> float:
    """Wall time of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    for a, reps in ((_SMALL, 8), (_LARGE, 2)):
        b = a + 0.5
        for _ in range(reps):
            np.minimum(np.sqrt(a * a + b * b), a).sum()
    x = 0.0
    for j in range(10000):
        x += j * 0.5
    return time.perf_counter() - t0

