"""Infinite-horizon LQR for the flat double-integrator model.

Differential flatness decouples the three position axes, so each axis is
the 2x2 system A = [[0, 1], [0, 0]], B = [0, 1]^T and the algebraic
Riccati equation has a closed-form positive-definite solution. Each motion
primitive is one ModeWeights record: its weights and the gains and residual
its construction solves from them, which rollout's control law reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .validation import coerce, point, real

__all__ = [
    "StateVec",
    "ModeWeights",
    "LookAheadTrajectory",
    "solve_are_axis",
    "are_residual",
    "rollout",
]


@dataclass(frozen=True)
class StateVec:
    """The vehicle's flat-output state: 3D position and velocity, each a
    read-only float copy of what the caller gave."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("p", "v"):
            arr = np.array(point(name, getattr(self, name)))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @staticmethod
    def rest(p) -> "StateVec":
        return StateVec(p, np.zeros(3))


@dataclass(frozen=True)
class ModeWeights:
    """One motion primitive's LQR regulator: per-axis weights qp on
    position, qv on velocity and r on input, and the gains kp, kv and
    Riccati residual that construction solves once from them.

    Weights whose solution has a non-finite entry, a kp or kv that is not
    positive, or a residual not below 1e-9 of the equation's largest term
    (a NaN residual included) raise a ValueError naming qp.
    """

    qp: float
    qv: float
    r: float
    kp: float = field(init=False, repr=False, compare=False)
    kv: float = field(init=False, repr=False, compare=False)
    residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coerce(self, real, "qp", "r", positive=True)
        coerce(self, real, "qv", nonnegative=True)
        s11, s12, s22 = s = solve_are_axis(self)
        kp, kv = s12 / self.r, s22 / self.r
        given = f"weights qp, qv, r = {self.qp!r}, {self.qv!r}, {self.r!r}"
        if not (all(map(math.isfinite, (*s, kp, kv))) and kp > 0 and kv > 0):
            raise ValueError(f"qp: {given} give kp = {kp!r}, kv = {kv!r}; both must be finite and positive")
        res = are_residual(s, self)
        # relative to the equation's largest term, so large valid weights pass
        if not res < 1e-9 * max(1.0, self.qp, self.qv, s11, s12 * s12 / self.r, s22 * s22 / self.r):
            raise ValueError(f"qp: {given} leave a Riccati residual of {res:.3e}")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kv", kv)
        object.__setattr__(self, "residual", res)


@dataclass
class LookAheadTrajectory:
    """One horizon of closed-loop samples every ts seconds, one row
    [p | v | u] (trajectory.csv's px..uz) per sample."""

    samples: np.ndarray  # (n + 1, 9)


def solve_are_axis(w: ModeWeights) -> tuple[float, float, float]:
    """Closed-form stabilizing Riccati solution (s11, s12, s22) for one
    double-integrator axis: s12 = sqrt(qp * r), s22 = sqrt(r * (qv + 2 * s12)),
    s11 = s12 * s22 / r. The gains are kp = s12 / r and kv = s22 / r.
    """
    s12 = math.sqrt(w.qp * w.r)
    s22 = math.sqrt(w.r * (w.qv + 2.0 * s12))
    return s12 * s22 / w.r, s12, s22


def are_residual(s: tuple[float, float, float], w: ModeWeights) -> float:
    """Max-abs entry of S A + A^T S + Q - S B R^-1 B^T S for one axis, with
    S = [[s11, s12], [s12, s22]] finite (ModeWeights checks it first): its
    three distinct entries, in scalars."""
    s11, s12, s22 = s
    return max(
        abs(w.qp - s12 * s12 / w.r),
        abs(s11 - s12 * s22 / w.r),
        abs(2.0 * s12 + w.qv - s22 * s22 / w.r),
    )


def _law(p, v, p_ref, w: ModeWeights) -> np.ndarray:
    """State-feedback acceleration command toward the point p_ref at rest,
    with the mode's gains on each axis."""
    return -w.kp * (p - p_ref) - w.kv * v


def rollout(x0, p_ref: np.ndarray, w: ModeWeights, n: int, ts: float) -> LookAheadTrajectory:
    """Integrate the mode's closed loop to the point p_ref for n samples
    after the start, sampling every ts seconds.

    x0 is any array whose first six entries are [p | v], such as a sample
    row. The caller's n and ts are taken as they are (PlannerConfig checks
    them). Uses fixed-substep RK4 with substep ts/10,
    integrating no further than the last sample. Every sample's input and
    every RK4 stage evaluate the one control law. The first sample's state
    equals x0 exactly (no hover assumption).
    """
    samples = np.empty((n + 1, 9))
    p, v = x0[:3], x0[3:6]
    samples[0, :3], samples[0, 3:6], samples[0, 6:] = p, v, _law(p, v, p_ref, w)
    h = ts / 10.0
    for k in range(1, n + 1):
        for _ in range(10):
            k1p, k1v = v, _law(p, v, p_ref, w)
            p2, v2 = p + 0.5 * h * k1p, v + 0.5 * h * k1v
            k2p, k2v = v2, _law(p2, v2, p_ref, w)
            p3, v3 = p + 0.5 * h * k2p, v + 0.5 * h * k2v
            k3p, k3v = v3, _law(p3, v3, p_ref, w)
            p4, v4 = p + h * k3p, v + h * k3v
            k4p, k4v = v4, _law(p4, v4, p_ref, w)
            p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        samples[k, :3], samples[k, 3:6], samples[k, 6:] = p, v, _law(p, v, p_ref, w)
    return LookAheadTrajectory(samples)
