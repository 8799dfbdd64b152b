"""Infinite-horizon LQR for the flat double-integrator model.

Differential flatness decouples the three position axes, so each axis is
the 2x2 system A = [[0, 1], [0, 0]], B = [0, 1]^T and the algebraic
Riccati equation has a closed-form positive-definite solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .validation import coerce, point, real

__all__ = [
    "StateVec",
    "ModeWeights",
    "AxisGain",
    "LookAheadTrajectory",
    "solve_are_axis",
    "are_residual",
    "horizon_steps",
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
class AxisGain:
    """Riccati solution entries and the resulting feedback gains for one axis."""

    s11: float
    s12: float
    s22: float
    kp: float
    kv: float


@dataclass(frozen=True)
class ModeWeights:
    """Per-axis LQR weights: qp on position, qv on velocity, r on input.

    Construction solves the closed form once and keeps its axis gain and
    Riccati residual. Weights whose solution has a non-finite entry, a kp or
    kv that is not positive, or a residual not below 1e-9 of the equation's
    largest term (a NaN residual included) raise a ValueError naming qp.
    """

    qp: float
    qv: float
    r: float
    gain: AxisGain = field(init=False, repr=False, compare=False)
    residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coerce(self, real, "qp", "r", positive=True)
        coerce(self, real, "qv", nonnegative=True)
        g = solve_are_axis(self)
        given = f"weights qp, qv, r = {self.qp!r}, {self.qv!r}, {self.r!r}"
        if not (all(map(math.isfinite, vars(g).values())) and g.kp > 0 and g.kv > 0):
            raise ValueError(f"qp: {given} give kp = {g.kp!r}, kv = {g.kv!r}; both must be finite and positive")
        res = are_residual(g, self)
        # relative to the equation's largest term, so large valid weights pass
        if not res < 1e-9 * max(1.0, self.qp, self.qv, g.s11, g.s12 * g.s12 / self.r, g.s22 * g.s22 / self.r):
            raise ValueError(f"qp: {given} leave a Riccati residual of {res:.3e}")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "residual", res)


@dataclass
class LookAheadTrajectory:
    """One horizon of closed-loop samples every ts seconds, one row
    [p | v | u] (trajectory.csv's px..uz) per sample."""

    samples: np.ndarray  # (n + 1, 9)


def solve_are_axis(w: ModeWeights) -> AxisGain:
    """Closed-form stabilizing Riccati solution for one double-integrator axis.

    s12 = sqrt(qp * r), s22 = sqrt(r * (qv + 2 * s12)), s11 = s12 * s22 / r,
    gains kp = s12 / r, kv = s22 / r.
    """
    s12 = math.sqrt(w.qp * w.r)
    s22 = math.sqrt(w.r * (w.qv + 2.0 * s12))
    s11 = s12 * s22 / w.r
    return AxisGain(s11=s11, s12=s12, s22=s22, kp=s12 / w.r, kv=s22 / w.r)


def are_residual(g: AxisGain, w: ModeWeights) -> float:
    """Max-abs entry of S A + A^T S + Q - S B R^-1 B^T S for one axis."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.diag([w.qp, w.qv])
    S = np.array([[g.s11, g.s12], [g.s12, g.s22]])
    res = S @ A + A.T @ S + Q - S @ B @ B.T @ S / w.r
    return float(np.abs(res).max())


def _law(p, v, p_ref, g: AxisGain) -> np.ndarray:
    """State-feedback acceleration command toward the point p_ref at rest,
    with identical gains on each axis."""
    return -g.kp * (p - p_ref) - g.kv * v


def horizon_steps(tau: float, ts: float) -> int:
    """Number of ts samples after the start in one horizon of tau seconds.

    Raises ValueError naming the field unless tau and ts are finite and
    positive, and ValueError naming tau unless tau / ts is finite and tau a
    positive integral multiple of ts (within 1e-9 s).
    """
    tau, ts = real("tau", tau, positive=True), real("ts", ts, positive=True)
    n = tau / ts
    if not math.isfinite(n) or (k := round(n)) < 1 or abs(k * ts - tau) > 1e-9:
        raise ValueError(f"tau: must be a positive integral multiple of ts, got tau / ts = {n!r}")
    return k


def rollout(x0, p_ref: np.ndarray, g: AxisGain, n: int, ts: float) -> LookAheadTrajectory:
    """Integrate the closed loop to the point p_ref for n samples after the
    start, sampling every ts seconds.

    x0 is any array whose first six entries are [p | v], such as a sample
    row. The caller's n and ts are taken as they are (see
    :func:`horizon_steps`). Uses fixed-substep RK4 with substep ts/10,
    integrating no further than the last sample. Every sample's input and
    every RK4 stage evaluate the one control law. The first sample's state
    equals x0 exactly (no hover assumption).
    """
    samples = np.empty((n + 1, 9))
    p, v = x0[:3], x0[3:6]
    samples[0, :3], samples[0, 3:6], samples[0, 6:] = p, v, _law(p, v, p_ref, g)
    h = ts / 10.0
    for k in range(1, n + 1):
        for _ in range(10):
            k1p, k1v = v, _law(p, v, p_ref, g)
            p2, v2 = p + 0.5 * h * k1p, v + 0.5 * h * k1v
            k2p, k2v = v2, _law(p2, v2, p_ref, g)
            p3, v3 = p + 0.5 * h * k2p, v + 0.5 * h * k2v
            k3p, k3v = v3, _law(p3, v3, p_ref, g)
            p4, v4 = p + h * k3p, v + h * k3v
            k4p, k4v = v4, _law(p4, v4, p_ref, g)
            p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        samples[k, :3], samples[k, 3:6], samples[k, 6:] = p, v, _law(p, v, p_ref, g)
    return LookAheadTrajectory(samples)
