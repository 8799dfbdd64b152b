"""Infinite-horizon LQR for the flat double-integrator model.

Differential flatness decouples the three position axes, so each axis is
the 2x2 system A = [[0, 1], [0, 0]], B = [0, 1]^T and the algebraic
Riccati equation has a closed-form positive-definite solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .validation import coerce, real, vector

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
    """Flat-output state: 3D position and velocity."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        coerce(self, vector, "p", "v")

    @staticmethod
    def rest(p) -> "StateVec":
        return StateVec(np.asarray(p, dtype=float), np.zeros(3))


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
    """One horizon of closed-loop samples: (state, input) every ts seconds."""

    samples: list  # list[(StateVec, np.ndarray)]

    def positions(self) -> np.ndarray:
        return np.array([s.p for s, _ in self.samples])


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


def _law(p, v, x_ref: StateVec, g: AxisGain, u_max: float | None) -> np.ndarray:
    """State-feedback acceleration command, identical gains on each axis,
    each axis clamped to [-u_max, u_max] unless u_max is None."""
    u = -g.kp * (p - x_ref.p) - g.kv * (v - x_ref.v)
    return u if u_max is None else np.clip(u, -u_max, u_max)


def horizon_steps(tau: float, ts: float) -> int:
    """Number of ts samples after the start in one horizon of tau seconds.

    Raises ValueError, naming tau, unless tau / ts is finite and tau a
    positive integral multiple of ts (within 1e-9 s).
    """
    n = tau / ts
    if not math.isfinite(n) or (k := round(n)) < 1 or abs(k * ts - tau) > 1e-9:
        raise ValueError(f"tau: must be a positive integral multiple of ts, got tau / ts = {n!r}")
    return k


def rollout(
    x0: StateVec,
    x_ref: StateVec,
    g: AxisGain,
    tau: float,
    ts: float,
    u_max: float | None = None,
) -> LookAheadTrajectory:
    """Integrate the closed loop over one horizon, sampling every ts seconds.

    Uses fixed-substep RK4 with substep ts/10, integrating no further than
    the last sample. Every sample's input and every RK4 stage evaluate the
    one control law, which clamps each input axis to u_max when it is given.
    The first sample equals x0 exactly (no hover assumption).
    """
    if tau <= 0 or ts <= 0:
        raise ValueError("tau and ts must be positive")
    n_steps = horizon_steps(tau, ts)

    p = x0.p.copy()
    v = x0.v.copy()
    samples = [(StateVec(p, v), _law(p, v, x_ref, g, u_max))]
    h = ts / 10.0
    for _ in range(n_steps):
        for _ in range(10):
            k1p, k1v = v, _law(p, v, x_ref, g, u_max)
            p2, v2 = p + 0.5 * h * k1p, v + 0.5 * h * k1v
            k2p, k2v = v2, _law(p2, v2, x_ref, g, u_max)
            p3, v3 = p + 0.5 * h * k2p, v + 0.5 * h * k2v
            k3p, k3v = v3, _law(p3, v3, x_ref, g, u_max)
            p4, v4 = p + h * k3p, v + h * k3v
            k4p, k4v = v4, _law(p4, v4, x_ref, g, u_max)
            p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        samples.append((StateVec(p, v), _law(p, v, x_ref, g, u_max)))
    return LookAheadTrajectory(samples)
