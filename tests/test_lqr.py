import math
import re

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from depthnav import lqr
from depthnav import (
    ModeWeights,
    PlannerConfig,
    StateVec,
    are_residual,
    rollout,
    solve_are_axis,
)
from depthnav.validation import real

L0 = ModeWeights(1.0, 0.1, 3.0)
L1 = ModeWeights(1.0, 0.1, 0.1)

A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.0], [1.0]])


def _scipy_gain(w: ModeWeights):
    S = solve_continuous_are(A, B, np.diag([w.qp, w.qv]), np.array([[w.r]]))
    K = (B.T @ S / w.r).ravel()
    return S, K


class TestSolveAre:
    def test_l0_gains_match_oracle(self):
        s11, s12, s22 = solve_are_axis(L0)
        S, K = _scipy_gain(L0)
        assert L0.kp == pytest.approx(K[0], abs=1e-8)
        assert L0.kv == pytest.approx(K[1], abs=1e-8)
        assert L0.kp == pytest.approx(0.5773502691896257, abs=1e-12)
        assert L0.kv == pytest.approx(1.0899696655011025, abs=1e-12)
        assert np.allclose([[s11, s12], [s12, s22]], S, atol=1e-8)

    def test_l1_gains_match_oracle(self):
        _, K = _scipy_gain(L1)
        assert L1.kp == pytest.approx(K[0], abs=1e-8)
        assert L1.kv == pytest.approx(K[1], abs=1e-8)
        assert L1.kp == pytest.approx(3.1622776601683795, abs=1e-12)
        assert L1.kv == pytest.approx(2.7063915681838724, abs=1e-12)

    def test_hand_solvable_weights(self):
        w = ModeWeights(1.0, 0.0, 1.0)
        _, s12, s22 = solve_are_axis(w)
        assert s12 == pytest.approx(1.0, abs=1e-15)
        assert s22 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert w.kp == pytest.approx(1.0, abs=1e-15)
        assert w.kv == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_solution_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            w = ModeWeights(rng.uniform(0.1, 5), rng.uniform(0, 2), rng.uniform(0.05, 5))
            s11, s12, s22 = solve_are_axis(w)
            assert s11 > 0 and s22 > 0 and s12 > 0
            assert s11 * s22 - s12**2 > 0

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            ModeWeights(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            ModeWeights(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            ModeWeights(1.0, 0.1, 0.0)


class TestAreResidual:
    def test_residual_tiny_at_solution(self):
        assert are_residual(solve_are_axis(L0), L0) < 1e-9
        assert are_residual(solve_are_axis(L1), L1) < 1e-9
        assert L0.residual == are_residual(solve_are_axis(L0), L0)

    def test_residual_detects_perturbation(self):
        s11, s12, s22 = solve_are_axis(L0)
        assert are_residual((s11, s12 + 0.1, s22), L0) > 1e-3

    def test_exact_arithmetic_case(self):
        w = ModeWeights(1.0, 0.0, 1.0)
        assert are_residual(solve_are_axis(w), w) < 1e-12

    def test_scalar_residual_matches_the_matrix_equation(self):
        """The three scalar entries agree with S A + A^T S + Q - S B R^-1 B^T S
        built as matrices, within 1e-15 of the equation's largest term, at
        the solution and at a perturbed one."""
        rng = np.random.default_rng(27)
        for _ in range(30):
            w = ModeWeights(rng.uniform(0.01, 100), rng.uniform(0, 10), rng.uniform(0.01, 100))
            s11, s12, s22 = solve_are_axis(w)
            for s in ((s11, s12, s22), (s11 * 1.01, s12 - 0.05, s22 + 0.02)):
                S = np.array([[s[0], s[1]], [s[1], s[2]]])
                res = S @ A + A.T @ S + np.diag([w.qp, w.qv]) - S @ B @ B.T @ S / w.r
                largest = max(1.0, w.qp, w.qv, s[0], s[1] * s[1] / w.r, s[2] * s[2] / w.r)
                assert abs(are_residual(s, w) - float(np.abs(res).max())) <= 1e-15 * largest


def _state(p, v=(0.0, 0.0, 0.0)) -> np.ndarray:
    """A rollout start [p | v]."""
    return np.array([*p, *v], dtype=float)


def _control(x, p_ref, w) -> np.ndarray:
    """The control law's command at x: the input of a rollout's first sample."""
    return rollout(x, p_ref, w, 1, 0.2).samples[0, 6:]


class TestControl:
    def test_zero_at_equilibrium(self):
        """At rest at the reference point the command is exactly zero."""
        x = _state([1.0, 2.0, 3.0])
        assert np.array_equal(_control(x, x[:3], L0), np.zeros(3))

    def test_unit_position_error(self):
        x = _state([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        u = _control(x, np.zeros(3), L0)
        assert np.allclose(u, [-0.5773502691896257, 0.0, 0.0], atol=1e-12)

    def test_linearity(self):
        ref = np.zeros(3)
        x1 = _state([0.5, -0.2, 0.1], [0.3, 0.0, -0.4])
        x2 = 2 * x1
        assert np.allclose(2 * _control(x1, ref, L1), _control(x2, ref, L1), atol=1e-12)


class TestRollout:
    def test_equilibrium_rollout(self):
        x = _state([1.0, 2.0, 3.0])
        la = rollout(x, x[:3], L0, 4, 0.2)
        assert len(la.samples) == 5
        for s in la.samples:
            assert np.allclose(s[:3], x[:3]) and np.allclose(s[3:6], 0.0)
            assert np.allclose(s[6:], 0.0)

    def test_monotone_approach_to_reference(self):
        la = rollout(_state([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), L0, 4, 0.2)
        xs = la.samples[:, 0].tolist()
        assert len(xs) == 5
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_first_sample_is_exactly_x0(self):
        x0 = _state([0.3, -0.2, 1.1], [0.5, 0.1, -0.7])
        la = rollout(x0, np.array([2.0, 0.0, 1.0]), L1, 4, 0.2)
        assert np.array_equal(la.samples[0, :6], x0)

    def test_matches_fine_reference_integration(self):
        """RK4 at ts/10 agrees with a 1e-4 s substep reference within 1e-6 m."""
        for w in (L0, L1):
            x0 = _state([0.0, 0.5, -0.3], [1.0, -0.5, 0.2])
            ref = np.array([3.0, 0.0, 1.0])
            la = rollout(x0, ref, w, 4, 0.2)
            p, v = x0[:3].copy(), x0[3:].copy()
            h = 1e-4
            fine = [(p.copy(), v.copy())]
            for k in range(4):
                for _ in range(2000):
                    k1p, k1v = v, -w.kp * (p - ref) - w.kv * v
                    p2, v2 = p + 0.5 * h * k1p, v + 0.5 * h * k1v
                    k2p, k2v = v2, -w.kp * (p2 - ref) - w.kv * v2
                    p3, v3 = p + 0.5 * h * k2p, v + 0.5 * h * k2v
                    k3p, k3v = v3, -w.kp * (p3 - ref) - w.kv * v3
                    p4, v4 = p + h * k3p, v + h * k3v
                    k4p, k4v = v4, -w.kp * (p4 - ref) - w.kv * v4
                    p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
                    v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
                fine.append((p.copy(), v.copy()))
            for s, (pf, vf) in zip(la.samples, fine):
                assert np.max(np.abs(s[:3] - pf)) < 1e-6
                assert np.max(np.abs(s[3:6] - vf)) < 1e-6

    def test_lyapunov_non_increasing(self):
        for w in (L0, L1):
            s11, s12, s22 = solve_are_axis(w)
            S = np.array([[s11, s12], [s12, s22]])
            ref = np.array([2.0, -1.0, 0.5])
            la = rollout(_state([0.0, 0.0, 0.0], [1.5, -0.5, 0.0]), ref, w, 4, 0.2)
            values = []
            for s in la.samples:
                V = 0.0
                for ax in range(3):
                    e = np.array([s[ax] - ref[ax], s[3 + ax]])
                    V += float(e @ S @ e)
                values.append(V)
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_axis_decoupling(self):
        la = rollout(_state([1.0, 0.0, 0.0]), np.zeros(3), L0, 4, 0.2)
        for s in la.samples:
            assert s[7] == 0.0 and s[8] == 0.0
            assert s[1] == 0.0 and s[2] == 0.0

    def test_integrates_only_up_to_the_last_sample(self, monkeypatch):
        """One law evaluation per sample plus 10 RK4 substeps of 4 between
        consecutive samples: nothing is integrated past the last sample."""
        calls = []

        def counting_law(*args):
            calls.append(1)
            return original(*args)

        original = lqr._law
        monkeypatch.setattr(lqr, "_law", counting_law)
        la = rollout(_state([0, 0, 0]), np.array([1.0, 0.0, 0.0]), L0, 4, 0.2)
        assert len(la.samples) == 5
        assert len(calls) == 1 + 4 * (10 * 4 + 1)

    def test_a_trajectory_row_is_a_start(self):
        """Any array whose first six entries are [p | v] starts a rollout:
        from a sample row it continues the rollout that wrote the row."""
        la = rollout(_state([0.3, -0.2, 1.1], [0.5, 0.1, -0.7]), np.array([2.0, 0.0, 1.0]), L1, 4, 0.2)
        assert np.array_equal(rollout(la.samples[2], np.array([2.0, 0.0, 1.0]), L1, 2, 0.2).samples, la.samples[2:])


class TestHorizonSteps:
    """PlannerConfig derives the horizon's sample count tau / ts once."""

    def test_rejects_non_integral_horizon(self):
        with pytest.raises(ValueError):
            PlannerConfig(tau=0.7, ts=0.2)

    def test_rejects_overflowing_horizon(self):
        """tau / ts overflows to infinity: a ValueError, not an OverflowError."""
        with pytest.raises(ValueError, match="tau"):
            PlannerConfig(tau=1e300, ts=1e-300)

    def test_rejects_non_positive_step(self):
        """ts = 0 names ts: a ValueError, not a ZeroDivisionError."""
        with pytest.raises(ValueError, match="^ts: must be positive"):
            PlannerConfig(tau=0.8, ts=0.0)

    def test_rejects_negative_horizon(self):
        """Two negative times divide to a positive ratio; tau is refused first."""
        with pytest.raises(ValueError, match="^tau: must be positive"):
            PlannerConfig(tau=-0.8, ts=-0.2)

    def test_rejects_non_finite_times(self):
        for tau, ts, field in ((math.inf, 0.2, "tau"), (0.8, math.nan, "ts")):
            with pytest.raises(ValueError, match=f"^{field}: must be finite"):
                PlannerConfig(tau=tau, ts=ts)


class TestClosedLoopProperties:
    def test_stable_eigenvalues_both_modes(self):
        for w in (L0, L1):
            eig = np.linalg.eigvals(np.array([[0.0, 1.0], [-w.kp, -w.kv]]))
            assert np.all(eig.real < 0)

    def test_escape_mode_is_more_aggressive(self):
        assert L1.kp > L0.kp
        assert L1.kv > L0.kv


class TestStateVec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVec([np.inf, 0, 0], [0, 0, 0])

    def test_rest_has_zero_velocity(self):
        x = StateVec.rest([1.0, 2.0, 3.0])
        assert np.array_equal(x.v, np.zeros(3))

    def test_keeps_a_copy_of_the_callers_array(self):
        """A float array the caller changes after building the state does
        not move the validated state."""
        a = np.array([0.0, 0.0, 1.2])
        x = StateVec(a, np.zeros(3))
        a[0] = 99.0
        assert x.p.tolist() == [0.0, 0.0, 1.2]

    def test_arrays_are_read_only(self):
        x = StateVec(np.array([0.0, 0.0, 1.2]), [0, 0, 0])
        for arr in (x.p, x.v):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99.0
        assert x.p.tolist() == [0.0, 0.0, 1.2] and x.v.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("p", [[0, 0, "x"], None], ids=["string", "none"])
    def test_rest_names_a_position_that_is_not_numbers(self, p):
        """rest builds through the validated constructor: a string entry or
        None is refused naming p, not by numpy's float conversion."""
        with pytest.raises(TypeError, match=r"^p: must be 3 real numbers, got " + re.escape(repr(p)) + "$"):
            StateVec.rest(p)

    def test_refuses_a_boolean_entry(self):
        """A boolean is no real number, in a point as in a scalar field."""
        with pytest.raises(TypeError, match=r"^p: must be 3 real numbers, got \[1, 0, True\]$"):
            StateVec.rest([1, 0, True])

    def test_reads_a_large_integer_as_real_does(self):
        """10**20 is past int64 but within float's range: 1e20, as a scalar."""
        x = StateVec.rest([10**20, 0, 0])
        assert x.p.tolist() == [1e20, 0.0, 0.0] and x.p[0] == real("x", 10**20)
