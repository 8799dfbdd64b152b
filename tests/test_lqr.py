import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from depthnav import lqr
from depthnav import (
    AxisGain,
    ModeWeights,
    StateVec,
    are_residual,
    rollout,
    solve_are_axis,
)

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
        g = solve_are_axis(L0)
        S, K = _scipy_gain(L0)
        assert g.kp == pytest.approx(K[0], abs=1e-8)
        assert g.kv == pytest.approx(K[1], abs=1e-8)
        assert g.kp == pytest.approx(0.5773502691896257, abs=1e-12)
        assert g.kv == pytest.approx(1.0899696655011025, abs=1e-12)
        assert np.allclose([[g.s11, g.s12], [g.s12, g.s22]], S, atol=1e-8)

    def test_l1_gains_match_oracle(self):
        g = solve_are_axis(L1)
        _, K = _scipy_gain(L1)
        assert g.kp == pytest.approx(K[0], abs=1e-8)
        assert g.kv == pytest.approx(K[1], abs=1e-8)
        assert g.kp == pytest.approx(3.1622776601683795, abs=1e-12)
        assert g.kv == pytest.approx(2.7063915681838724, abs=1e-12)

    def test_hand_solvable_weights(self):
        g = solve_are_axis(ModeWeights(1.0, 0.0, 1.0))
        assert g.s12 == pytest.approx(1.0, abs=1e-15)
        assert g.s22 == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert g.kp == pytest.approx(1.0, abs=1e-15)
        assert g.kv == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_solution_positive_definite(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            w = ModeWeights(rng.uniform(0.1, 5), rng.uniform(0, 2), rng.uniform(0.05, 5))
            g = solve_are_axis(w)
            assert g.s11 > 0 and g.s22 > 0 and g.s12 > 0
            assert g.s11 * g.s22 - g.s12**2 > 0

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

    def test_residual_detects_perturbation(self):
        g = solve_are_axis(L0)
        bad = AxisGain(g.s11, g.s12 + 0.1, g.s22, g.kp, g.kv)
        assert are_residual(bad, L0) > 1e-3

    def test_exact_arithmetic_case(self):
        w = ModeWeights(1.0, 0.0, 1.0)
        assert are_residual(solve_are_axis(w), w) < 1e-12


def _control(x: StateVec, x_ref: StateVec, g) -> np.ndarray:
    """The control law's command at x: the input of a rollout's first sample."""
    return rollout(x, x_ref, g, 0.2, 0.2).samples[0][1]


class TestControl:
    def test_zero_at_equilibrium(self):
        g = solve_are_axis(L0)
        x = StateVec([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        assert np.allclose(_control(x, x, g), 0.0)

    def test_unit_position_error(self):
        g = solve_are_axis(L0)
        x = StateVec([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        u = _control(x, StateVec.rest([0.0, 0.0, 0.0]), g)
        assert np.allclose(u, [-0.5773502691896257, 0.0, 0.0], atol=1e-12)

    def test_linearity(self):
        g = solve_are_axis(L1)
        ref = StateVec.rest([0.0, 0.0, 0.0])
        x1 = StateVec([0.5, -0.2, 0.1], [0.3, 0.0, -0.4])
        x2 = StateVec(2 * x1.p, 2 * x1.v)
        assert np.allclose(2 * _control(x1, ref, g), _control(x2, ref, g), atol=1e-12)


class TestRollout:
    def test_equilibrium_rollout(self):
        g = solve_are_axis(L0)
        x = StateVec.rest([1.0, 2.0, 3.0])
        la = rollout(x, x, g, 0.8, 0.2)
        assert len(la.samples) == 5
        for s, u in la.samples:
            assert np.allclose(s.p, x.p) and np.allclose(s.v, 0.0)
            assert np.allclose(u, 0.0)

    def test_monotone_approach_to_reference(self):
        g = solve_are_axis(L0)
        la = rollout(StateVec.rest([0.0, 0.0, 0.0]), StateVec.rest([1.0, 0.0, 0.0]), g, 0.8, 0.2)
        xs = [float(s.p[0]) for s, _ in la.samples]
        assert len(xs) == 5
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_first_sample_is_exactly_x0(self):
        g = solve_are_axis(L1)
        x0 = StateVec([0.3, -0.2, 1.1], [0.5, 0.1, -0.7])
        la = rollout(x0, StateVec.rest([2.0, 0.0, 1.0]), g, 0.8, 0.2)
        s0, _ = la.samples[0]
        assert np.array_equal(s0.p, x0.p) and np.array_equal(s0.v, x0.v)

    def test_matches_fine_reference_integration(self):
        """RK4 at ts/10 agrees with a 1e-4 s substep reference within 1e-6 m."""
        for w in (L0, L1):
            g = solve_are_axis(w)
            x0 = StateVec([0.0, 0.5, -0.3], [1.0, -0.5, 0.2])
            ref = StateVec.rest([3.0, 0.0, 1.0])
            la = rollout(x0, ref, g, 0.8, 0.2)
            p, v = x0.p.copy(), x0.v.copy()
            h = 1e-4
            fine = [(p.copy(), v.copy())]
            for k in range(4):
                for _ in range(2000):
                    k1p, k1v = v, -g.kp * (p - ref.p) - g.kv * (v - ref.v)
                    p2, v2 = p + 0.5 * h * k1p, v + 0.5 * h * k1v
                    k2p, k2v = v2, -g.kp * (p2 - ref.p) - g.kv * (v2 - ref.v)
                    p3, v3 = p + 0.5 * h * k2p, v + 0.5 * h * k2v
                    k3p, k3v = v3, -g.kp * (p3 - ref.p) - g.kv * (v3 - ref.v)
                    p4, v4 = p + h * k3p, v + h * k3v
                    k4p, k4v = v4, -g.kp * (p4 - ref.p) - g.kv * (v4 - ref.v)
                    p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
                    v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
                fine.append((p.copy(), v.copy()))
            for (s, _), (pf, vf) in zip(la.samples, fine):
                assert np.max(np.abs(s.p - pf)) < 1e-6
                assert np.max(np.abs(s.v - vf)) < 1e-6

    def test_lyapunov_non_increasing(self):
        for w in (L0, L1):
            g = solve_are_axis(w)
            S = np.array([[g.s11, g.s12], [g.s12, g.s22]])
            ref = StateVec.rest([2.0, -1.0, 0.5])
            la = rollout(StateVec([0.0, 0.0, 0.0], [1.5, -0.5, 0.0]), ref, g, 0.8, 0.2)
            values = []
            for s, _ in la.samples:
                V = 0.0
                for ax in range(3):
                    e = np.array([s.p[ax] - ref.p[ax], s.v[ax] - ref.v[ax]])
                    V += float(e @ S @ e)
                values.append(V)
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_axis_decoupling(self):
        g = solve_are_axis(L0)
        la = rollout(StateVec.rest([1.0, 0.0, 0.0]), StateVec.rest([0.0, 0.0, 0.0]), g, 0.8, 0.2)
        for s, u in la.samples:
            assert u[1] == 0.0 and u[2] == 0.0
            assert s.p[1] == 0.0 and s.p[2] == 0.0

    def test_input_clamp(self):
        g = solve_are_axis(L1)
        la = rollout(StateVec.rest([0.0, 0.0, 0.0]), StateVec.rest([5.0, 0.0, 0.0]), g, 0.8, 0.2, u_max=2.0)
        for _, u in la.samples:
            assert np.all(np.abs(u) <= 2.0 + 1e-12)

    def test_rejects_non_integral_horizon(self):
        g = solve_are_axis(L0)
        with pytest.raises(ValueError):
            rollout(StateVec.rest([0, 0, 0]), StateVec.rest([1, 0, 0]), g, 0.7, 0.2)

    def test_rejects_overflowing_horizon(self):
        """tau / ts overflows to infinity: a ValueError, not an OverflowError."""
        g = solve_are_axis(L0)
        with pytest.raises(ValueError, match="tau"):
            rollout(StateVec.rest([0, 0, 0]), StateVec.rest([1, 0, 0]), g, 1e300, 1e-300)

    def test_integrates_only_up_to_the_last_sample(self, monkeypatch):
        """One law evaluation per sample plus 10 RK4 substeps of 4 between
        consecutive samples: nothing is integrated past the last sample."""
        calls = []

        def counting_law(*args):
            calls.append(1)
            return original(*args)

        original = lqr._law
        monkeypatch.setattr(lqr, "_law", counting_law)
        la = rollout(StateVec.rest([0, 0, 0]), StateVec.rest([1, 0, 0]), solve_are_axis(L0), 0.8, 0.2)
        assert len(la.samples) == 5
        assert len(calls) == 1 + 4 * (10 * 4 + 1)


class TestClosedLoopProperties:
    def test_stable_eigenvalues_both_modes(self):
        for w in (L0, L1):
            g = solve_are_axis(w)
            eig = np.linalg.eigvals(np.array([[0.0, 1.0], [-g.kp, -g.kv]]))
            assert np.all(eig.real < 0)

    def test_escape_mode_is_more_aggressive(self):
        g0, g1 = solve_are_axis(L0), solve_are_axis(L1)
        assert g1.kp > g0.kp
        assert g1.kv > g0.kv


class TestStateVec:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVec([np.inf, 0, 0], [0, 0, 0])

    def test_rest_has_zero_velocity(self):
        x = StateVec.rest([1.0, 2.0, 3.0])
        assert np.array_equal(x.v, np.zeros(3))
