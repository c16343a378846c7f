"""Tests for the power- and recursive-utility discount factor constructors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_transition
from recovery_lab import markov as mk
from recovery_lab import preferences as pref
from recovery_lab.exceptions import ConvergenceError

EPS = np.finfo(float).eps


def round_off_floor(v):
    """Stopping floor of the Newton solve: 4 eps max(1, |v|) in the sup norm."""
    return 4.0 * EPS * max(1.0, np.max(np.abs(v)))


def long_double_rhs(v, spec, p):
    """Right side of the recursion at v and its Jacobian, in np.longdouble.

    The rows of P are renormalized in long double, and log1p(P (v* - 1))
    stands for log(P v*), so that gamma near one costs no digits.
    """
    ld = np.longdouble
    v, p, gamma = v.astype(ld), p.astype(ld), ld(spec.gamma)
    p /= p.sum(axis=1, keepdims=True)
    beta = np.exp(-ld(spec.delta))
    w = (1 - gamma) * v
    top = np.max(w)
    rhs = (1 - beta) * np.log(spec.c.astype(ld)) + beta * ld(spec.g_c)
    rhs += beta * (np.log1p(p @ np.expm1(w - top)) + top) / (1 - gamma)
    tilt = p * np.exp(w - top)[None, :]
    return rhs, beta * tilt / tilt.sum(axis=1, keepdims=True)


def long_double_value(spec, p):
    """Continuation value of a two-state economy by Newton in np.longdouble.

    np.linalg.solve rejects long doubles, so the 2 x 2 step is solved by hand.
    """
    v = np.log(spec.c.astype(np.longdouble))
    for _ in range(40):
        rhs, jac = long_double_rhs(v, spec, p)
        gap = v - rhs
        a = np.eye(2, dtype=np.longdouble) - jac
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        v = v - np.array(
            [a[1, 1] * gap[0] - a[0, 1] * gap[1], a[0, 0] * gap[1] - a[1, 0] * gap[0]]
        ) / det
    return v


class TestPowerSdf:
    def test_two_state_closed_form(self, power_spec):
        s = pref.power_sdf(power_spec).entries
        expected = np.exp(-0.02) * np.array([[1.0, 0.25], [4.0, 1.0]])
        np.testing.assert_allclose(s, expected, rtol=1e-15)

    def test_gamma_zero_is_riskless_discounting(self):
        spec = pref.PowerUtilitySpec(delta=0.03, gamma=0.0, g_c=0.5, c=np.array([1.0, 7.0]))
        s = pref.power_sdf(spec).entries
        np.testing.assert_allclose(s, np.exp(-0.03), rtol=1e-15)

    def test_recovery_returns_preference_parameters(self, two_state_transition):
        delta, gamma, g_c = 0.03, 2.5, 0.01
        c = np.array([0.8, 1.6])
        spec = pref.PowerUtilitySpec(delta=delta, gamma=gamma, g_c=g_c, c=c)
        eco = mk.build_economy(two_state_transition, pref.power_sdf(spec))
        rec = mk.recover(eco)
        assert rec.eta_hat == pytest.approx(-(delta + gamma * g_c), abs=1e-12)
        expected_e = c**gamma / np.max(c**gamma)
        np.testing.assert_allclose(rec.e_hat, expected_e, atol=1e-12)

    def test_consumption_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            pref.PowerUtilitySpec(delta=0.02, gamma=2.0, g_c=0.0, c=np.array([1.0, 0.0]))


class TestContinuationValue:
    def test_constant_consumption_closed_form(self, two_state_transition):
        c_bar, delta, g_c = 1.7, 0.04, 0.02
        spec = pref.RecursiveUtilitySpec(
            delta=delta, gamma=6.0, g_c=g_c, c=np.full(2, c_bar)
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        beta = np.exp(-delta)
        expected = np.log(c_bar) + beta * g_c / (1.0 - beta)
        np.testing.assert_allclose(vf.v, expected, atol=1e-12)

    def test_gamma_one_matches_linear_solve(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=1.0, g_c=0.0, c=np.array([1.0, 2.0])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        beta = np.exp(-0.02)
        a = np.eye(2) - beta * two_state_transition.entries
        expected = np.linalg.solve(a, (1.0 - beta) * np.log(spec.c))
        np.testing.assert_allclose(vf.v, expected, atol=1e-13)
        assert vf.residual <= 1e-12
        np.testing.assert_allclose(vf.v_star, 1.0)

    def test_gamma_ten_fixed_point(self, recursive_spec, two_state_transition):
        vf = pref.solve_continuation_value(recursive_spec, two_state_transition)
        assert vf.residual <= 1e-12
        assert vf.v[0] != pytest.approx(vf.v[1], abs=1e-4)
        # brute-force iteration from a different start reaches the same point
        beta = np.exp(-recursive_spec.delta)
        v = np.zeros(2)
        for _ in range(3000):
            w = (1.0 - recursive_spec.gamma) * v
            risk = np.log(two_state_transition.entries @ np.exp(w)) / (
                1.0 - recursive_spec.gamma
            )
            v = (1.0 - beta) * np.log(recursive_spec.c) + beta * risk
        np.testing.assert_allclose(vf.v, v, atol=1e-12)

    def test_large_gamma_log_sum_exp_stable(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=0.05, gamma=250.0, g_c=0.0, c=np.array([1.0, 4.0])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        assert np.all(np.isfinite(vf.v))
        assert vf.residual <= 1e-12

    def test_nonconvergence_detected(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=1e-6, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0])
        )
        with pytest.raises(ConvergenceError, match="residual"):
            pref.solve_continuation_value(spec, two_state_transition, max_iter=1)

    def test_tiny_delta_converges_at_round_off_floor(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=1e-6, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        assert vf.residual <= round_off_floor(vf.v)

    def test_monthly_delta_matches_long_double_reference(self):
        # the fixed-point iteration's absolute stop left an error of 5.0e-10 here
        rng = np.random.default_rng(7)
        p = random_transition(rng, 2)
        spec = pref.RecursiveUtilitySpec(
            delta=2e-4, gamma=10.0, g_c=0.001, c=rng.uniform(0.5, 2.0, size=2)
        )
        vf = pref.solve_continuation_value(spec, p)
        reference = long_double_value(spec, p.entries)
        assert np.max(np.abs(vf.v - reference.astype(float))) <= 5e-11

    @pytest.mark.parametrize("gamma", [1.0 - 1e-9, 1.0 + 1e-6, 1.01, 0.9])
    def test_gamma_near_one_reaches_round_off_floor(self, gamma):
        # log(P v*) loses the digits of P v* - 1 when gamma is near one
        rng = np.random.default_rng(3)
        p = random_transition(rng, 5)
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=gamma, g_c=0.001, c=rng.uniform(0.5, 2.0, size=5)
        )
        vf = pref.solve_continuation_value(spec, p)
        assert vf.residual <= round_off_floor(vf.v)
        # the residual in extended precision is at the floor as well
        exact_gap = vf.v - long_double_rhs(vf.v, spec, p.entries)[0]
        assert np.max(np.abs(exact_gap)) <= round_off_floor(vf.v)

    def test_sparse_row_at_large_gamma(self):
        # state 1 is absorbing and exp[(1 - gamma)(v_1 - v_0)] underflows: each
        # row needs its own log-sum-exp shift
        delta, g_c, c = 0.05, 0.001, np.array([1.0, 30.0])
        p = mk.StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
        spec = pref.RecursiveUtilitySpec(delta=delta, gamma=250.0, g_c=g_c, c=c)
        vf = pref.solve_continuation_value(spec, p)
        assert vf.residual <= round_off_floor(vf.v)
        beta = np.exp(-delta)
        assert vf.v[1] == pytest.approx(np.log(30.0) + beta * g_c / (1.0 - beta), abs=1e-13)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = random_transition(rng, 4).entries
        spec = pref.RecursiveUtilitySpec(
            delta=0.1, gamma=10.0, g_c=0.0, c=rng.uniform(0.5, 2.0, 4)
        )
        v = rng.normal(0.0, 0.3, size=4)
        _, jac = pref._recursion_rhs(v, spec, p)
        h = 1e-6
        for j in range(4):
            step = h * (np.arange(4) == j)
            up, _ = pref._recursion_rhs(v + step, spec, p)
            down, _ = pref._recursion_rhs(v - step, spec, p)
            np.testing.assert_allclose((up - down) / (2 * h), jac[:, j], atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.5, 50.0).filter(lambda g: g != 1.0),
        st.floats(0.01, 0.5),
    )
    def test_newton_matches_plain_fixed_point(self, n, seed, gamma, delta):
        rng = np.random.default_rng(seed)
        p = random_transition(rng, n)
        spec = pref.RecursiveUtilitySpec(
            delta=delta, gamma=gamma, g_c=0.001, c=rng.uniform(0.5, 2.0, size=n)
        )
        vf = pref.solve_continuation_value(spec, p)
        floor = round_off_floor(vf.v)
        assert vf.residual <= floor
        v = np.log(spec.c)
        for _ in range(100_000):
            v_next = pref._recursion_rhs(v, spec, p.entries)[0]
            if np.max(np.abs(v_next - v)) <= 1e-13:
                break
            v = v_next
        else:
            pytest.fail("plain fixed-point loop did not converge")
        beta = np.exp(-delta)
        assert np.max(np.abs(vf.v - v_next)) <= (1e-13 * beta + floor) / (1.0 - beta)

    def test_delta_to_zero_flattens_values(self, two_state_transition):
        spreads = []
        for delta in (0.5, 0.2, 0.1, 0.05, 0.02):
            spec = pref.RecursiveUtilitySpec(
                delta=delta, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0])
            )
            vf = pref.solve_continuation_value(spec, two_state_transition)
            spreads.append(np.max(vf.v) - np.min(vf.v))
        assert all(a > b for a, b in zip(spreads[:-1], spreads[1:]))


class TestRecursiveSdf:
    def test_gamma_one_reduces_to_power_utility(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=1.0, g_c=0.01, c=np.array([1.0, 2.0])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        s = pref.recursive_sdf(spec, two_state_transition, vf).entries
        power = pref.power_sdf(
            pref.PowerUtilitySpec(delta=0.02, gamma=1.0, g_c=0.01, c=spec.c)
        ).entries
        np.testing.assert_allclose(s, power, rtol=1e-12)

    def test_recovery_closed_forms(self, recursive_spec, two_state_transition):
        vf = pref.solve_continuation_value(recursive_spec, two_state_transition)
        eco = mk.build_economy(
            two_state_transition,
            pref.recursive_sdf(recursive_spec, two_state_transition, vf),
        )
        rec = mk.recover(eco)
        assert rec.eta_hat == pytest.approx(
            -(recursive_spec.delta + recursive_spec.g_c), abs=1e-12
        )
        np.testing.assert_allclose(
            rec.e_hat, recursive_spec.c / np.max(recursive_spec.c), atol=1e-11
        )
        p = two_state_transition.entries
        closed = p * vf.v_star[None, :] / (p @ vf.v_star)[:, None]
        np.testing.assert_allclose(rec.p_hat.entries, closed, atol=1e-10)

    def test_martingale_rows_sum_to_one(self, recursive_value, two_state_transition):
        inc = pref.recursive_martingale(two_state_transition, recursive_value)
        row = (inc * two_state_transition.entries).sum(axis=1)
        np.testing.assert_allclose(row, 1.0, rtol=1e-15)

    def test_gamma_one_increments_unity(self, two_state_transition):
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=1.0, g_c=0.0, c=np.array([1.0, 2.0])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        inc = pref.recursive_martingale(two_state_transition, vf)
        np.testing.assert_allclose(inc, 1.0, rtol=1e-14)

    def test_gamma_ten_increments_not_unity(self, recursive_value, two_state_transition):
        inc = pref.recursive_martingale(two_state_transition, recursive_value)
        assert np.max(np.abs(inc - 1.0)) > 1e-3

    def test_overflowing_v_star_gives_finite_sdf(self, two_state_transition):
        # (1 - gamma) v is about 800, so v* = exp[(1 - gamma) v] overflows,
        # while the ratio v*_j / (P_i v*) is of order one
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=250.0, g_c=0.0, c=np.array([0.04, 0.05])
        )
        vf = pref.solve_continuation_value(spec, two_state_transition)
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(vf.v_star))
        p = two_state_transition.entries
        w = vf.log_v_star
        log_pv = np.log(np.sum(p * np.exp(w[None, :] - w.max()), axis=1)) + w.max()
        ratio = np.exp(w[None, :] - log_pv[:, None])
        inc = pref.recursive_martingale(two_state_transition, vf)
        np.testing.assert_allclose(inc, ratio, rtol=1e-12)
        np.testing.assert_allclose((p * inc).sum(axis=1), 1.0, rtol=1e-15)
        s = pref.recursive_sdf(spec, two_state_transition, vf).entries
        expected = np.exp(-spec.delta) * (spec.c[:, None] / spec.c[None, :]) * ratio
        np.testing.assert_allclose(s, expected, rtol=1e-12)

    def test_overweighting_of_low_value_states(self, two_state_transition):
        # for gamma > 1 the recovered probabilities tilt toward low v_j
        rng = np.random.default_rng(5)
        p = mk.StochasticMatrix(rng.dirichlet(np.ones(4) * 3, size=4))
        spec = pref.RecursiveUtilitySpec(
            delta=0.03, gamma=8.0, g_c=0.0, c=rng.uniform(0.5, 2.0, 4)
        )
        vf = pref.solve_continuation_value(spec, p)
        eco = mk.build_economy(p, pref.recursive_sdf(spec, p, vf))
        rec = mk.recover(eco)
        ratio = rec.h_increments
        order = np.argsort(vf.v)
        for i in range(4):
            tilted = ratio[i, order]
            assert np.all(np.diff(tilted) < 0)

    def test_subjective_beliefs_round_trip(self, two_state_transition):
        # pricing under subjective beliefs: recovery returns the subjective
        # transition distorted by the continuation-value adjustment, not the
        # subjective transition itself
        subjective = mk.StochasticMatrix([[0.7, 0.3], [0.4, 0.6]])
        spec = pref.RecursiveUtilitySpec(
            delta=0.02, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0])
        )
        vf = pref.solve_continuation_value(spec, subjective)
        eco = mk.build_economy(subjective, pref.recursive_sdf(spec, subjective, vf))
        rec = mk.recover(eco)
        p = subjective.entries
        distorted = p * vf.v_star[None, :] / (p @ vf.v_star)[:, None]
        np.testing.assert_allclose(rec.p_hat.entries, distorted, atol=1e-10)
        assert np.max(np.abs(rec.p_hat.entries - p)) > 1e-3


class TestSpecValidation:
    def test_recursive_requires_positive_delta(self):
        with pytest.raises(ValueError, match="positive"):
            pref.RecursiveUtilitySpec(delta=0.0, gamma=5.0, g_c=0.0, c=np.ones(2))

    def test_json_round_trip_both_kinds(self):
        power = pref.PowerUtilitySpec(delta=0.02, gamma=2.0, g_c=0.01, c=np.array([1.0, 2.5]))
        rec = pref.RecursiveUtilitySpec(delta=0.03, gamma=7.0, g_c=0.0, c=np.array([0.5, 1.5]))
        for spec in (power, rec):
            rebuilt = pref.spec_from_dict(pref.spec_to_dict(spec))
            assert type(rebuilt) is type(spec)
            assert rebuilt.delta == spec.delta
            np.testing.assert_array_equal(rebuilt.c, spec.c)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown preference type"):
            pref.spec_from_dict({"type": "habit", "delta": 0.1, "gamma": 1, "g_c": 0, "c": [1]})
