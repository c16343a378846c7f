"""Tests for the long-run-risk pipeline.

The exponent-ODE solver is cross-validated three ways before anything else
depends on it: closed-form identities of the unit-elasticity model (the
consumption-claim price is exactly exp(-delta t) and the continuation-value
martingale has unit expectation at every horizon), a deterministic submodel
with a hand-integrated linear solution, and the Monte Carlo simulator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab import lrr
from recovery_lab.exceptions import (
    BlowUpError,
    ModelValidityError,
    ValueFunctionExistenceError,
)

MC_DT = 1.0  # one month, the natural step of the exact square-root transitions
IDENTITY_C = 8.0  # round-off allowance of the pathwise identity, in eps per unit of sum|terms|


@pytest.fixture(scope="module")
def params():
    return lrr.LrrParams()


@pytest.fixture(scope="module")
def value(params):
    return lrr.solve_value_function(params)


@pytest.fixture(scope="module")
def sdf(params, value):
    return lrr.sdf_coefficients(params, value)


@pytest.fixture(scope="module")
def pf(params, sdf):
    return lrr.solve_pf(params, sdf)


@pytest.fixture(scope="module")
def cm(params, pf):
    return lrr.changed_measure(params, pf)


class TestValueFunction:
    def test_v1_closed_form(self, value):
        assert value.v1 == pytest.approx(1.0 / (0.002 + 0.021), rel=1e-12)

    def test_discriminant_positive(self, value):
        assert value.discriminant > 0

    def test_equations_hold(self, params, value):
        res = lrr._value_equation_residuals(params, value)
        assert np.max(np.abs(res)) <= 1e-12

    def test_gamma_one_linear_branch(self, params):
        p1 = lrr.apply_overrides(params, {"gamma": 1.0})
        v = lrr.solve_value_function(p1)
        bc2 = p1.beta_c[2]
        expected = -(bc2 + p1.mu_12 * v.v1) / (p1.mu_22 - p1.delta)
        assert v.v2 == pytest.approx(expected, rel=1e-12)
        # quadratic solution is continuous into the linear branch
        near_one = lrr.solve_value_function(lrr.apply_overrides(params, {"gamma": 1.0 + 1e-9}))
        assert near_one.v2 == pytest.approx(v.v2, abs=1e-6)

    def test_large_gamma_raises_with_discriminant(self, params):
        with pytest.raises(ValueFunctionExistenceError) as info:
            lrr.solve_value_function(lrr.apply_overrides(params, {"gamma": 500.0}))
        assert info.value.discriminant < 0

    def test_existence_boundary_located_by_bisection(self, params):
        lo, hi = 10.0, 500.0  # exists at lo, fails at hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                lrr.solve_value_function(lrr.apply_overrides(params, {"gamma": mid}))
                lo = mid
            except ValueFunctionExistenceError:
                hi = mid
        boundary = lrr.solve_value_function(lrr.apply_overrides(params, {"gamma": lo}))
        assert boundary.discriminant == pytest.approx(0.0, abs=1e-8)


class TestSdfCoefficients:
    def test_gamma_one_is_discounted_log_utility(self, params):
        p1 = lrr.apply_overrides(params, {"gamma": 1.0})
        v1 = lrr.solve_value_function(p1)
        s1 = lrr.sdf_coefficients(p1, v1)
        np.testing.assert_allclose(
            lrr.continuation_martingale_loading(p1, v1), 0.0, atol=1e-15
        )
        np.testing.assert_allclose(s1.alpha, -np.asarray(p1.alpha_c), atol=1e-15)
        assert s1.b0 == pytest.approx(-p1.delta - p1.beta_c[0])

    def test_loading_assembled_from_value_coefficients(self, params, value, sdf):
        s1 = np.asarray(params.sigma_1)
        s2 = np.asarray(params.sigma_2)
        ac = np.asarray(params.alpha_c)
        expected = -ac + (1.0 - params.gamma) * (ac + s1 * value.v1 + s2 * value.v2)
        np.testing.assert_allclose(sdf.alpha, expected, rtol=1e-14)

    def test_martingale_expectation_one_by_simulation(self, params, value):
        hstar = lrr.h_star_functional(params, value)
        moments = lrr.simulate_functional(
            hstar, params.dynamics(), horizons=[12.0], dt=MC_DT, n_paths=100_000, seed=2
        )
        assert abs(moments[0].mean - 1.0) <= 3.0 * moments[0].se


class TestPfSolution:
    def test_equations_hold(self, params, sdf, pf):
        res = lrr.pf_equation_residuals(params, sdf, pf)
        assert np.max(np.abs(res)) <= 1e-12

    def test_smaller_eta_root_selected(self, pf):
        assert pf.eta_hat < pf.eta_other
        assert pf.e2 < pf.e2_other

    def test_chosen_root_gives_mean_reverting_volatility(self, cm):
        assert cm.mu_22 < 0

    def test_degenerate_sdf_recovers_physical_measure(self, params):
        flat = lrr.AffineFunctional(b0=-0.004, b1=0.0, b2=0.0, alpha=np.zeros(3))
        sol = lrr.solve_pf(params, flat)
        assert sol.e1 == 0.0
        assert sol.e2 == 0.0
        assert sol.eta_hat == pytest.approx(-0.004)
        cm0 = lrr.changed_measure(params, sol)
        assert cm0.mu_12 == params.mu_12
        assert cm0.mu_22 == params.mu_22
        np.testing.assert_allclose(cm0.iota, params.iota, atol=1e-15)

    def test_alpha_h_assembly(self, params, sdf, pf):
        expected = (
            sdf.alpha
            + np.asarray(params.sigma_1) * pf.e1
            + np.asarray(params.sigma_2) * pf.e2
        )
        np.testing.assert_allclose(pf.alpha_h, expected, rtol=1e-14)


class TestChangedMeasure:
    def test_higher_volatility_mean(self, params, cm):
        assert cm.iota[1] > params.iota[1]

    def test_lower_growth_mean(self, cm):
        assert cm.iota[0] < 0.0

    def test_formulas(self, params, pf, cm):
        s1 = np.asarray(params.sigma_1)
        s2 = np.asarray(params.sigma_2)
        assert cm.mu_11 == params.mu_11
        assert cm.mu_12 == pytest.approx(params.mu_12 + float(s1 @ pf.alpha_h))
        assert cm.mu_22 == pytest.approx(params.mu_22 + float(s2 @ pf.alpha_h))
        assert cm.iota[1] == pytest.approx(params.mu_22 / cm.mu_22 * params.iota[1])

    def test_measure_changes_are_state_dynamics_with_the_same_volatilities(
        self, params, sdf, cm
    ):
        for shifted in (cm, lrr.risk_neutral_dynamics(params, sdf)):
            assert isinstance(shifted, lrr.StateDynamics)
            np.testing.assert_array_equal(shifted.sigma_1, params.sigma_1)
            np.testing.assert_array_equal(shifted.sigma_2, params.sigma_2)

    def test_mu22_hat_is_minus_root_discriminant(self, params, sdf, pf, cm):
        # mu_22_hat = qb + 2 qa e2 = -sqrt(D) at the minus root, so ergodicity
        # of the selected root is automatic whenever the quadratic has a
        # strictly positive discriminant
        s1 = np.asarray(params.sigma_1)
        s2 = np.asarray(params.sigma_2)
        qa = 0.5 * float(s2 @ s2)
        qb = params.mu_22 + float(s2 @ sdf.alpha) + pf.e1 * float(s1 @ s2)
        qc = (
            sdf.b2
            + 0.5 * float(sdf.alpha @ sdf.alpha)
            + pf.e1 * (params.mu_12 + float(s1 @ sdf.alpha))
            + 0.5 * pf.e1**2 * float(s1 @ s1)
        )
        disc = qb**2 - 4 * qa * qc
        assert cm.mu_22 == pytest.approx(-np.sqrt(disc), rel=1e-12)

    def test_simulated_volatility_mean_under_new_measure(self, params, cm):
        x1, x2 = lrr.simulate_states(
            cm, horizon=600.0, dt=MC_DT, n_paths=50_000, seed=3
        )
        se = np.std(x2, ddof=1) / np.sqrt(len(x2))
        assert abs(np.mean(x2) - cm.iota[1]) <= 3.0 * se


class TestAffineExpectation:
    def test_horizon_zero_is_one(self, params, sdf):
        ode = lrr.solve_affine_ode(sdf, params.dynamics(), 0.0)
        assert ode.expectation(0.0, params.iota) == 1.0

    def test_consumption_claim_priced_in_closed_form(self, params, value, sdf):
        # with unit elasticity, S C = exp(-delta t) x martingale
        sc = lrr.add_functionals(sdf, lrr.consumption_functional(params))
        ode = lrr.solve_affine_ode(sc, params.dynamics(), 240.0)
        for t in (1.0, 60.0, 240.0):
            assert ode.expectation(t, params.iota) == pytest.approx(
                np.exp(-params.delta * t), rel=1e-9
            )
        x = np.array([0.01, 1.3])
        assert ode.expectation(120.0, x) == pytest.approx(
            np.exp(-params.delta * 120.0), rel=1e-9
        )

    def test_martingale_has_unit_expectation(self, params, value):
        hstar = lrr.h_star_functional(params, value)
        ode = lrr.solve_affine_ode(hstar, params.dynamics(), 600.0)
        for t in (1.0, 100.0, 600.0):
            assert ode.expectation(t, params.iota) == pytest.approx(1.0, rel=1e-10)

    def test_deterministic_submodel_hand_integrated(self, params):
        # sigma = 0, alpha = 0: theta1 solves a scalar linear ODE and theta0
        # a quadrature, both in closed form
        det = lrr.LrrParams(
            mu_11=params.mu_11,
            mu_12=0.0,
            mu_22=params.mu_22,
            sigma_1=(0.0, 1e-30, 0.0),  # zero vol (tiny entry keeps shape)
            sigma_2=(0.0, 0.0, 1e-30),
            iota=params.iota,
            beta_c=(0.001, 0.5, -0.002),
            alpha_c=(0.0, 0.0, 0.0),
            delta=params.delta,
            gamma=params.gamma,
        )
        f = lrr.consumption_functional(det)
        dyn = det.dynamics()
        ode = lrr.solve_affine_ode(f, dyn, 120.0)
        b0, b1, b2 = det.beta_c
        m11, m22 = det.mu_11, det.mu_22
        i1, i2 = det.iota
        for t in (1.0, 12.0, 120.0):
            th1 = b1 / m11 * (np.exp(m11 * t) - 1.0)
            th2 = b2 / m22 * (np.exp(m22 * t) - 1.0)
            # theta0' = b0 - b1 i1 - b2 i2 - th1 m11 i1 - th2 m22 i2
            int_th1 = b1 / m11 * ((np.exp(m11 * t) - 1.0) / m11 - t)
            int_th2 = b2 / m22 * ((np.exp(m22 * t) - 1.0) / m22 - t)
            th0 = (b0 - b1 * i1 - b2 * i2) * t - m11 * i1 * int_th1 - m22 * i2 * int_th2
            got = ode.evaluate(t)
            assert got[0] == pytest.approx(th0, rel=1e-10, abs=1e-12)
            assert got[1] == pytest.approx(th1, rel=1e-10, abs=1e-12)
            assert got[2] == pytest.approx(th2, rel=1e-10, abs=1e-12)

    def test_monte_carlo_oracle_small(self, params, sdf):
        # the full million-path gate runs in the acceptance suite
        ode = lrr.solve_affine_ode(sdf, params.dynamics(), 12.0)
        moments = lrr.simulate_functional(
            sdf, params.dynamics(), horizons=[12.0], dt=MC_DT, n_paths=100_000, seed=5
        )
        assert abs(moments[0].mean - ode.expectation(12.0, params.iota)) <= 3.0 * moments[0].se

    def test_blow_up_detected(self, params):
        # a huge quadratic loading explodes the Riccati exponent in finite time
        wild = lrr.AffineFunctional(b0=0.0, b1=0.0, b2=2.0, alpha=np.zeros(3))
        with pytest.raises(BlowUpError) as info:
            lrr.solve_affine_ode(wild, params.dynamics(), 1200.0)
        assert 0.0 < info.value.blow_up_time < 1200.0

    def test_theta_converges_to_eigenpair(self, params, sdf, pf):
        # the stationary point of the exponent ODEs is the dominant eigenpair
        ode = lrr.solve_affine_ode(sdf, params.dynamics(), 6000.0)
        t0, t1, t2 = ode.evaluate(6000.0)
        s0, s1, s2 = ode.evaluate(5900.0)
        assert t1 == pytest.approx(pf.e1, rel=1e-6)
        assert t2 == pytest.approx(pf.e2, rel=1e-6)
        assert (t0 - s0) / 100.0 == pytest.approx(pf.eta_hat, rel=1e-8)


def solve_ivp_exponents(functional, dynamics, horizons):
    """The exponent ODEs of ``solve_affine_ode``'s docstring by scipy's RK45
    at rtol 1e-12, at the horizons; None if |theta| passes 1e8 first (the
    time it does so is then the second value)."""
    from scipy.integrate import solve_ivp

    d, f = dynamics, functional
    s11, s12, s22 = (float(u @ v) for u, v in
                     ((d.sigma_1, d.sigma_1), (d.sigma_1, d.sigma_2), (d.sigma_2, d.sigma_2)))
    a1, a2, aa = float(d.sigma_1 @ f.alpha), float(d.sigma_2 @ f.alpha), float(f.alpha @ f.alpha)
    i1, i2 = d.iota

    def rhs(_t, th):
        _, th1, th2 = th
        return (
            f.b0 - f.b1 * i1 - f.b2 * i2 - th1 * (d.mu_11 * i1 + d.mu_12 * i2) - th2 * d.mu_22 * i2,
            f.b1 + d.mu_11 * th1,
            f.b2 + 0.5 * aa + th1 * (d.mu_12 + a1) + th2 * (d.mu_22 + a2)
            + 0.5 * (th1 * th1 * s11 + 2.0 * th1 * th2 * s12 + th2 * th2 * s22),
        )

    def explodes(_t, th):
        return max(abs(th[1]), abs(th[2])) - 1e8

    explodes.terminal = True
    sol = solve_ivp(rhs, (0.0, float(horizons[-1])), np.zeros(3), method="RK45",
                    t_eval=horizons, rtol=1e-12, atol=1e-14, events=explodes)
    if sol.t_events[0].size:
        return None, float(sol.t_events[0][0])
    assert sol.success
    return sol.y, None


def assert_exponents_match(got, want):
    """Within 1e-10 relative, with a floor of 1e-10 times each exponent's
    largest size over the horizons."""
    floor = 1e-10 * np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + floor)


HORIZONS = np.linspace(12.0, 1200.0, 100)  # the default yield horizons, in months


class TestExponentPropagator:
    """The Magnus exponents against an RK45 reference and against themselves."""

    @pytest.fixture(scope="class")
    def default_functionals(self, params, sdf, pf, cm):
        # the four exponent solves of a default ``recovery-lab lrr``
        g = lrr.consumption_functional(params)
        g_hat = lrr.change_functional_measure(g, params, pf.alpha_h, cm)
        dyn_p = params.dynamics()
        return [
            (lrr.add_functionals(sdf, g), dyn_p),
            (g, dyn_p),
            (g_hat, cm),
            (lrr.add_functionals(sdf, lrr.unit_functional()), dyn_p),
        ]

    def test_default_functionals_match_rk45(self, default_functionals):
        for f, dyn in default_functionals:
            want, _ = solve_ivp_exponents(f, dyn, HORIZONS)
            assert_exponents_match(lrr._exponents(f, dyn, HORIZONS).T, want)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        b0=st.floats(-0.02, 0.02),
        b1=st.floats(-2.0, 2.0),
        b2=st.floats(-0.05, 0.05),
        alpha=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
        recovered=st.booleans(),
    )
    def test_drawn_functionals_match_rk45(self, params, cm, b0, b1, b2, alpha, recovered):
        f = lrr.AffineFunctional(b0=b0, b1=b1, b2=b2, alpha=np.array(alpha))
        dyn = cm if recovered else params.dynamics()
        want, t_explode = solve_ivp_exponents(f, dyn, HORIZONS)
        if want is None:
            # w reaches 0 just after theta2 passes 1e8 (theta2 ~ 1 / (R (T - t)))
            with pytest.raises(BlowUpError) as info:
                lrr._exponents(f, dyn, HORIZONS)
            assert info.value.blow_up_time == pytest.approx(t_explode, rel=1e-4)
        else:
            assert_exponents_match(lrr._exponents(f, dyn, HORIZONS).T, want)

    def test_halving_the_step_moves_nothing(self, default_functionals, monkeypatch):
        coarse = [lrr._exponents(f, dyn, HORIZONS) for f, dyn in default_functionals]
        monkeypatch.setattr(lrr, "_EXPONENT_STEPS", 2 * lrr._EXPONENT_STEPS)
        monkeypatch.setattr(lrr, "_EXPONENT_RATE_STEP", 0.5 * lrr._EXPONENT_RATE_STEP)
        for (f, dyn), old in zip(default_functionals, coarse):
            new = lrr._exponents(f, dyn, HORIZONS)
            scale = np.max(np.abs(new), axis=0)
            assert np.all(np.abs(new - old) <= 1e-12 * np.maximum(np.abs(new), scale))

    def test_evaluate_outside_the_integrated_range_raises(self, params, sdf):
        ode = lrr.solve_affine_ode(sdf, params.dynamics(), 300.0)
        assert ode.t_max == 300.0
        with pytest.raises(ValueError, match="outside"):
            ode.evaluate(301.0)
        with pytest.raises(ValueError, match="outside"):
            ode.evaluate(-1.0)


class TestMeasureTransforms:
    def test_price_invariance_under_recovered_measure(self, params, value, sdf, pf, cm):
        # E[S G | x] computed under P equals E[S_hat G_hat | x] computed
        # under P_hat for the consumption cash flow
        g = lrr.consumption_functional(params)
        sg = lrr.add_functionals(sdf, g)
        direct = lrr.solve_affine_ode(sg, params.dynamics(), 240.0)

        g_hat = lrr.change_functional_measure(g, params, pf.alpha_h, cm)
        s_hat = lrr.recovered_sdf_functional(pf, cm)
        via_hat = lrr.solve_affine_ode(
            lrr.add_functionals(s_hat, g_hat), cm, 240.0
        )
        x = np.array([0.005, 0.9])
        for t in (1.0, 24.0, 240.0):
            assert via_hat.expectation(t, x) == pytest.approx(
                direct.expectation(t, x), rel=1e-8
            )

    @staticmethod
    def _identity_errors(params, sdf, pf, seed, e1):
        """|log S - [eta t - e . (X_t - X_0) + log H]| per path, and the bound
        IDENTITY_C eps sum|terms|, the terms being every per-step increment of
        both logs plus the three right-hand terms."""
        dyn = params.dynamics()
        ah2 = float(pf.alpha_h @ pf.alpha_h)
        h_hat = lrr.AffineFunctional(
            b0=-0.5 * params.iota[1] * ah2, b1=0.0, b2=-0.5 * ah2, alpha=pf.alpha_h
        )
        times = [k / 12 for k in range(1, 145)]
        x1, x2, logs, snaps = lrr._simulate_core(
            dyn, [sdf, h_hat], 12.0, 1 / 12, 1000, seed, None, record_times=times
        )
        log_s, log_h = logs
        path = np.stack([np.zeros((2, x1.size))] + [np.stack(snaps[t]) for t in times])
        rhs_terms = [
            np.full(x1.size, pf.eta_hat * 12.0),
            -e1 * (x1 - params.iota[0]),
            -pf.e2 * (x2 - params.iota[1]),
        ]
        terms = np.abs(np.diff(path, axis=0)).sum(axis=(0, 1)) + sum(map(np.abs, rhs_terms))
        err = np.abs(log_s - (sum(rhs_terms) + log_h))
        return err, IDENTITY_C * np.finfo(float).eps * terms

    def test_recovered_sdf_decomposition_identity_pathwise(self, params, sdf, pf):
        # log S - [eta t - e . (X_t - X_0) + log H] vanishes along paths up to
        # the shared discretization: both sides are accumulated with the same
        # shocks via two functionals, so only round-off separates them.  The
        # bound is IDENTITY_C eps sum|terms| per path; over seeds 0-199 the
        # largest error is 1.31 eps sum|terms|
        for seed in range(10):
            err, bound = self._identity_errors(params, sdf, pf, seed, pf.e1)
            assert np.all(err <= bound), (seed, float(np.max(err / bound)))

    def test_identity_bound_detects_perturbed_eigenfunction(self, params, sdf, pf):
        # the bound is tight enough to see e1 off by 1e-9 relative
        err, bound = self._identity_errors(params, sdf, pf, 9, pf.e1 * (1.0 + 1e-9))
        assert np.any(err > bound)

    def test_risk_neutral_density_close_to_recovered(self, params, sdf, pf, cm):
        # diagnostic: the two risk-adjusted measures nearly coincide here
        rn = lrr.risk_neutral_dynamics(params, sdf)
        assert rn.mu_22 == pytest.approx(cm.mu_22, rel=0.05)
        assert rn.iota[1] == pytest.approx(cm.iota[1], rel=0.05)


class TestSimulatorChunking:
    def test_ragged_final_chunk_and_count(self, params):
        n = lrr._CHUNK_PATHS + 17
        x1, x2 = lrr.simulate_states(params.dynamics(), 1.0, 1 / 12, n, seed=0)
        assert x1.shape == (n,) and x2.shape == (n,)
        assert np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))

    def test_same_seed_reproduces(self, params):
        a = lrr.simulate_states(params.dynamics(), 2.0, 1 / 12, 1000, seed=4)
        b = lrr.simulate_states(params.dynamics(), 2.0, 1 / 12, 1000, seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestStepper:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        mu_11=st.floats(-0.5, -0.005),
        mu_12=st.floats(-0.05, 0.05),
        mu_22=st.floats(-0.5, -0.005),
        tilt=st.floats(-1.0, 1.0),
        h=st.sampled_from([1 / 250, 1 / 12, 1.0]),
    )
    def test_one_step_x1_matches_ou_given_x2(self, mu_11, mu_12, mu_22, tilt, h):
        # X1_h - iota1 = e^{mu_11 h} (x1 - iota1) + mu_12 int e^{mu_11 (h-s)} (X2 - iota2) ds
        #                + int e^{mu_11 (h-s)} sqrt(X2) sigma_1.dW
        # given the X2 endpoints, with X2 linear in between and its own shock
        # sigma_2.dW a Brownian bridge pinned by the martingale increment y
        dyn = lrr.StateDynamics(
            mu_11=mu_11, mu_12=mu_12, mu_22=mu_22, iota=(0.0, 1.0),
            sigma_1=(0.0, 0.01, 0.01 * tilt), sigma_2=(0.0, 0.0, 0.2),
        )
        x0 = (0.03, 0.8)
        n = 40_000
        x1, x2, _, _ = lrr._simulate_core(dyn, [], h, h, n, seed=1, x0=x0)
        s = np.linspace(0.0, h, 4001)
        kernel = np.exp(mu_11 * (h - s))
        w1 = np.trapezoid(kernel, s) / h
        w2 = np.trapezoid(kernel**2, s) / h
        integral = 0.5 * h * (x0[1] + x2)
        y = x2 - x0[1] - mu_22 * (integral - h)  # X2 increment less its drift
        beta = float(dyn.sigma_1 @ dyn.sigma_2) / float(dyn.sigma_2 @ dyn.sigma_2)
        perp = dyn.sigma_1 - beta * dyn.sigma_2
        mean = (
            math.exp(mu_11 * h) * x0[0]
            + mu_12 * w1 * (integral - h)
            + w1 * beta * y
        )
        var = integral * (w1**2 * float(perp @ perp) + (w2 - w1**2) * float(dyn.sigma_1 @ dyn.sigma_1))
        z = (x1 - mean) / np.sqrt(var)
        assert abs(z.mean()) <= 5.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        assert np.all(x2 >= 0.0)

    @pytest.mark.parametrize("n_functionals", [0, 2])
    def test_chunk_matches_formula_loop(self, params, sdf, n_functionals):
        # the in-place loop gives the formulas' results bit for bit; X1 is
        # driven by X2 and its shock is correlated with X2's
        d = lrr.StateDynamics(
            mu_11=-0.021, mu_12=0.004, mu_22=-0.013, iota=(0.001, 1.0),
            sigma_1=(0.0, 0.00034, 0.0002), sigma_2=(0.0, 0.0, -0.038),
        )
        functionals = [sdf, lrr.consumption_functional(params)][:n_functionals]
        n, n_steps, dt = 300, 24, 1.0
        start = np.array([0.003, 1.3])
        got = lrr._simulate_chunk(
            d, functionals, n_steps, dt, n, np.random.default_rng(3), start, {12: 12.0}
        )
        rng = np.random.default_rng(3)
        i1, i2 = d.iota
        c1, x2 = np.full(n, start[0] - i1), np.full(n, start[1])
        logs = [np.zeros(n) for _ in functionals]
        coef, loads, w1 = lrr._shock_loads(d, functionals, dt)
        s22 = float(d.sigma_2 @ d.sigma_2)
        for step in range(1, n_steps + 1):
            x2, integral, y2 = lrr.square_root_step(x2, -d.mu_22 * i2, -d.mu_22, s22, dt, rng)
            j2 = integral - i2 * dt
            z = rng.standard_normal((loads.shape[1], n))
            shocks = (loads @ z) * np.sqrt(integral) + coef[:, None] * y2
            c1_new = np.exp(d.mu_11 * dt) * c1 + (d.mu_12 * w1) * j2 + shocks[0]
            if functionals:
                int_c1 = (c1_new - c1 - d.mu_12 * j2 - shocks[1]) / d.mu_11
                for idx, f in enumerate(functionals):
                    logs[idx] += f.b0 * dt + f.b1 * int_c1 + f.b2 * j2 + shocks[2 + idx]
            c1 = c1_new
            if step == 12:
                snapshot = [lg.copy() for lg in logs]
        np.testing.assert_array_equal(got[0], c1 + i1)
        np.testing.assert_array_equal(got[1], x2)
        for a, b in zip(got[2] + got[3][12.0], logs + snapshot):
            np.testing.assert_array_equal(a, b)

    def test_horizon_off_the_step_grid_rejected(self, params):
        # half a month at the one-month default step used to round silently
        with pytest.raises(ValueError, match="multiple of the step"):
            lrr.simulate_functional(
                lrr.unit_functional(), params.dynamics(), horizons=[0.5], n_paths=10
            )
        with pytest.raises(ValueError, match="multiple of the step"):
            lrr.simulate_states(params.dynamics(), 1.5, 1.0, 10)

    def test_volatility_factor_never_negative(self, params):
        # 4 kappa iota2 / |sigma_2|^2 = 0.5 degrees of freedom: the origin is attainable
        wild = lrr.StateDynamics(
            mu_11=params.mu_11, mu_12=0.0, mu_22=-0.05, iota=(0.0, 1.0),
            sigma_1=params.sigma_1, sigma_2=(0.0, 0.0, 0.6),
        )
        x1, x2 = lrr.simulate_states(wild, 120.0, lrr.DT_DEFAULT, 20_000, seed=2)
        assert np.all(x2 >= 0.0) and np.min(x2) < 1e-3
        assert np.all(np.isfinite(x1))


class TestStationaryDensity:
    def test_cir_moments_under_p(self, params):
        d = lrr.stationary_density(
            params.dynamics(), n_paths=50_000, burn_in=600.0, seed=7, dt=MC_DT
        )
        mean, cov = lrr.stationary_moments(params.dynamics())
        mean_t, var_t = mean[1], cov[1, 1]
        assert var_t == pytest.approx(0.038**2 / 0.026, rel=1e-12)
        se_mean = np.sqrt(d.cov[1, 1] / 50_000)
        se_var = d.cov[1, 1] * np.sqrt(2.0 / 50_000)
        assert abs(d.mean[1] - mean_t) <= 3.0 * se_mean
        assert abs(d.cov[1, 1] - var_t) <= 3.0 * se_var
        assert d.hist.sum() == pytest.approx(1.0)
        assert d.n_nan == 0

    def test_adverse_states_correlate_under_recovered_measure(self, params, cm):
        d = lrr.stationary_density(
            cm, n_paths=50_000, burn_in=600.0, seed=8, dt=MC_DT
        )
        corr = d.cov[0, 1] / np.sqrt(d.cov[0, 0] * d.cov[1, 1])
        assert corr < -0.05
        assert d.mean[0] < 0.0
        assert d.mean[1] > 1.0


@pytest.fixture(scope="module")
def all_dynamics(params, sdf, cm):
    return {
        "p": params.dynamics(),
        "p_hat": cm,
        "risk_neutral": lrr.risk_neutral_dynamics(params, sdf),
    }


def gamma_law(dyn):
    """Shape and scale of the stationary Gamma law of X2."""
    s22 = float(dyn.sigma_2 @ dyn.sigma_2)
    return -2.0 * dyn.mu_22 * dyn.iota[1] / s22, s22 / (-2.0 * dyn.mu_22)


@pytest.fixture(scope="module")
def laws(all_dynamics):
    return {name: lrr.StationaryLaw(dyn) for name, dyn in all_dynamics.items()}


class TestStationaryLaw:
    def test_covariance_solves_lyapunov_equation(self, all_dynamics):
        for dyn in all_dynamics.values():
            mean, cov = lrr.stationary_moments(dyn)
            drift = np.array([[dyn.mu_11, dyn.mu_12], [0.0, dyn.mu_22]])
            vol = np.vstack([dyn.sigma_1, dyn.sigma_2])
            lhs = drift @ cov + cov @ drift.T
            np.testing.assert_allclose(lhs, -dyn.iota[1] * vol @ vol.T, rtol=1e-12, atol=1e-20)
            np.testing.assert_array_equal(mean, dyn.iota)
            shape, scale = gamma_law(dyn)
            assert cov[1, 1] == pytest.approx(shape * scale**2, rel=1e-14)

    def test_x2_marginal_is_gamma(self, laws):
        # integrating the 2-D expansion over all of X1 leaves the u1 = 0
        # slice, where the transform table must reproduce the Gamma law
        from scipy.special import gammainc

        for law in laws.values():
            shape, scale = gamma_law(law.dynamics)
            u2 = np.linspace(-60.0, 60.0, 13)
            np.testing.assert_allclose(
                law.log_cf(0.0, u2), -shape * np.log1p(-1j * scale * u2), rtol=1e-12, atol=1e-12
            )
            grid = law.density()
            for edges in (grid.x2_edges, np.linspace(0.0, law.upper[1], 301)):
                masses = law.bin_masses([-np.inf, np.inf], edges)[0]
                expected = np.diff(gammainc(shape, edges / scale))
                np.testing.assert_allclose(masses, expected, rtol=0, atol=1e-10)

    def test_density_grid_and_means(self, laws):
        for law in laws.values():
            grid = law.density()
            sd = np.sqrt(np.diag(grid.cov))
            assert grid.x1_edges[0] == pytest.approx(grid.mean[0] - 4 * sd[0], rel=1e-12)
            assert grid.x2_edges[-1] == pytest.approx(grid.mean[1] + 4 * sd[1], rel=1e-12)
            assert grid.hist.sum() == pytest.approx(1.0, abs=1e-14)
            assert grid.hist.min() >= 0.0
            assert 0.0 < grid.mass_outside_grid < 1e-2
            centres = [0.5 * (e[1:] + e[:-1]) for e in (grid.x1_edges, grid.x2_edges)]
            binned = [grid.hist.sum(axis=1) @ centres[0], grid.hist.sum(axis=0) @ centres[1]]
            # the grid cuts the skewed tails, which moves a binned mean by ~3e-3 sd
            assert np.all(np.abs(np.array(binned) - grid.mean) <= 1e-2 * sd)

    @pytest.mark.parametrize(
        "mu_11, mu_12, mu_22, sigma_1",
        [
            # the propagator stops long before X2 mixes, and rho = 0.98
            (-0.3, 0.01, -0.004, (0.0, 0.002, 0.001)),
            (-0.021, -5e-5, -0.0115, (0.0, 0.00034, -0.0001)),
        ],
    )
    def test_masses_carry_the_exact_moments(self, mu_11, mu_12, mu_22, sigma_1):
        # the first two moments of the bin masses over the whole expansion
        # box (Sheppard-corrected) against the Lyapunov solution
        dyn = lrr.StateDynamics(
            mu_11=mu_11, mu_12=mu_12, mu_22=mu_22, iota=(0.001, 1.0),
            sigma_1=sigma_1, sigma_2=(0.0, 0.0, 0.03),
        )
        law = lrr.StationaryLaw(dyn)
        edges = [np.linspace(lo, hi, 401) for lo, hi in zip(law.lower, law.upper)]
        mass = law.bin_masses(*edges)
        c1, c2 = (0.5 * (e[1:] + e[:-1]) for e in edges)
        h1, h2 = (e[1] - e[0] for e in edges)
        m1, m2 = mass.sum(axis=1) @ c1, mass.sum(axis=0) @ c2
        cov = np.array([
            [mass.sum(axis=1) @ (c1 - m1) ** 2 - h1 * h1 / 12, c1 @ mass @ c2 - m1 * m2],
            [0.0, mass.sum(axis=0) @ (c2 - m2) ** 2 - h2 * h2 / 12],
        ])
        cov[1, 0] = cov[0, 1]
        mean_exact, cov_exact = lrr.stationary_moments(dyn)
        sd = np.sqrt(np.diag(cov_exact))
        assert mass.sum() == pytest.approx(1.0, abs=1e-11)
        assert mass.min() >= -1e-13
        assert np.all(np.abs(np.array([m1, m2]) - mean_exact) <= 1e-7 * sd)
        assert np.max(np.abs(cov - cov_exact) / np.outer(sd, sd)) <= 1e-6

    def test_self_convergence(self, params, sdf, pf, all_dynamics, laws, monkeypatch):
        # halving the propagator step and doubling the cosine terms moves the
        # bin masses and the yield quartiles by at most 1e-10
        monkeypatch.setattr(lrr, "_COS_TERMS", 2 * lrr._COS_TERMS)
        monkeypatch.setattr(lrr, "_MAGNUS_STEPS", 2 * lrr._MAGNUS_STEPS)
        fine = {name: lrr.StationaryLaw(dyn) for name, dyn in all_dynamics.items()}
        for name, law in laws.items():
            base, refined = law.density(), fine[name].density()
            assert np.max(np.abs(refined.hist - base.hist)) <= 1e-10
            assert abs(refined.mass_outside_grid - base.mass_outside_grid) <= 1e-10
        horizons = np.arange(12.0, 1201.0, 12.0)
        probs = [0.25, 0.5, 0.75]
        for flow in ("consumption", "bond"):
            per_measure = lrr._yield_laws(params, sdf, pf, horizons, flow)
            for name, (_, _, loadings) in zip(("p", "p_hat"), per_measure):
                base = laws[name].quantiles(loadings, probs)
                refined = fine[name].quantiles(loadings, probs)
                moved = np.abs(refined - base) * (lrr.MONTHS_PER_YEAR / horizons[:, None])
                assert moved.max() <= 1e-10, (flow, name, moved.max())

    def test_quantiles_of_x2_are_gamma_quantiles(self, laws):
        from scipy.special import gammainc

        probs = np.array([0.01, 0.25, 0.5, 0.75, 0.99])
        for law in laws.values():
            shape, scale = gamma_law(law.dynamics)
            q = law.quantiles([[0.0, 1.0], [0.0, -2.0]], probs)
            np.testing.assert_allclose(gammainc(shape, q[0] / scale), probs, rtol=0, atol=1e-10)
            # a negative loading takes the conjugate branch of the transform
            np.testing.assert_allclose(q[1], -2.0 * q[0][::-1], rtol=1e-10)

    def test_reflected_loading_reflects_quantiles(self, laws):
        probs = np.array([0.25, 0.5, 0.75])
        c = np.array([[30.0, -0.2], [10.0, 0.01]])
        for law in laws.values():
            np.testing.assert_allclose(
                law.quantiles(-c, probs), -law.quantiles(c, probs[::-1]), rtol=1e-10
            )

    def test_zero_variance_loading_is_a_point(self, params, laws):
        q = laws["p"].quantiles([[0.0, 0.0], [1.0, 0.0]], [0.25, 0.5, 0.75])
        np.testing.assert_array_equal(q[0], 0.0)
        # under P, X1 is symmetric about iota1 (mu_12 = 0, sigma_1 . sigma_2 = 0)
        assert q[1, 1] == pytest.approx(params.iota[0], abs=1e-12)
        assert q[1, 0] == pytest.approx(-q[1, 2], rel=1e-9)

    def test_degenerate_factors_raise(self, params):
        base = dict(mu_11=params.mu_11, mu_12=0.0, mu_22=params.mu_22, iota=(0.0, 1.0))
        no_vol = lrr.StateDynamics(**base, sigma_1=params.sigma_1, sigma_2=(0.0, 0.0, 0.0))
        no_growth = lrr.StateDynamics(**base, sigma_1=(0.0, 0.0, 0.0), sigma_2=params.sigma_2)
        for dyn in (no_vol, no_growth):
            with pytest.raises(ModelValidityError, match="degenerate"):
                lrr.StationaryLaw(dyn)

    def test_yield_curves_reject_swapped_laws(self, params, sdf, pf, laws):
        with pytest.raises(ValueError, match="not those"):
            lrr.yield_curves(params, sdf, pf, (laws["p_hat"], laws["p"]), [12, 600], "bond")


@pytest.fixture(scope="module")
def curves(params, sdf, pf, laws):
    horizons = [12, 120, 360, 1200]
    return {
        flow: lrr.yield_curves(params, sdf, pf, (laws["p"], laws["p_hat"]), horizons, flow)
        for flow in ("consumption", "bond")
    }


class TestYieldCurves:
    def test_consumption_yields_downward_biased(self, curves):
        c = curves["consumption"]
        assert np.all(c.quartiles_p_hat[1] <= c.quartiles_p[1])

    def test_bond_yields_approach_eigenvalue(self, curves, pf):
        b = curves["bond"]
        target = -pf.eta_hat * 12.0
        k = list(b.horizons).index(1200)
        assert b.quartiles_p_hat[1, k] == pytest.approx(target, abs=2e-3)
        assert b.quartiles_p[1, k] == pytest.approx(target, abs=5e-3)

    def test_degenerate_sdf_curves_coincide(self, params):
        # trivial change of measure: the yield functions under the two
        # measures agree pointwise in (horizon, state)
        flat = lrr.AffineFunctional(b0=-0.004, b1=0.0, b2=0.0, alpha=np.zeros(3))
        pf0 = lrr.solve_pf(params, flat)
        cm0 = lrr.changed_measure(params, pf0)
        np.testing.assert_allclose(cm0.iota, params.iota, atol=1e-15)
        g = lrr.consumption_functional(params)
        g_hat = lrr.change_functional_measure(g, params, pf0.alpha_h, cm0)
        num_p = lrr.solve_affine_ode(g, params.dynamics(), 240.0)
        num_hat = lrr.solve_affine_ode(g_hat, cm0, 240.0)
        price = lrr.solve_affine_ode(
            lrr.add_functionals(flat, g), params.dynamics(), 240.0
        )
        for t in (12.0, 120.0, 240.0):
            for x in (np.array([0.0, 1.0]), np.array([0.01, 1.4])):
                y_p = (np.log(num_p.expectation(t, x)) - np.log(price.expectation(t, x))) / t
                y_hat = (np.log(num_hat.expectation(t, x)) - np.log(price.expectation(t, x))) / t
                assert y_hat == pytest.approx(y_p, abs=1e-12)


class TestParamsInterface:
    def test_round_trip(self, params):
        rebuilt = lrr.params_from_dict(lrr.params_to_dict(params))
        assert rebuilt == params

    def test_packaged_defaults_load(self):
        assert lrr.load_default_params() == lrr.LrrParams()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            lrr.params_from_dict({"mu_99": 1.0})

    def test_override_validation(self, params):
        with pytest.raises(ValueError, match="unknown parameter overrides"):
            lrr.apply_overrides(params, {"gamma_typo": 3.0})

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"iota": [0.0]}, "iota"),
            ({"sigma_1": [0.0, "x", 0.0]}, "sigma_1"),
            ({"gamma": None}, "gamma"),
            ({"delta": [0.002]}, "delta"),
        ],
    )
    def test_malformed_field_rejected(self, payload, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            lrr.params_from_dict(payload)

    def test_stationarity_validated(self):
        with pytest.raises(ValueError, match="negative"):
            lrr.LrrParams(mu_11=0.1)
        with pytest.raises(ModelValidityError, match="mean-revert"):
            lrr.StateDynamics(
                mu_11=0.1, mu_12=0.0, mu_22=-0.1,
                iota=(0.0, 1.0), sigma_1=(0, 1e-4, 0), sigma_2=(0, 0, 0.01),
            )
