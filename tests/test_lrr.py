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


@pytest.fixture(scope="module")
def params():
    return lrr.default_params()


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
        np.testing.assert_allclose(cm0.iota_hat, params.iota, atol=1e-15)

    def test_alpha_h_assembly(self, params, sdf, pf):
        expected = (
            sdf.alpha
            + np.asarray(params.sigma_1) * pf.e1
            + np.asarray(params.sigma_2) * pf.e2
        )
        np.testing.assert_allclose(pf.alpha_h, expected, rtol=1e-14)


class TestChangedMeasure:
    def test_higher_volatility_mean(self, params, cm):
        assert cm.iota_hat[1] > params.iota[1]

    def test_lower_growth_mean(self, cm):
        assert cm.iota_hat[0] < 0.0

    def test_formulas(self, params, pf, cm):
        s1 = np.asarray(params.sigma_1)
        s2 = np.asarray(params.sigma_2)
        assert cm.mu_11 == params.mu_11
        assert cm.mu_12 == pytest.approx(params.mu_12 + float(s1 @ pf.alpha_h))
        assert cm.mu_22 == pytest.approx(params.mu_22 + float(s2 @ pf.alpha_h))
        assert cm.iota_hat[1] == pytest.approx(params.mu_22 / cm.mu_22 * params.iota[1])

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
            cm.dynamics(params), horizon=600.0, dt=MC_DT, n_paths=50_000, seed=3
        )
        se = np.std(x2, ddof=1) / np.sqrt(len(x2))
        assert abs(np.mean(x2) - cm.iota_hat[1]) <= 3.0 * se


class TestAffineExpectation:
    def test_horizon_zero_is_one(self, params, sdf):
        assert lrr.affine_expectation(sdf, params.dynamics(), 0.0, params.iota) == 1.0

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


class TestMeasureTransforms:
    def test_price_invariance_under_recovered_measure(self, params, value, sdf, pf, cm):
        # E[S G | x] computed under P equals E[S_hat G_hat | x] computed
        # under P_hat for the consumption cash flow
        g = lrr.consumption_functional(params)
        sg = lrr.add_functionals(sdf, g)
        direct = lrr.solve_affine_ode(sg, params.dynamics(), 240.0)

        g_hat = lrr.change_functional_measure(g, params, pf.alpha_h, cm)
        s_hat = lrr.recovered_sdf_functional(params, pf, cm)
        via_hat = lrr.solve_affine_ode(
            lrr.add_functionals(s_hat, g_hat), cm.dynamics(params), 240.0
        )
        x = np.array([0.005, 0.9])
        for t in (1.0, 24.0, 240.0):
            assert via_hat.expectation(t, x) == pytest.approx(
                direct.expectation(t, x), rel=1e-8
            )

    def test_recovered_sdf_decomposition_identity_pathwise(self, params, sdf, pf):
        # log S - [eta t - e . (X_t - X_0) + log H] vanishes along paths up to
        # the shared discretization, here checked through one simulated ensemble:
        # accumulate both sides with the same shocks via two functionals
        dyn = params.dynamics()
        h_hat = lrr.AffineFunctional(
            b0=-0.5 * params.iota[1] * float(pf.alpha_h @ pf.alpha_h),
            b1=0.0,
            b2=-0.5 * float(pf.alpha_h @ pf.alpha_h),
            alpha=pf.alpha_h,
        )
        x1, x2, logs, _ = lrr._simulate_core(
            dyn, [sdf, h_hat], 12.0, 1 / 12, 1000, 9, None
        )
        log_s, log_h = logs
        e_term = pf.e1 * (x1 - params.iota[0]) + pf.e2 * (x2 - params.iota[1])
        rhs = pf.eta_hat * 12.0 - e_term + log_h
        np.testing.assert_allclose(log_s, rhs, atol=1e-10)

    def test_risk_neutral_density_close_to_recovered(self, params, sdf, pf, cm):
        # diagnostic: the two risk-adjusted measures nearly coincide here
        rn = lrr.risk_neutral_dynamics(params, sdf)
        assert rn.mu_22 == pytest.approx(cm.mu_22, rel=0.05)
        assert rn.iota_hat[1] == pytest.approx(cm.iota_hat[1], rel=0.05)


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
        mean_t, var_t = lrr.cir_stationary_moments(params.dynamics())
        assert var_t == pytest.approx(0.038**2 / 0.026, rel=1e-12)
        se_mean = np.sqrt(d.cov[1, 1] / 50_000)
        se_var = d.cov[1, 1] * np.sqrt(2.0 / 50_000)
        assert abs(d.mean[1] - mean_t) <= 3.0 * se_mean
        assert abs(d.cov[1, 1] - var_t) <= 3.0 * se_var
        assert d.hist.sum() == pytest.approx(1.0)
        assert d.n_nan == 0

    def test_adverse_states_correlate_under_recovered_measure(self, params, cm):
        d = lrr.stationary_density(
            cm.dynamics(params), n_paths=50_000, burn_in=600.0, seed=8, dt=MC_DT
        )
        corr = d.cov[0, 1] / np.sqrt(d.cov[0, 0] * d.cov[1, 1])
        assert corr < -0.05
        assert d.mean[0] < 0.0
        assert d.mean[1] > 1.0


@pytest.fixture(scope="module")
def curves(params):
    horizons = [12, 120, 360, 1200]
    return {
        flow: lrr.yield_curves(
            params, horizons, cash_flow=flow, n_paths=4000, dt=MC_DT, seed=11
        )
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
        np.testing.assert_allclose(cm0.iota_hat, params.iota, atol=1e-15)
        g = lrr.consumption_functional(params)
        g_hat = lrr.change_functional_measure(g, params, pf0.alpha_h, cm0)
        num_p = lrr.solve_affine_ode(g, params.dynamics(), 240.0)
        num_hat = lrr.solve_affine_ode(g_hat, cm0.dynamics(params), 240.0)
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
        assert lrr.load_default_params() == lrr.default_params()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            lrr.params_from_dict({"mu_99": 1.0})

    def test_override_validation(self, params):
        with pytest.raises(ValueError, match="unknown parameter overrides"):
            lrr.apply_overrides(params, {"gamma_typo": 3.0})

    def test_stationarity_validated(self):
        with pytest.raises(ValueError, match="negative"):
            lrr.LrrParams(mu_11=0.1)
        with pytest.raises(ModelValidityError, match="mean-revert"):
            lrr.StateDynamics(
                mu_11=0.1, mu_12=0.0, mu_22=-0.1,
                iota=(0.0, 1.0), sigma_1=(0, 1e-4, 0), sigma_2=(0, 0, 0.01),
            )
