"""Tests for the square-root diffusion eigenfunction machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovery_lab import sqroot as sq
from recovery_lab.exceptions import DegenerateSelectionError


def make_model(kappa=0.2, alpha=1.0, sigma=0.3, mu=0.5, beta=-0.05):
    return sq.SquareRootModel(
        kappa=kappa, mu_bar=mu, sigma_bar=sigma, alpha_bar=alpha, beta_bar=beta
    )


class TestCandidates:
    def test_high_risk_price_case(self):
        cands = sq.eigen_candidates(make_model(kappa=0.2, alpha=1.0, sigma=0.3))
        ups = sorted(c.upsilon for c in cands)
        np.testing.assert_allclose(ups, [-2.2222222222222223, 0.0], atol=1e-14)
        by_ups = {c.upsilon: c for c in cands}
        assert by_ups[0.0].kappa_new == pytest.approx(-0.1, abs=1e-14)
        other = by_ups[ups[0]]
        assert other.kappa_new == pytest.approx(0.1, abs=1e-14)

    def test_zero_risk_price_reduces_to_physical(self):
        m = make_model(alpha=0.0)
        cands = sq.eigen_candidates(m)
        by_ups = {c.upsilon: c for c in cands}
        assert 0.0 in by_ups
        assert by_ups[0.0].kappa_new == pytest.approx(m.kappa)
        assert max(c.upsilon for c in cands) == pytest.approx(2 * m.kappa / m.sigma_bar**2)

    def test_moderate_risk_price_case(self):
        cands = sq.eigen_candidates(make_model(alpha=0.1))
        sel = sq.select_ergodic(cands)
        assert sel.upsilon == 0.0
        assert sel.kappa_new == pytest.approx(0.17, abs=1e-14)

    def test_risk_neutral_eta_is_beta(self):
        m = make_model()
        cands = sq.eigen_candidates(m)
        rn = next(c for c in cands if c.upsilon == 0.0)
        assert rn.eta == pytest.approx(m.beta_bar)

    def test_kappa_identity(self):
        # the two candidates flip the sign of the induced mean reversion
        for alpha in (0.0, 0.1, 0.5, 1.0, 2.0):
            cands = sq.eigen_candidates(make_model(alpha=alpha))
            assert cands[0].kappa_new == pytest.approx(-cands[1].kappa_new, abs=1e-14)

    def test_drift_identity_term_by_term(self):
        m = make_model(kappa=0.37, alpha=0.9, sigma=0.41, mu=0.8, beta=-0.02)
        for cand in sq.eigen_candidates(m):
            const, x_coef = sq.drift_identity_residual(m, cand)
            assert abs(const) < 1e-12
            assert abs(x_coef) < 1e-12

    def test_change_of_measure_drift_restriction(self):
        # the induced martingale has drift -|loading|^2 / 2 at every state
        m = make_model()
        for cand in sq.eigen_candidates(m):
            load = lambda x: np.sqrt(x) * (m.alpha_bar + cand.upsilon * m.sigma_bar)
            for x in (0.05, 0.5, 1.7):
                drift = (
                    m.beta_bar
                    - 0.5 * m.alpha_bar**2 * x
                    - cand.eta
                    + cand.upsilon * (-m.kappa * (x - m.mu_bar))
                )
                assert drift == pytest.approx(-0.5 * load(x) ** 2, abs=1e-12)


class TestSelection:
    def test_negative_kappa_n_selects_nonzero_root(self):
        sel = sq.select_ergodic(sq.eigen_candidates(make_model(alpha=1.0)))
        assert sel.upsilon == pytest.approx(-2.2222222222222223)
        assert sel.kappa_new > 0

    def test_positive_kappa_n_selects_risk_neutral(self):
        sel = sq.select_ergodic(sq.eigen_candidates(make_model(alpha=0.1)))
        assert sel.upsilon == 0.0

    def test_knife_edge_is_degenerate(self):
        # kappa = alpha sigma makes kappa_n exactly zero
        m = make_model(kappa=0.3, alpha=1.0, sigma=0.3)
        with pytest.raises(DegenerateSelectionError):
            sq.select_ergodic(sq.eigen_candidates(m))


class TestSimulation:
    def test_martingale_check_selected_candidate(self):
        m = make_model()
        sel = sq.select_ergodic(sq.eigen_candidates(m))
        res = sq.simulate(m, sel, horizon=1.0, dt=1 / 250, n_paths=100_000, seed=3)
        assert res.n_nan == 0
        assert abs(res.martingale_mean - 1.0) <= 3.0 * res.martingale_se

    def test_martingale_check_rejected_candidate(self):
        # the non-ergodic candidate still prices as a martingale
        m = make_model()
        rejected = next(c for c in sq.eigen_candidates(m) if c.kappa_new < 0)
        res = sq.simulate(m, rejected, horizon=1.0, dt=1 / 250, n_paths=100_000, seed=5)
        assert abs(res.martingale_mean - 1.0) <= 3.0 * res.martingale_se

    def test_discounted_bond_price_constant_short_rate(self):
        m = make_model()
        res = sq.simulate(m, "physical", horizon=1.0, dt=1 / 250, n_paths=100_000, seed=4)
        target = np.exp(m.beta_bar * 1.0)
        assert abs(res.discounted_bond_mean - target) <= 3.0 * res.discounted_bond_se

    def test_tiny_volatility_stays_at_mean(self):
        m = sq.SquareRootModel(
            kappa=0.5, mu_bar=0.8, sigma_bar=1e-5, alpha_bar=0.1, beta_bar=-0.01
        )
        res = sq.simulate(m, "physical", horizon=2.0, dt=1 / 250, n_paths=2_000, seed=1, x0=0.8)
        assert res.x_mean == pytest.approx(0.8, abs=1e-4)
        assert res.x_var < 1e-8

    def test_candidate_measure_mean_reversion_target(self):
        # under the selected measure the process reverts to kappa mu / kappa_new
        m = make_model()
        sel = sq.select_ergodic(sq.eigen_candidates(m))
        res = sq.simulate(m, sel, horizon=40.0, dt=1 / 100, n_paths=20_000, seed=9)
        target = m.kappa * m.mu_bar / sel.kappa_new
        se = np.sqrt(res.x_var / 20_000)
        assert abs(res.x_mean - target) <= 5.0 * se

    def test_invalid_measure_rejected(self):
        with pytest.raises(ValueError, match="physical"):
            sq.simulate(make_model(), "risk-neutral", 1.0, 1 / 250, 100, 0)

    def test_feller_warning(self):
        with pytest.warns(RuntimeWarning, match="origin"):
            sq.SquareRootModel(
                kappa=0.1, mu_bar=0.1, sigma_bar=0.5, alpha_bar=0.0, beta_bar=-0.01
            )


class TestSquareRootStep:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        x=st.floats(0.0, 3.0),
        a=st.floats(0.05, 1.0),
        kappa=st.floats(-1.0, 1.0),
        s2=st.floats(0.01, 0.4),
        h=st.sampled_from([1 / 250, 1 / 12, 1.0]),
    )
    def test_one_step_matches_cir_moments(self, x, a, kappa, s2, h):
        # E and Var of X_h given X_0 = x for dX = (a - kappa X) dt + sqrt(s2 X) dW
        n = 40_000
        x_new, integral, y = sq.square_root_step(
            np.full(n, x), a, kappa, s2, h, np.random.default_rng(0)
        )
        assert np.all(x_new >= 0.0)
        g = h if kappa == 0.0 else -math.expm1(-kappa * h) / kappa  # (1 - e^{-kappa h}) / kappa
        mean = x * math.exp(-kappa * h) + a * g
        var = s2 * (x * math.exp(-kappa * h) * g + 0.5 * a * g * g)
        dev = x_new - mean
        assert abs(dev.mean()) <= 5.0 * math.sqrt(var / n)
        sq_dev = dev * dev
        assert abs(sq_dev.mean() - var) <= 5.0 * sq_dev.std() / math.sqrt(n)
        np.testing.assert_array_equal(integral, 0.5 * h * (x + x_new))
        np.testing.assert_array_equal(y, x_new - x - a * h + kappa * integral)

    def test_origin_attainable_stays_nonnegative(self):
        # 4 a / s2 = 0.16 degrees of freedom: paths touch zero, never cross it
        x = np.full(10_000, 0.01)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, _, _ = sq.square_root_step(x, 0.01, 0.1, 0.25, 1 / 12, rng)
            assert np.all(x >= 0.0)
        assert np.min(x) < 1e-6

    def test_same_seed_reproduces(self):
        m = make_model()
        sel = sq.select_ergodic(sq.eigen_candidates(m))
        runs = [sq.simulate(m, sel, 1.0, 1 / 50, 2_000, seed=6) for _ in range(2)]
        assert runs[0] == runs[1]


class TestInterfaces:
    def test_model_json_round_trip(self):
        m = make_model()
        assert sq.model_from_dict(sq.model_to_dict(m)) == m

    def test_model_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            sq.model_from_dict({"kappa": 0.2})

    def test_stats_csv(self, tmp_path):
        m = make_model()
        res = sq.simulate(m, "physical", horizon=0.1, dt=1 / 50, n_paths=500, seed=0)
        out = tmp_path / "stats.csv"
        sq.results_to_csv([("physical", res)], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("measure,x_mean")
        cells = lines[1].split(",")
        assert cells[0] == "physical"
        assert float(cells[1]) == pytest.approx(res.x_mean)
        assert cells[4] == ""  # no martingale stats for physical runs
