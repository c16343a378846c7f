"""Tests for the square-root diffusion eigenfunction machinery."""

import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


# Largest step of the reference's trapezoid grid.  Its bias is O(h^2); over
# the ranges below it is largest near kappa 0.8, mu_bar 1, sigma_bar 0.2,
# alpha_bar -1, x0 0, t 0.25: 2.8 se of 10,000 paths at h = 1/4, 0.043 se at
# this step.  ``test_matches_per_step_loop`` asserts the 0.1 se bound on
# every example from the exact ``reference_moments``.
REF_STEP = 1 / 32


def reference_moments(model, measure, t, n_fine, x0):
    """Exact E[V] and Var[V] / E[V]^2 of the reference's per-path value V
    (S_t, or the candidate's martingale) on its grid of n_fine steps.  log V
    is a constant plus sum_i w_i X_{ih} (c_I times the trapezoid weights, plus
    the loading of X_t), and L(w) = log E[exp(sum_i w_i X_{ih})] follows
    backwards from the transform of one exact step,
    E[exp(u X_h) | X_0 = x] = (1 - 2cu)^{-d/2} exp(u e^{-kappa h} x / (1 - 2cu)),
    which diverges once 1 - 2cu <= 0 (the ratio is then inf).  The ratio is
    expm1(L(2w) - 2 L(w)), free of the cancellation in E[V^2] - E[V]^2."""
    if n_fine == 0:
        return 1.0, 0.0
    k, s, alpha = model.kappa, model.sigma_bar, model.alpha_bar
    ups, eta = (0.0, 0.0) if measure == "physical" else (measure.upsilon, measure.eta)
    h = t / n_fine
    c = 0.25 * s**2 * h * (-math.expm1(-k * h) / (k * h))
    half_d = 2.0 * k * model.mu_bar / s**2
    const = (model.beta_bar - eta) * t - alpha / s * (x0 + k * model.mu_bar * t) - ups * x0
    w = np.full(n_fine + 1, (k * alpha / s - 0.5 * alpha**2) * h)
    w[[0, -1]] *= 0.5
    w[-1] += alpha / s + ups

    def log_mgf(w):
        u, log_a = w[-1], 0.0
        for w_i in w[-2::-1]:
            if 2.0 * c * u >= 1.0:
                return math.inf
            log_a -= half_d * math.log1p(-2.0 * c * u)
            u = w_i + u * math.exp(-k * h) / (1.0 - 2.0 * c * u)
        return log_a + u * x0

    log_m1 = log_mgf(w)
    with np.errstate(over="ignore"):
        return math.exp(const + log_m1), float(np.expm1(log_mgf(2.0 * w) - 2.0 * log_m1))


def reference_simulate(model, measure, horizon, dt, n_paths, seed, x0):
    """``sq.simulate`` by brute force: t = round(horizon / dt) dt is cut into
    steps of at most REF_STEP, each an exact noncentral chi-square transition
    whose trapezoid is added to the integral of X, and S_t follows from the
    endpoints and that integral.  These max(n_paths, 10,000) physical paths
    are drawn from ``default_rng((seed, 2))``, independent of ``simulate``'s.
    A candidate's X is ``simulate``'s own draw: one transition over t from
    ``default_rng(seed)``.  Returns X (the candidate's, else the physical
    one), per physical path S_t or the candidate's martingale, and the
    ``reference_moments`` of the latter."""
    t = int(round(horizon / dt)) * dt
    a, s2 = model.kappa * model.mu_bar, model.sigma_bar**2

    def paths(kappa, h, steps, size, rng):
        x = np.full(size, x0)
        integral = np.zeros(size)
        for _ in range(steps):
            z = -kappa * h
            c = 0.25 * s2 * h * (float(np.expm1(z) / z) if z != 0.0 else 1.0)
            x_new = c * rng.noncentral_chisquare(4.0 * a / s2, x * (np.exp(-kappa * h) / c))
            integral += 0.5 * h * (x + x_new)
            x = x_new
        return x, integral

    n_fine = math.ceil(t / REF_STEP)
    x, integral = paths(
        model.kappa, t / max(n_fine, 1), n_fine, max(n_paths, 10_000),
        np.random.default_rng((seed, 2)),
    )
    log_s = (
        model.beta_bar * t
        - 0.5 * model.alpha_bar**2 * integral
        + model.alpha_bar / model.sigma_bar * (x - x0 - a * t + model.kappa * integral)
    )
    if measure == "physical":
        checked = np.exp(log_s)
    else:
        checked = np.exp(-measure.eta * t + log_s + measure.upsilon * (x - x0))
        x, _ = paths(measure.kappa_new, t, min(n_fine, 1), n_paths, np.random.default_rng(seed))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(checked))
    return x, checked, reference_moments(model, measure, t, n_fine, x0)


class TestSimulateAgainstReference:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(0.05, 0.8),
        mu=st.floats(0.1, 1.0),
        sigma=st.floats(0.2, 0.5),
        alpha=st.floats(-1.0, 1.0),
        x0=st.floats(0.0, 2.0),
        horizon=st.sampled_from([0.001, 0.25, 1.0, 2.0]),  # 0.001: rounds to t = 0
        dt=st.sampled_from([1 / 50, 1 / 12, 0.25]),
        n_paths=st.one_of(st.integers(2, 200), st.integers(7_500, 10_000)),
        seed=st.integers(0, 2**32 - 1),
        which=st.sampled_from(["physical", 0, 1]),
    )
    def test_matches_per_step_loop(
        self, kappa, mu, sigma, alpha, x0, horizon, dt, n_paths, seed, which
    ):
        # a candidate's X bit for bit; S_t, the martingale and the physical X
        # within 5 combined standard errors of the independent grid ensemble.
        # The se of S_t and the martingale take the reference's exact sd, which
        # (up to the trapezoid error) bounds that of the conditional mean that
        # ``simulate`` averages; a sample sd misses the heavy tails of
        # e^{upsilon X_t}, and a 2-path ensemble has none worth the name.
        if n_paths > 200:
            dt = 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # origin attainable
            m = make_model(kappa=kappa, alpha=alpha, sigma=sigma, mu=mu)
        measure = which if which == "physical" else sq.eigen_candidates(m)[which]
        x, checked, (m1, cv2) = reference_simulate(m, measure, horizon, dt, n_paths, seed, x0)
        assume(math.isfinite(cv2))  # no standard error without a variance
        sd = m1 * math.sqrt(max(cv2, 0.0))
        res = sq.simulate(m, measure, horizon, dt, n_paths, seed, x0=x0)
        scale = math.sqrt(1.0 / n_paths + 1.0 / len(checked))
        # rel below: round-off, where the sd is 0 or nearly (t = 0, or
        # alpha_bar near 0 for S_t)
        if which == "physical":
            assert res.n_nan == 0
            got, exact = res.discounted_bond_mean, math.exp(m.beta_bar * int(round(horizon / dt)) * dt)
            # the same exact law of X_t on both sides
            assert res.x_mean == pytest.approx(x.mean(), abs=5.0 * x.std() * scale, rel=1e-12)
        else:
            assert (res.x_mean, res.x_var) == (float(np.mean(x)), float(np.var(x, ddof=1)))
            got, exact = res.martingale_mean, 1.0
        # the grid is fine enough: the reference's bias is below 0.1 se
        assert m1 == pytest.approx(exact, abs=0.1 * sd / math.sqrt(n_paths), rel=1e-12)
        assert got == pytest.approx(checked.mean(), abs=5.0 * sd * scale, rel=1e-12)


class TestBlocksAndThreads:
    def test_no_thread_outlives_simulate(self):
        m = make_model()
        before = threading.active_count()
        sq.simulate(m, "physical", 1.0, 1 / 50, 20_000, seed=2)
        sq.simulate(m, sq.select_ergodic(sq.eigen_candidates(m)), 1.0, 1 / 50, 20_000, seed=2)
        assert threading.active_count() == before

    def test_negative_horizon_rejected(self):
        # these inputs returned a bond mean 1.467 with se 0, and a martingale
        # mean 1.1175 with se 2e-17
        m = make_model()
        sel = sq.select_ergodic(sq.eigen_candidates(m))
        for measure in ("physical", sel):
            with pytest.raises(ValueError, match="horizon"):
                sq.simulate(m, measure, horizon=-1.0, dt=0.25, n_paths=100)

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_fewer_than_two_paths_rejected(self, n_paths):
        # these returned nan variances (and nan means at 0 paths) with RuntimeWarnings
        with pytest.raises(ValueError, match="n_paths"):
            sq.simulate(make_model(), "physical", horizon=1.0, dt=0.25, n_paths=n_paths)

    def test_zero_horizon_is_the_start(self):
        # a horizon shorter than half a step rounds to t = 0 as well
        m = make_model()
        for horizon in (0.0, 0.1):
            res = sq.simulate(m, "physical", horizon=horizon, dt=0.25, n_paths=100, x0=0.7)
            assert res.x_mean == pytest.approx(0.7, rel=1e-15)
            assert res.x_var < 1e-30
            assert (res.discounted_bond_mean, res.discounted_bond_se) == (1.0, 0.0)
            for cand in sq.eigen_candidates(m):
                res = sq.simulate(m, cand, horizon=horizon, dt=0.25, n_paths=100, x0=0.7)
                assert (res.martingale_mean, res.martingale_se) == (1.0, 0.0)


class TestExactValues:
    """E[S_t] = exp(beta_bar t) and E[exp(-eta t) S_t e(X_t)] / e(x0) = 1 hold
    exactly; the grid-free estimator must meet them where its closed form
    has special cases."""

    @pytest.mark.parametrize(
        "params, x0",
        [
            ({}, 0.0),  # lambda = 0: every Poisson count is 0
            (dict(kappa=0.1, mu=0.1, sigma=0.5), 0.3),  # d = 0.16 < 2: nu < 0, origin attainable
            (dict(kappa=0.3, alpha=1.0, sigma=0.3), 0.5),  # kappa = sigma_bar alpha_bar: gamma = 0
        ],
        ids=["x0-zero", "d-below-2", "knife-edge"],
    )
    @pytest.mark.parametrize("horizon", [0.5, 2.0])
    def test_bond_and_martingales(self, params, x0, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # origin attainable
            m = make_model(**params)
        res = sq.simulate(m, "physical", horizon, 0.25, 40_000, seed=7, x0=x0)
        assert res.n_nan == 0
        target = math.exp(m.beta_bar * horizon)
        assert abs(res.discounted_bond_mean - target) <= 5.0 * res.discounted_bond_se
        for cand in sq.eigen_candidates(m):
            res = sq.simulate(m, cand, horizon, 0.25, 40_000, seed=8, x0=x0)
            assert res.n_nan == 0
            assert abs(res.martingale_mean - 1.0) <= 5.0 * res.martingale_se

    def test_long_horizon_stays_finite(self):
        m = make_model()
        for measure in ("physical", *sq.eigen_candidates(m)):
            res = sq.simulate(m, measure, 40.0, 1 / 100, 20_000, seed=9)
            assert res.n_nan == 0
            assert np.all(np.isfinite([v for v in vars(res).values() if v is not None]))
        # kappa t / 2 = 800: sinh overflows there, the phi1 form of h and k does not
        res = sq.simulate(make_model(kappa=0.8), "physical", 2_000.0, 1 / 100, 20_000, seed=9)
        assert res.n_nan == 0
        assert np.isfinite(res.discounted_bond_mean) and res.discounted_bond_mean > 0.0

    def test_variance_flag_follows_closed_form(self):
        m = make_model()
        # horizon 40: 1 - 4 c b = -0.98, E[S~^2] is infinite, and the bond
        # mean lands thousands of its standard errors below e^-2
        res = sq.simulate(m, "physical", 40.0, 1 / 100, 2_000, seed=9)
        assert not res.variance_finite
        assert abs(res.discounted_bond_mean - math.exp(-2.0)) > 100 * res.discounted_bond_se
        # the benchmark's one-period runs: 1 - 4 c b = 0.72 for S~
        assert sq.simulate(m, "physical", 1.0, 1 / 250, 2_000, seed=9).variance_finite
        for cand in sq.eigen_candidates(m):
            assert sq.simulate(m, cand, 1.0, 1 / 250, 2_000, seed=9).variance_finite
        assert sq.simulate(m, "physical", 0.0, 1 / 250, 2_000, seed=9).variance_finite
        # the rejected candidate of a faster-reverting model: its martingale
        # loading upsilon makes the variance infinite at horizon 40
        fast = make_model(kappa=0.8)
        rejected = [c for c in sq.eigen_candidates(fast) if not c.ergodic]
        assert not sq.simulate(fast, rejected[0], 40.0, 1 / 100, 2_000, seed=9).variance_finite


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
        # the flag that voids a standard error is the last column, as 1/0
        flagged = dataclasses.replace(res, variance_finite=False)
        sq.results_to_csv([("physical", res), ("flagged", flagged)], out)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert [row[-1] for row in rows] == ["variance_finite", "1", "0"]
