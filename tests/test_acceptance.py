"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to stream
them).  Criterion 8 is a gate: it validates the exponent-ODE solver against
a million-path Monte Carlo oracle, and criteria 6 and 7 consume the same
fixture so they cannot run if the gate fails.
"""

import time

import numpy as np
import pytest

from recovery_lab import bounds as bd
from recovery_lab import lrr
from recovery_lab import markov as mk
from recovery_lab import preferences as pref
from recovery_lab import sqroot as sq

from conftest import random_economy, random_power_economy, random_transition

MC_DT = 1.0  # step of the acceptance simulations, one month; the criterion-8
# gate certifies this step against the exact exponent ODEs


def report(num: int, ok: bool, message: str):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {tag}  {message}", flush=True)


# ---------------------------------------------------------------------------
# shared long-run-risk pipeline objects
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lrr_bundle():
    params = lrr.LrrParams()
    value = lrr.solve_value_function(params)
    sdf = lrr.sdf_coefficients(params, value)
    pf = lrr.solve_pf(params, sdf)
    cm = lrr.changed_measure(params, pf)
    return params, value, sdf, pf, cm


@pytest.fixture(scope="module")
def affine_gate(lrr_bundle):
    """Criterion 8 computation: ODE vs million-path Monte Carlo."""
    params, _, sdf, _, _ = lrr_bundle
    dyn = params.dynamics()
    horizons = [1.0, 12.0, 60.0]
    ode = lrr.solve_affine_ode(sdf, dyn, max(horizons))
    start = time.perf_counter()
    moments = lrr.simulate_functional(
        sdf, dyn, horizons=horizons, dt=MC_DT, n_paths=1_000_000, seed=77
    )
    elapsed = time.perf_counter() - start
    rows = []
    for m in moments:
        exact = ode.expectation(m.horizon, params.iota)
        rows.append((m.horizon, m.mean, m.se, exact, (m.mean - exact) / m.se))
    return rows, elapsed


def test_c01_ross_case_recovery():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        economy, _ = random_power_economy(rng)
        rec = mk.recover(economy)
        worst = max(
            worst,
            float(np.max(np.abs(rec.p_hat.entries - economy.transition.entries))),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"ross-case recovery over 100 economies: max |P_hat - P| = "
                  f"{worst:.2e} (<= 1e-10), runtime {elapsed:.2f} s (< 5 s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c02_recursive_utility_recovery(two_state_transition):
    p = two_state_transition
    spec10 = pref.RecursiveUtilitySpec(delta=0.02, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0]))
    value = pref.solve_continuation_value(spec10, p)
    eco = mk.build_economy(p, pref.recursive_sdf(spec10, p, value))
    rec = mk.recover(eco)
    closed = p.entries * value.v_star[None, :] / (p.entries @ value.v_star)[:, None]
    err10 = float(np.max(np.abs(rec.p_hat.entries - closed)))

    spec1 = pref.RecursiveUtilitySpec(delta=0.02, gamma=1.0, g_c=0.0, c=np.array([1.0, 2.0]))
    value1 = pref.solve_continuation_value(spec1, p)
    eco1 = mk.build_economy(p, pref.recursive_sdf(spec1, p, value1))
    err1 = float(np.max(np.abs(mk.recover(eco1).p_hat.entries - p.entries)))

    ok = err10 <= 1e-10 and err1 <= 1e-10
    report(2, ok, f"recursive recovery: gamma=10 closed-form err {err10:.2e}, "
                  f"gamma=1 identity err {err1:.2e} (both <= 1e-10)")
    assert err10 <= 1e-10
    assert err1 <= 1e-10


def test_c03_forward_measure_limit():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        eco = random_economy(rng, n=5)
        rec = mk.recover(eco)
        lim = mk.forward_one_period_limit(eco, 200)
        worst = max(worst, float(np.max(np.abs(lim - rec.p_hat.entries))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(3, ok, f"forward-measure limit at tau=200 on 5-state economies: "
                  f"max distance {worst:.2e} (<= 1e-8), runtime {elapsed:.3f} s (< 1 s)")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_c04_horizon_invariance():
    rng = np.random.default_rng(4321)
    worst_pf = 0.0
    min_violation = np.inf
    tested = 0
    for _ in range(20):
        eco = random_economy(rng, n=4)
        rec1 = mk.recover(eco.prices)
        q = eco.prices.entries
        for t in (2, 5, 10):
            rec_t = mk.recover(mk.PricingMatrix(np.linalg.matrix_power(q, t)))
            worst_pf = max(
                worst_pf,
                float(np.max(np.abs(
                    rec_t.p_hat.entries
                    - np.linalg.matrix_power(rec1.p_hat.entries, t)
                ))),
            )
        if np.ptp(q.sum(axis=1)) > 1e-8:  # state-dependent bond prices
            tested += 1
            p1 = mk.forward_measures(eco.prices, [1])[1].entries
            for t in (2, 5, 10):
                pt = mk.forward_measures(eco.prices, [t])[t].entries
                min_violation = min(
                    min_violation,
                    float(np.max(np.abs(pt - np.linalg.matrix_power(p1, t)))),
                )
    ok = worst_pf <= 1e-10 and min_violation > 1e-6 and tested > 0
    report(4, ok, f"horizon invariance: recovered-measure compounding err {worst_pf:.2e} "
                  f"(<= 1e-10); forward-measure violation >= {min_violation:.2e} (> 1e-6) "
                  f"on {tested} state-dependent economies")
    assert worst_pf <= 1e-10
    assert tested > 0 and min_violation > 1e-6


def test_c05_square_root_selection():
    start = time.perf_counter()
    # case 1: kappa_n < 0 selects the nonzero exponent
    m1 = sq.SquareRootModel(kappa=0.2, mu_bar=0.5, sigma_bar=0.3, alpha_bar=1.0, beta_bar=-0.05)
    c1 = {c.upsilon: c for c in sq.eigen_candidates(m1)}
    sel1 = sq.select_ergodic(list(c1.values()))
    case1 = (
        sel1.upsilon == pytest.approx(-2.2222222222222223, abs=1e-12)
        and c1[0.0].kappa_new == pytest.approx(-0.1, abs=1e-14)
        and sel1.kappa_new == -c1[0.0].kappa_new
    )
    # case 2: zero risk price keeps the physical dynamics
    m2 = sq.SquareRootModel(kappa=0.2, mu_bar=0.5, sigma_bar=0.3, alpha_bar=0.0, beta_bar=-0.05)
    sel2 = sq.select_ergodic(sq.eigen_candidates(m2))
    case2 = sel2.upsilon == 0.0 and sel2.kappa_new == pytest.approx(0.2)
    # case 3: kappa_n > 0 selects the risk-neutral exponent
    m3 = sq.SquareRootModel(kappa=0.2, mu_bar=0.5, sigma_bar=0.3, alpha_bar=0.1, beta_bar=-0.05)
    sel3 = sq.select_ergodic(sq.eigen_candidates(m3))
    case3 = sel3.upsilon == 0.0 and sel3.kappa_new == pytest.approx(0.17, abs=1e-14)

    res = sq.simulate(m1, sel1, horizon=1.0, dt=1 / 250, n_paths=100_000, seed=3)
    mart_ok = abs(res.martingale_mean - 1.0) <= 3.0 * res.martingale_se
    elapsed = time.perf_counter() - start
    ok = case1 and case2 and case3 and mart_ok and elapsed < 30.0
    report(5, ok, f"square-root selection: exponent/reversion assignments exact, "
                  f"martingale check {res.martingale_mean:.4f} +/- {res.martingale_se:.4f} "
                  f"(|z| = {abs(res.martingale_mean-1)/res.martingale_se:.2f} <= 3), "
                  f"runtime {elapsed:.1f} s (< 30 s)")
    assert case1 and case2 and case3
    assert mart_ok
    assert elapsed < 30.0


def test_c08_affine_ode_oracle_gate(affine_gate):
    rows, elapsed = affine_gate
    worst = max(abs(z) for *_, z in rows)
    ok = worst <= 3.0
    detail = ", ".join(f"t={t:.0f}: z={z:+.2f}" for t, _, _, _, z in rows)
    report(8, ok, f"affine-ODE oracle gate (1e6 paths, {elapsed:.0f} s): {detail} "
                  f"(all |z| <= 3)")
    for t, mean, se, exact, z in rows:
        assert abs(z) <= 3.0, f"horizon {t}: MC {mean} vs ODE {exact} ({z:+.2f} se)"


ENSEMBLE_PATHS = 100_000


@pytest.fixture(scope="module")
def stationary_ensembles(lrr_bundle):
    """Criterion 6's stationary ensembles (P at seed 5, P-hat at seed 6, one
    draw per path after a 600-month burn-in), shared with the exact-law check
    so that it simulates nothing of its own; and their simulation time."""
    params, _, _, _, cm = lrr_bundle
    start = time.perf_counter()
    draws = {
        name: lrr.simulate_states(dyn, 600.0, MC_DT, ENSEMBLE_PATHS, seed)
        for name, dyn, seed in (("p", params.dynamics(), 5), ("p_hat", cm, 6))
    }
    return draws, time.perf_counter() - start


def test_c06_lrr_pipeline(lrr_bundle, affine_gate, stationary_ensembles):
    params, value, sdf, pf, cm = lrr_bundle
    draws, simulated_s = stationary_ensembles
    start = time.perf_counter() - simulated_s
    d_ok = value.discriminant > 0
    root_ok = pf.eta_hat < pf.eta_other and cm.mu_22 < 0

    n_paths = ENSEMBLE_PATHS
    dens_p = lrr.density_from_draws(*draws["p"])
    dens_hat = lrr.density_from_draws(*draws["p_hat"])
    mean, cov = lrr.stationary_moments(params.dynamics())
    mean_t, var_t = mean[1], cov[1, 1]
    se_mean_p = np.sqrt(dens_p.cov[1, 1] / n_paths)
    se_var_p = dens_p.cov[1, 1] * np.sqrt(2.0 / n_paths)
    se_mean_h = np.sqrt(dens_hat.cov[1, 1] / n_paths)
    z_mean_p = (dens_p.mean[1] - mean_t) / se_mean_p
    z_var_p = (dens_p.cov[1, 1] - var_t) / se_var_p
    z_mean_h = (dens_hat.mean[1] - cm.iota[1]) / se_mean_h
    elapsed = time.perf_counter() - start
    sims_ok = abs(z_mean_p) <= 3 and abs(z_var_p) <= 3 and abs(z_mean_h) <= 3
    ok = d_ok and root_ok and sims_ok and elapsed < 300.0
    report(6, ok, f"lrr pipeline: D = {value.discriminant:.3e} > 0, smaller-root "
                  f"mu22_hat = {cm.mu_22:.4e} < 0; X2 moments z = "
                  f"({z_mean_p:+.2f}, {z_var_p:+.2f}, {z_mean_h:+.2f}) all <= 3 "
                  f"[var target {var_t:.4f}], runtime {elapsed:.0f} s (< 300 s)")
    assert d_ok and root_ok
    assert abs(z_mean_p) <= 3.0
    assert abs(z_var_p) <= 3.0
    assert abs(z_mean_h) <= 3.0
    assert elapsed < 300.0


def test_c07_lrr_yields(lrr_bundle, affine_gate):
    params, _, sdf, pf, cm = lrr_bundle
    horizons = list(range(12, 1201, 12))
    laws = (lrr.StationaryLaw(params.dynamics()), lrr.StationaryLaw(cm))
    curves = {
        flow: lrr.yield_curves(params, sdf, pf, laws, horizons, cash_flow=flow)
        for flow in ("consumption", "bond")
    }
    target = -pf.eta_hat * lrr.MONTHS_PER_YEAR
    k = horizons.index(1200)
    bond = curves["bond"]
    err_p = abs(bond.quartiles_p[1, k] - target)
    err_hat = abs(bond.quartiles_p_hat[1, k] - target)
    bond_ok = err_p <= 1e-4 and err_hat <= 1e-4

    cons = curves["consumption"]
    bias_ok = bool(np.all(cons.quartiles_p_hat[1] <= cons.quartiles_p[1]))
    ok = bond_ok and bias_ok
    report(7, ok, f"lrr yields: bond median errors at t=1200 vs -eta_hat: "
                  f"P {err_p:.2e}, P_hat {err_hat:.2e} (tolerance 1e-4); "
                  f"consumption median downward-biased at all {len(horizons)} "
                  f"horizons: {bias_ok}")
    assert bias_ok
    assert err_hat <= 1e-4
    # The physical-measure median converges to -eta_hat like c/t with
    # c ~ 0.15 annualized for this calibration, so its distance at t=1200
    # months is ~1.5e-3 and cannot meet 1e-4 (it would need t ~ 18,500
    # months).  Keeping the stated tolerance; see the yield-curve tests for
    # the convergence itself.
    assert err_p <= 1e-4


def test_exact_stationary_laws_match_ensembles(lrr_bundle, affine_gate, stationary_ensembles):
    # the transform-inverted laws behind `recovery-lab lrr` against criterion
    # 6's ensembles: bin masses above 1e-4 (binomial z-scores) and the yield
    # quartiles of both flows at all 100 horizons (order-statistic standard
    # errors, with the density at the quartile taken from the exact law)
    params, _, sdf, pf, cm = lrr_bundle
    draws, _ = stationary_ensembles
    n = ENSEMBLE_PATHS
    laws = {
        "p": lrr.StationaryLaw(params.dynamics()),
        "p_hat": lrr.StationaryLaw(cm),
    }
    for name, law in laws.items():
        grid = law.density()
        mass = law.bin_masses(grid.x1_edges, grid.x2_edges)
        counts, _, _ = np.histogram2d(*draws[name], bins=[grid.x1_edges, grid.x2_edges])
        big = mass > 1e-4
        z = (counts[big] / n - mass[big]) / np.sqrt(mass[big] * (1.0 - mass[big]) / n)
        rms = float(np.sqrt(np.mean(z * z)))
        print(f"{name}: {big.sum()} bins, rms z {rms:.3f}, max |z| {np.abs(z).max():.2f}")
        assert 0.9 <= rms <= 1.1, (name, rms)
        assert np.abs(z).max() <= 5.0, name

    probs = np.array([0.25, 0.5, 0.75])
    side = np.array([-0.005, 0.005])
    horizons = np.arange(12.0, 1201.0, 12.0)
    for flow in ("consumption", "bond"):
        curves = lrr.yield_curves(params, sdf, pf, (laws["p"], laws["p_hat"]), horizons, flow)
        per_measure = lrr._yield_laws(params, sdf, pf, horizons, flow)
        for name, exact, (_, intercept, loadings) in zip(
            ("p", "p_hat"), (curves.quartiles_p, curves.quartiles_p_hat), per_measure
        ):
            x1, x2 = draws[name]
            near = laws[name].quantiles(loadings, (probs[:, None] + side).ravel())
            density = (side[1] - side[0]) / np.diff(near.reshape(-1, 3, 2), axis=2)[:, :, 0]
            se = np.sqrt(probs * (1.0 - probs) / n) / density
            worst = 0.0
            for k, t in enumerate(horizons):
                y = intercept[k] + loadings[k, 0] * x1 + loadings[k, 1] * x2
                sampled = np.quantile(y, probs) * lrr.MONTHS_PER_YEAR / t
                z = (sampled - exact[:, k]) / (se[k] * lrr.MONTHS_PER_YEAR / t)
                worst = max(worst, float(np.abs(z).max()))
            print(f"{flow} yields under {name}: max |z| {worst:.2f} over {horizons.size} horizons")
            assert worst <= 5.0, (flow, name, worst)


def test_c09_discrepancy_bounds(power_economy, recursive_economy):
    start = time.perf_counter()
    rec0 = mk.recover(power_economy)
    prob0 = bd.generate_problem_from_chain(power_economy, rec0, "arrow")
    kazemi_vals = [bd.unconditional_bound(prob0, th).lambda_bar for th in (-1.0, 0.0, 1.0)]
    kazemi_ok = all(v <= 1e-10 for v in kazemi_vals)

    rec1 = mk.recover(recursive_economy)
    prob1 = bd.generate_problem_from_chain(recursive_economy, rec1, "arrow")
    strict_ok, gaps_ok = True, True
    for th in (-1.0, 0.0, 1.0):
        res = bd.unconditional_bound(prob1, th)
        pop = bd.population_discrepancy(recursive_economy, rec1, th)
        strict_ok &= 0.0 < res.lambda_bar <= pop + 1e-12
        gaps_ok &= res.duality_gap <= 1e-8

    res_u = bd.unconditional_bound(prob1, 1.0, nonnegative=False)
    w = prob1.weights
    y = prob1.payoff_samples / prob1.long_bond_return[:, None]
    a = np.hstack([np.ones((len(w), 1)), y])
    mom = (a * w[:, None]).T @ a
    j = a @ np.linalg.solve(mom, np.concatenate([[1.0], w @ prob1.price_samples]))
    closed = float(w @ ((j**2 - 1.0) / 2.0))
    quad_ok = abs(res_u.lambda_bar - closed) <= 1e-10
    elapsed = time.perf_counter() - start
    ok = kazemi_ok and strict_ok and gaps_ok and quad_ok and elapsed < 10.0
    report(9, ok, f"discrepancy bounds: unit-martingale lambdas "
                  f"{max(kazemi_vals):.1e} (<= 1e-10); recursive bounds positive "
                  f"and below population; theta=1 unconstrained vs closed form "
                  f"{abs(res_u.lambda_bar - closed):.1e} (<= 1e-10); gaps <= 1e-8; "
                  f"runtime {elapsed:.2f} s (< 10 s)")
    assert kazemi_ok and strict_ok and gaps_ok and quad_ok
    assert elapsed < 10.0


def test_c10_jensen_bound_property():
    rng = np.random.default_rng(9999)
    worst = np.inf
    for _ in range(100):
        eco = random_economy(rng)
        b = mk.log_return_bound_check(eco, mk.recover(eco))
        worst = min(worst, float(np.min(b.slack)))
    ok = worst >= -1e-12
    report(10, ok, f"long-bond log-return bound over 100 random economies: "
                   f"min slack {worst:.2e} (>= -1e-12)")
    assert worst >= -1e-12


def test_c11_uniqueness_behavior():
    rng = np.random.default_rng(2718)
    worst_eta, worst_vec = 0.0, 0.0
    for _ in range(200):
        eco = random_economy(rng)
        cands = [c for c in mk.enumerate_positive_eigen(eco.prices) if not c.borderline]
        assert len(cands) == 1
        eta, e_hat, _ = mk.perron_frobenius(eco.prices)
        worst_eta = max(worst_eta, abs(cands[0].eta - eta))
        worst_vec = max(worst_vec, float(np.max(np.abs(cands[0].vector - e_hat))))
    ok = worst_eta <= 1e-9 and worst_vec <= 1e-9
    report(11, ok, f"uniqueness fuzz over 200 economies: exactly one positive "
                   f"candidate each; eigenvalue gap {worst_eta:.1e}, vector gap "
                   f"{worst_vec:.1e} (<= 1e-9)")
    assert worst_eta <= 1e-9
    assert worst_vec <= 1e-9


def test_c12_extended_family_inversion():
    rng = np.random.default_rng(31415)
    worst_true = 0.0
    min_off = np.inf
    for _ in range(5):
        n = int(rng.integers(2, 5))
        transition = random_transition(rng, n)
        y = mk.GaussianAugmentedFunctional(
            beta_bar=rng.normal(0.0, 0.02, n),
            alpha_bar=np.hstack(
                [rng.normal(0, 0.1, (n, n)), rng.normal(0.05, 0.2, (n, 2))]
            ),
        )
        m_tilde = rng.uniform(0.5, 1.5, n)
        delta = float(rng.uniform(0.01, 0.05))
        zeta = float(rng.uniform(-1.0, 1.0))
        eco, a_s = mk.ross_extended_economy(transition, m_tilde, delta, zeta, y)
        exact = mk.extended_pf_family(eco, y, zeta, sdf_gaussian_loading=a_s)
        worst_true = max(
            worst_true,
            float(np.max(np.abs(exact.p_hat.entries - transition.entries))),
        )
        for off in (zeta - 0.5, zeta + 0.5):
            other = mk.extended_pf_family(eco, y, off, sdf_gaussian_loading=a_s)
            min_off = min(
                min_off,
                float(np.max(np.abs(other.p_hat.entries - transition.entries))),
            )
    ok = worst_true <= 1e-10 and min_off >= 1e-4
    report(12, ok, f"extended-family inversion: at the true loading err "
                   f"{worst_true:.1e} (<= 1e-10); half-unit off recovers a "
                   f"transition at least {min_off:.1e} away (>= 1e-4)")
    assert worst_true <= 1e-10
    assert min_off >= 1e-4
