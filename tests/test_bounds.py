"""Tests for divergence kernels, conditional discrepancies and dual bounds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recovery_lab import bounds as bd
from recovery_lab import markov as mk
from recovery_lab import preferences as pref
from recovery_lab.exceptions import ConvergenceError, InfeasibleProblemError

from conftest import count_calls, distorted_grid_economy, random_recursive_economy, traced


class TestPhi:
    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    def test_normalization_at_one(self, theta):
        assert bd.phi(theta, 1.0) == pytest.approx(0.0, abs=1e-15)
        # second derivative at 1 equals 1 (central difference)
        h = 1e-5
        second = (bd.phi(theta, 1 + h) - 2 * bd.phi(theta, 1.0) + bd.phi(theta, 1 - h)) / h**2
        assert second == pytest.approx(1.0, abs=1e-5)

    def test_entropy_branch(self):
        assert bd.phi(0.0, 2.0) == pytest.approx(2 * np.log(2.0), rel=1e-14)
        assert bd.phi(0.0, 0.0) == 0.0  # 0 log 0 = 0, the limit at r -> 0

    def test_log_branch(self):
        assert bd.phi(-1.0, 2.0) == pytest.approx(-np.log(2.0), rel=1e-14)
        with pytest.raises(ValueError, match="undefined"):
            bd.phi(-1.0, 0.0)

    def test_quadratic_branch_is_half_variance(self):
        rng = np.random.default_rng(0)
        j = rng.uniform(0.2, 2.0, size=1000)
        j /= j.mean()  # unit mean
        val = np.mean(bd.phi(1.0, j))
        assert val == pytest.approx(0.5 * np.var(j), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bd.phi(1.0, -0.1)

    def test_zero_allowed_only_for_positive_theta(self):
        assert bd.phi(1.0, 0.0) == pytest.approx(-0.5)
        with pytest.raises(ValueError):
            bd.phi(-0.5, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-0.99, max_value=3.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_convexity_vs_chords(self, theta, r):
        lo, hi = 0.5 * r, 1.5 * r
        chord = 0.5 * (bd.phi(theta, lo) + bd.phi(theta, hi))
        assert bd.phi(theta, r) <= chord + 1e-12

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, recursive_economy, theta):
        # theta = nan made the dual line search fail as a model error
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        for call in (
            lambda: bd.phi(theta, 1.0),
            lambda: bd.conditional_discrepancy(recursive_economy, rec, theta),
            lambda: bd.population_discrepancy(recursive_economy, rec, theta),
            lambda: bd.conditional_bound(recursive_economy, rec, theta),
            lambda: bd.unconditional_bound(prob, theta),
        ):
            with pytest.raises(ValueError, match="theta must be finite"):
                call()


class TestConditionalDiscrepancy:
    def test_power_utility_all_zero(self, power_economy):
        rec = mk.recover(power_economy)
        for theta in (-1.0, 0.0, 1.0):
            d = bd.conditional_discrepancy(power_economy, rec, theta)
            np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_recursive_positive_and_cross_checked(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        d = bd.conditional_discrepancy(recursive_economy, rec, 0.0)
        assert np.all(d > 0)
        p = recursive_economy.transition.entries
        h = rec.h_increments
        direct = (p * h * np.log(h)).sum(axis=1)
        np.testing.assert_allclose(d, direct, rtol=1e-12)

    def test_theta_one_is_half_conditional_variance(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        d = bd.conditional_discrepancy(recursive_economy, rec, 1.0)
        p = recursive_economy.transition.entries
        h = rec.h_increments
        mean = (p * h).sum(axis=1)  # = 1
        var = (p * (h - mean[:, None]) ** 2).sum(axis=1)
        np.testing.assert_allclose(d, 0.5 * var, rtol=1e-10)

    def test_log_likelihood_identities(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        p = recursive_economy.transition.entries
        h = rec.h_increments
        d_minus = bd.conditional_discrepancy(recursive_economy, rec, -1.0)
        np.testing.assert_allclose(d_minus, -(p * np.log(h)).sum(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("theta", [2e-8, -2e-8, 1e-7, -1 + 1e-7, -1 - 1e-7, -1 + 2e-8])
    def test_theta_next_to_zero_and_minus_one(self, seed, theta):
        # phi's (r - 1) / theta term cancels next to theta = 0 and -1: summed
        # over phi, the discrepancy at theta = 2e-8 was 1.8e-6 relative from
        # its theta = 0 value, and 9.1e-8 off at theta = -1 + 1e-7
        eco = random_recursive_economy(np.random.default_rng(seed), 4)
        rec = mk.recover(eco)
        near = 0.0 if abs(theta) < 0.5 else -1.0
        # the discrepancy is smooth in theta, with a slope below its value
        rtol = abs(theta - near) + 1e-12
        np.testing.assert_allclose(
            bd.conditional_discrepancy(eco, rec, theta),
            bd.conditional_discrepancy(eco, rec, near),
            rtol=rtol,
        )
        assert bd.population_discrepancy(eco, rec, theta) == pytest.approx(
            bd.population_discrepancy(eco, rec, near), rel=rtol
        )


class TestConditionalBound:
    def test_full_menu_equals_discrepancy(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        for theta in (-1.0, 0.0, 1.0):
            cb = bd.conditional_bound(recursive_economy, rec, theta)
            cd = bd.conditional_discrepancy(recursive_economy, rec, theta)
            np.testing.assert_allclose(cb, cd, atol=1e-9)

    @pytest.mark.parametrize("seed", [1, 3, 5, 6])
    def test_full_menu_ten_states_no_roundoff_stall(self, seed):
        # near the optimum the predicted dual ascent falls below the round-off
        # of the dual value; the dual Newton must still reach its tolerance
        eco = random_recursive_economy(np.random.default_rng(seed), 10)
        rec = mk.recover(eco)
        for theta in (-1.0, 0.0, 1.0):
            cb = bd.conditional_bound(eco, rec, theta)
            cd = bd.conditional_discrepancy(eco, rec, theta)
            np.testing.assert_allclose(cb, cd, atol=1e-9)

    def test_restricted_menu_weaker_per_state(self):
        rng = np.random.default_rng(6)
        p = mk.StochasticMatrix(rng.dirichlet(np.ones(4) * 4, size=4))
        from recovery_lab import preferences as pref

        spec = pref.RecursiveUtilitySpec(
            delta=0.03, gamma=9.0, g_c=0.0, c=rng.uniform(0.5, 2.0, 4)
        )
        value = pref.solve_continuation_value(spec, p)
        eco = mk.build_economy(p, pref.recursive_sdf(spec, p, value))
        rec = mk.recover(eco)
        menu = np.vstack([np.ones(4), np.arange(1.0, 5.0)])
        cb = bd.conditional_bound(eco, rec, 0.0, payoff_spec=menu)
        cd = bd.conditional_discrepancy(eco, rec, 0.0)
        assert np.all(cb <= cd + 1e-10)
        assert np.all(cb >= -1e-12)

    def test_average_conditional_dominates_unconditional(self, recursive_economy):
        # same menu on both sides: lambda_bar <= E[lambda_theta(X)]
        rec = mk.recover(recursive_economy)
        pi = mk.stationary_distribution(recursive_economy.transition)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        for theta in (-1.0, 0.0, 1.0):
            cb = bd.conditional_bound(recursive_economy, rec, theta)
            lam_bar = bd.unconditional_bound(prob, theta).lambda_bar
            assert lam_bar <= float(pi @ cb) + 1e-10


class TestKazemi:
    def test_unit_martingale_prices_exactly(self, power_economy):
        rec = mk.recover(power_economy)
        prob = bd.generate_problem_from_chain(power_economy, rec, "arrow")
        np.testing.assert_allclose(bd.kazemi_test(prob), 0.0, atol=1e-10)

    def test_recursive_errors_nonzero(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        assert np.max(np.abs(bd.kazemi_test(prob))) > 1e-3

    def test_bond_priced_by_construction_in_constant_rate_economy(self):
        # constant bond prices force a constant eigenvector, so 1/R_inf equals
        # the bond price identically and the bond pricing error vanishes even
        # though the martingale component is nontrivial
        q = 0.97 * np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(3) * 5, size=3)
        eco = mk.build_economy(mk.StochasticMatrix(p), mk.SdfMatrix(q / p))
        rec = mk.recover(eco)
        assert np.max(np.abs(rec.h_increments - 1.0)) > 1e-3  # nontrivial
        prob = bd.generate_problem_from_chain(eco, rec, np.ones((1, 3)))
        np.testing.assert_allclose(bd.kazemi_test(prob), 0.0, atol=1e-12)


class TestUnconditionalBound:
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_unit_martingale_bound_zero(self, power_economy, theta):
        rec = mk.recover(power_economy)
        prob = bd.generate_problem_from_chain(power_economy, rec, "arrow")
        res = bd.unconditional_bound(prob, theta)
        assert res.converged
        assert res.lambda_bar <= 1e-10
        assert res.lambda_bar >= -1e-12

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_recursive_bound_positive_and_below_population(
        self, recursive_economy, theta
    ):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        res = bd.unconditional_bound(prob, theta)
        pop = bd.population_discrepancy(recursive_economy, rec, theta)
        assert res.converged
        assert res.lambda_bar > 1e-6
        assert res.lambda_bar <= pop + 1e-10
        assert res.duality_gap <= 1e-8
        assert np.max(np.abs(res.constraint_residuals)) <= 1e-8

    def test_full_transition_menu_pins_population_value(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow_pairs")
        for theta in (-1.0, 0.0, 1.0):
            res = bd.unconditional_bound(prob, theta)
            pop = bd.population_discrepancy(recursive_economy, rec, theta)
            assert res.lambda_bar == pytest.approx(pop, abs=1e-8)

    def test_theta_one_unconstrained_matches_least_squares(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        res = bd.unconditional_bound(prob, 1.0, nonnegative=False)
        w = prob.weights
        y = prob.payoff_samples / prob.long_bond_return[:, None]
        a = np.hstack([np.ones((len(w), 1)), y])
        mom = (a * w[:, None]).T @ a
        rhs = np.concatenate([[1.0], w @ prob.price_samples])
        j = a @ np.linalg.solve(mom, rhs)
        closed = float(w @ ((j**2 - 1.0) / 2.0))
        assert res.lambda_bar == pytest.approx(closed, abs=1e-10)

    def test_monotone_in_asset_menu(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        n = recursive_economy.n
        small = bd.generate_problem_from_chain(
            recursive_economy, rec, np.ones((1, n))
        )
        large = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        for theta in (-1.0, 0.0, 1.0):
            lo = bd.unconditional_bound(small, theta).lambda_bar
            hi = bd.unconditional_bound(large, theta).lambda_bar
            assert lo <= hi + 1e-10

    def test_sampled_mode_near_population(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        pop_prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        pop_val = bd.unconditional_bound(pop_prob, 0.0).lambda_bar
        samp = bd.generate_problem_from_chain(
            recursive_economy, rec, "arrow", horizon_t=100_000, mode="sampled", seed=8
        )
        val = bd.unconditional_bound(samp, 0.0).lambda_bar
        # bootstrap standard error over row resamples
        rng = np.random.default_rng(17)
        reps = []
        t = samp.payoff_samples.shape[0]
        for _ in range(30):
            idx = rng.integers(0, t, size=t)
            boot = bd.BoundProblem(
                payoff_samples=samp.payoff_samples[idx],
                price_samples=samp.price_samples[idx],
                long_bond_return=samp.long_bond_return[idx],
            )
            reps.append(bd.unconditional_bound(boot, 0.0).lambda_bar)
        se = np.std(reps, ddof=1)
        assert abs(val - pop_val) <= 3.0 * se

    @pytest.mark.parametrize("n", [2, 5])
    def test_diagnostics_on_sampled_arrow_problem(self, n):
        eco = random_recursive_economy(np.random.default_rng(n), n)
        prob = bd.generate_problem_from_chain(
            eco, mk.recover(eco), "arrow", horizon_t=5_000, mode="sampled", seed=4
        )
        for theta in (-1.0, 0.0, 1.0):
            res = bd.unconditional_bound(prob, theta)
            assert res.converged
            assert 1 <= res.iterations <= 50
            # the samples take one distinct row per live transition at most
            assert res.n_rows <= n * n
            assert res.j.shape == (5_000,)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        copies=st.lists(st.integers(1, 4), min_size=25, max_size=25),
    )
    def test_repeated_rows_match_deduplicated_problem(self, seed, n, copies):
        rng = np.random.default_rng(seed)
        eco = random_recursive_economy(rng, n)
        base = bd.generate_problem_from_chain(eco, mk.recover(eco), "arrow")
        t = base.weights.size
        # each row repeated, its weight split at random, the copies shuffled
        source = np.repeat(np.arange(t), copies[:t])
        source = source[rng.permutation(source.size)]
        split = rng.uniform(0.1, 1.0, size=source.size)
        share = split / np.bincount(source, weights=split)[source]
        repeated = bd.BoundProblem(
            payoff_samples=base.payoff_samples[source],
            price_samples=base.price_samples[source],
            long_bond_return=base.long_bond_return[source],
            weights=base.weights[source] * share,
        )
        for theta in (-1.0, 0.0, 1.0):
            want = bd.unconditional_bound(base, theta)
            got = bd.unconditional_bound(repeated, theta)
            assert want.n_rows == t and got.n_rows == t
            assert abs(got.lambda_bar - want.lambda_bar) <= 1e-10
            np.testing.assert_allclose(got.j, want.j[source], rtol=0, atol=1e-10)

    def test_rows_sharing_a_sort_key_are_not_merged(self):
        a = [math.sqrt(3.0), 0.0]
        b = [0.0, math.sqrt(2.0)]
        c = [1.0, 1.0]
        order = [0, 1, 0, 1, 2, 1, 0, 2, 1, 2]
        distinct = np.array([a, b, c])
        y = distinct[order]
        key = bd._row_key(y)
        assert key[0] == key[1] != key[4]  # the premise: a and b tie on the key
        reps, w, group = bd._distinct_rows(y, np.full(10, 0.1))
        np.testing.assert_array_equal(reps[group], y)
        assert w.sum() == pytest.approx(1.0)
        # prices of a feasible J, so the grouped solve must match the 3-row one
        w3 = np.array([0.3, 0.4, 0.3])
        q = (w3 * [1.2, 0.85, 1.0]) @ distinct
        prob = bd.BoundProblem(
            payoff_samples=y, price_samples=np.tile(q, (10, 1)), long_bond_return=np.ones(10)
        )
        three = bd.BoundProblem(
            payoff_samples=distinct,
            price_samples=np.tile(q, (3, 1)),
            long_bond_return=np.ones(3),
            weights=w3,
        )
        for theta in (-1.0, 0.0, 1.0):
            got = bd.unconditional_bound(prob, theta)
            want = bd.unconditional_bound(three, theta)
            assert got.lambda_bar == pytest.approx(want.lambda_bar, abs=1e-12)
            np.testing.assert_allclose(got.j, want.j[order], atol=1e-12)

    def test_equal_rows_split_by_a_key_tie_form_one_group(self):
        # a and b tie on the key, so the key order interleaves them; equal
        # rows must still meet, or three distinct rows count as more than
        # the constraints and miss the pinned solve
        distinct = np.array([[math.sqrt(3.0), 0.0], [0.0, math.sqrt(2.0)], [1.0, 1.0]])
        order = [0, 1, 0, 1, 2, 1, 0, 2, 1, 2]
        y = distinct[order]
        reps, w, group = bd._distinct_rows(y, np.full(10, 0.1))
        assert reps.shape == (3, 2)
        np.testing.assert_array_equal(reps[group], y)
        np.testing.assert_allclose(np.bincount(group, minlength=3), w / 0.1)
        q = np.array([0.3, 0.4, 0.3]) @ distinct
        prob = bd.BoundProblem(y, np.tile(q, (10, 1)), np.ones(10))
        assert bd.unconditional_bound(prob, 0.0).iterations == 0

    def test_infeasible_reported_with_direction(self):
        # a claim paying exactly R_inf must have weighted price 1; demand 2.
        # Quoted in units 1e6 times larger, the direction is still one of the
        # caller's dual.
        t = 50
        rng = np.random.default_rng(2)
        r = rng.uniform(1.0, 1.1, size=t)
        w = np.full(t, 1.0 / t)
        for units in (1.0, 1e6):
            prob = bd.BoundProblem(
                payoff_samples=units * r[:, None],
                price_samples=np.full((t, 1), 2.0 * units),
                long_bond_return=r,
            )
            with pytest.raises(InfeasibleProblemError) as info:
                bd.unconditional_bound(prob, 1.0)
            direction = info.value.direction
            assert direction is not None
            # the certificate is a recession direction: the dual objective
            # keeps growing along it, which is impossible for a feasible primal
            y = units * r[:, None] / r[:, None]  # payoff / long-bond return
            a = np.hstack([np.ones((t, 1)), y])
            target = np.array([1.0, 2.0 * units])

            def dual(u):
                z = a @ u
                return float(u @ target - w @ (0.5 * np.maximum(z, 0.0) ** 2 + 0.5))

            vals = [dual(s * direction) for s in (1e3, 1e4, 1e5)]
            assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("price", [0.5, -0.5])
    def test_zero_payoff_with_nonzero_price_is_infeasible(self, price):
        # a payoff of 0 in every row has price 0; its constraint has no
        # magnitude to scale by, and its own multiplier is the direction
        r = np.array([1.0, 1.05, 1.1])
        prob = bd.BoundProblem(
            payoff_samples=np.column_stack([r, np.zeros(3)]),
            price_samples=np.tile([1.0, price], (3, 1)),
            long_bond_return=r,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InfeasibleProblemError) as info:
                bd.unconditional_bound(prob, 0.0)
        np.testing.assert_array_equal(info.value.direction, [0.0, 0.0, np.sign(price)])

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 1e-9, 0.5, 1.0])
    def test_multipliers_are_those_of_phi(self, recursive_economy, theta):
        # first-order condition of the reported multipliers: phi'(J) = a u,
        # with phi'(r) = r^theta / theta (1 + log r at theta = 0)
        rec = mk.recover(recursive_economy)
        menu = np.array([[1.0, 0.5]])
        prob = bd.generate_problem_from_chain(recursive_economy, rec, menu)
        res = bd.unconditional_bound(prob, theta)
        y = prob.payoff_samples / prob.long_bond_return[:, None]
        a = np.hstack([np.ones((y.shape[0], 1)), y])
        slope = 1.0 + np.log(res.j) if theta == 0.0 else res.j**theta / theta
        np.testing.assert_allclose(a @ res.multipliers, slope, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "theta",
        [1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6, -1 + 1e-6, -1 - 1e-6, -1 + 1e-9, -1 - 1e-9],
    )
    def test_theta_near_zero_and_minus_one(self, theta):
        # the power formulas divide by theta and by 1 + theta: the dual
        # raised ConvergenceError or was up to 8e-1 off at |theta| <= 1e-6,
        # and took 70 Newton steps at theta = -1 - 1e-9
        eco = random_recursive_economy(np.random.default_rng(3), 4)
        rec = mk.recover(eco)
        near = 0.0 if abs(theta) < 0.5 else -1.0
        menu = np.random.default_rng(7).uniform(0.5, 1.5, size=(2, 4))
        for spec in ("arrow", menu):
            prob = bd.generate_problem_from_chain(eco, rec, spec)
            got = bd.unconditional_bound(prob, theta)
            want = bd.unconditional_bound(prob, near)
            assert got.converged and got.iterations <= want.iterations + 1
            # lambda_bar is smooth in theta, with a slope below lambda_bar
            assert got.lambda_bar == pytest.approx(want.lambda_bar, rel=abs(theta - near) + 1e-12)
        np.testing.assert_allclose(
            bd.conditional_bound(eco, rec, theta),
            bd.conditional_bound(eco, rec, near),
            rtol=abs(theta - near) + 1e-12,
        )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to one"):
            bd.BoundProblem(
                payoff_samples=np.ones((3, 1)),
                price_samples=np.ones((3, 1)),
                long_bond_return=np.ones(3),
                weights=np.array([0.5, 0.2, 0.2]),
            )

    def test_returns_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            bd.BoundProblem(
                payoff_samples=np.ones((2, 1)),
                price_samples=np.ones((2, 1)),
                long_bond_return=np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize(
        "column, value", [(0, "nan"), (1, "nan"), (1, "inf"), (2, "nan"), (3, "inf")]
    )
    def test_non_finite_data_rejected(self, tmp_path, column, value):
        # weight, r_infty, y_1, q_1: a NaN weight passed the sum-to-one check,
        # and the bound then reported "constraint 1 prices a zero payoff"
        # (or ConvergenceError for an infinite price)
        rows = [["0.5", "1.01", "1.0", "0.9"], ["0.5", "0.98", "2.0", "0.9"]]
        rows[1][column] = value
        path = tmp_path / "problem.csv"
        path.write_text("weight,r_infty,y_1,q_1\n" + "\n".join(map(",".join, rows)) + "\n")
        with pytest.raises(ValueError, match="finite"):
            bd.problem_from_csv(path)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_zero_weight_rows_take_no_part(self, seed):
        # rows of weight 0, in both problem forms, change nothing; kazemi_test
        # summed them, which moved its last bits
        rng = np.random.default_rng(seed)
        n = 2 + seed
        eco = random_recursive_economy(rng, n)
        menu = "arrow" if seed % 2 else rng.uniform(0.5, 1.5, size=(n - 1, n))
        sampled = bd.generate_problem_from_chain(
            eco, mk.recover(eco), menu, horizon_t=400, mode="sampled", seed=seed
        )
        tables = (sampled._payoff_table, sampled._price_table, sampled._r_table)
        rows_i, rows_j = sampled._index
        w = rng.random(rows_i.size)
        w[rng.random(rows_i.size) < 0.3] = 0.0
        w /= w.sum()
        keep = w > 0
        chain = bd.BoundProblem._by_transition(*tables, rows_i, rows_j, w)
        chain_cut = bd.BoundProblem._by_transition(*tables, rows_i[keep], rows_j[keep], w[keep])

        def plain(problem):
            return bd.BoundProblem(
                problem.payoff_samples, problem.price_samples, problem.long_bond_return,
                problem.weights,
            )

        for full, cut in ((chain, chain_cut), (plain(chain), plain(chain_cut))):
            np.testing.assert_array_equal(bd.kazemi_test(full), bd.kazemi_test(cut))
            for theta in (-1.0, 0.0, 1.0):
                got, want = bd.unconditional_bound(full, theta), bd.unconditional_bound(cut, theta)
                assert got.lambda_bar == want.lambda_bar
                np.testing.assert_array_equal(got.multipliers, want.multipliers)
                np.testing.assert_array_equal(got.j, want.j)


def _searched_path(eco, horizon, seed):
    """The sampled path, one ``np.searchsorted`` per step over one stream."""
    rng = np.random.default_rng(seed)
    states = [rng.choice(eco.n, p=mk.stationary_distribution(eco.transition))]
    cum = np.cumsum(eco.transition.entries, axis=1)
    for u in rng.random(horizon):
        states.append(int(np.searchsorted(cum[states[-1]], u)))
    return np.asarray(states)


def _stream(draws):
    """``random(k)`` over fixed draws: the next k of them on each call."""
    rest = iter(np.asarray(draws, dtype=float).tolist())
    return lambda k: np.fromiter(rest, dtype=float, count=k)


class TestProblemGeneration:
    def test_population_weights_are_stationary_joint_law(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        pi = mk.stationary_distribution(recursive_economy.transition)
        p = recursive_economy.transition.entries
        expected = (pi[:, None] * p).ravel()
        np.testing.assert_allclose(np.sort(prob.weights), np.sort(expected), atol=1e-14)
        assert prob.weights.sum() == pytest.approx(1.0)

    def test_unit_menu_satisfied_by_unit_j(self, power_economy):
        rec = mk.recover(power_economy)
        prob = bd.generate_problem_from_chain(power_economy, rec, "arrow")
        y = prob.payoff_samples / prob.long_bond_return[:, None]
        lhs = prob.weights @ y
        rhs = prob.weights @ prob.price_samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_sampled_mode_reproducible(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        a = bd.generate_problem_from_chain(
            recursive_economy, rec, "arrow", horizon_t=500, mode="sampled", seed=3
        )
        b = bd.generate_problem_from_chain(
            recursive_economy, rec, "arrow", horizon_t=500, mode="sampled", seed=3
        )
        np.testing.assert_array_equal(a.payoff_samples, b.payoff_samples)

    @pytest.mark.parametrize(
        "n, horizon",
        [(2, 2_000), (5, 2_000), (10, 2_000), (10, 2 * bd._WALK_CHUNK + 3)],
        ids=["2", "5", "10", "10-past-chunk"],
    )
    def test_sampled_path_matches_per_step_walk(self, n, horizon):
        eco = random_recursive_economy(np.random.default_rng(n), n)
        prob = bd.generate_problem_from_chain(
            eco, mk.recover(eco), "arrow", horizon_t=horizon, mode="sampled", seed=7
        )
        states = _searched_path(eco, horizon, 7)
        np.testing.assert_array_equal(prob.payoff_samples, np.eye(n)[states[1:]])
        np.testing.assert_array_equal(prob.price_samples, eco.prices.entries[states[:-1]])

    def test_draw_above_row_sum_goes_to_last_live_state(self):
        # rows within 1e-12 of one are valid; their last cumulative sum is
        # below some draws, where the left search runs off the end of the row
        for row in ([0.5, 0.5 - 8e-13], [0.5, 0.5 - 8e-13, 0.0]):
            p = mk.StochasticMatrix([row] * len(row)).entries
            cum = np.cumsum(p, axis=1)
            assert np.searchsorted(cum[0], 1.0 - 4e-13) == len(row)
            path = bd._walk(cum, 0, 3, _stream([1.0 - 4e-13, 0.2, 1.0 - 4e-13]))
            np.testing.assert_array_equal(path, [0, 1, 0, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_matches_per_step_search(self, data):
        n = data.draw(st.integers(1, 12))
        raw = np.array(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.0, 1e-300, 1e-9, 0.1, 0.3, 1.0, 7.0]),
                    min_size=n * n,
                    max_size=n * n,
                )
            )
        ).reshape(n, n)
        raw[raw.sum(axis=1) == 0, data.draw(st.integers(0, n - 1))] = 1.0
        # rows may fall short of one by as much as StochasticMatrix accepts
        short = data.draw(
            st.lists(st.sampled_from([0.0, 1e-16, 4e-13, 1e-12]), min_size=n, max_size=n)
        )
        p = raw / raw.sum(axis=1, keepdims=True) * (1.0 - np.array(short))[:, None]
        cum = np.cumsum(p, axis=1)
        # uniform draws, draws on the cumulative sums, and draws next to one
        draw = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from(cum[cum < 1.0].tolist() or [0.5]),
            st.sampled_from([1.0 - 1e-16, 1.0 - 5e-13]),
        )
        draws = np.array(data.draw(st.lists(draw, max_size=60)), dtype=float)
        first = data.draw(st.integers(0, n - 1))
        states = [first]
        for u in draws:
            s = states[-1]
            j = int(np.searchsorted(cum[s], u))
            if j == n:  # above the row's sum: its last live state
                j = int(np.flatnonzero(cum[s] > np.concatenate([[0.0], cum[s, :-1]]))[-1])
            states.append(j)
        np.testing.assert_array_equal(bd._walk(cum, first, draws.size, _stream(draws)), states)

    def test_long_bond_return_read_from_recovery(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        shifted = dataclasses.replace(rec, eta_hat=rec.eta_hat + 0.1)
        a = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        b = bd.generate_problem_from_chain(recursive_economy, shifted, "arrow")
        np.testing.assert_allclose(
            b.long_bond_return, a.long_bond_return * np.exp(-0.1), rtol=1e-14
        )

    def test_csv_round_trip(self, tmp_path, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        path = tmp_path / "problem.csv"
        bd.problem_to_csv(prob, path)
        back = bd.problem_from_csv(path)
        np.testing.assert_array_equal(back.payoff_samples, prob.payoff_samples)
        np.testing.assert_array_equal(back.price_samples, prob.price_samples)
        np.testing.assert_array_equal(back.long_bond_return, prob.long_bond_return)
        np.testing.assert_array_equal(back.weights, prob.weights)
        a = bd.unconditional_bound(prob, 0.0).lambda_bar
        b = bd.unconditional_bound(back, 0.0).lambda_bar
        assert a == b
        assert back.weights.flags.c_contiguous  # not a column view of the CSV table

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_results_do_not_depend_on_the_weights_layout(self, seed):
        # kazemi_test handed a strided weights view to ``w @ y``, whose last
        # bits then differed from those over a contiguous copy
        eco = random_recursive_economy(np.random.default_rng(seed), 3)
        prob = bd.generate_problem_from_chain(eco, mk.recover(eco), "arrow")
        y, q, r = prob.payoff_samples, prob.price_samples, prob.long_bond_return
        table = np.column_stack([prob.weights, y])
        view = bd.BoundProblem(y, q, r, weights=table[:, 0])
        copy = bd.BoundProblem(y, q, r, weights=table[:, 0].copy())
        assert np.array_equal(bd.kazemi_test(view), bd.kazemi_test(copy))
        for theta in (-1.0, 0.0, 1.0):
            a = bd.unconditional_bound(view, theta).lambda_bar
            assert a == bd.unconditional_bound(copy, theta).lambda_bar

    @pytest.mark.parametrize(
        "menu, mode, horizon_t, match",
        [
            ("arrow_pairs", "sampled", 10_000, "requires population mode"),
            ("pairs", "population", 0, "unknown payoff_spec"),
            ("arrow", "simulated", 10_000, "unknown mode"),
            ("arrow", "sampled", 0, "horizon_t >= 1"),
            ("arrow", "sampled", 100.5, "integer horizon_t >= 1"),
            ("arrow", "sampled", 1e3, "integer horizon_t >= 1"),
        ],
    )
    def test_bad_arguments_rejected_before_any_work(
        self, monkeypatch, recursive_economy, menu, mode, horizon_t, match
    ):
        # arrow_pairs with mode="sampled" walked the whole path before it raised
        rec = mk.recover(recursive_economy)
        walks = count_calls(monkeypatch, bd, "_walk")
        laws = count_calls(monkeypatch, bd, "stationary_distribution")
        with pytest.raises(ValueError, match=match):
            bd.generate_problem_from_chain(
                recursive_economy, rec, menu, horizon_t=horizon_t, mode=mode, seed=1
            )
        assert len(walks) == len(laws) == 0

    def test_csv_header_validated(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="weight, r_infty"):
            bd.problem_from_csv(bad)


def _sparse_recursive_economy(rng, n, zero_share):
    """Recursive-utility economy on a random chain with zero transitions.

    The diagonal and the cycle i -> i + 1 stay positive, so the chain is
    primitive whatever else is zeroed.
    """
    raw = rng.dirichlet(np.ones(n), size=n) + 0.02
    drop = rng.random((n, n)) < zero_share
    idx = np.arange(n)
    drop[idx, idx] = False
    drop[idx, (idx + 1) % n] = False
    raw[drop] = 0.0
    transition = mk.StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))
    spec = pref.RecursiveUtilitySpec(
        delta=0.02, gamma=10.0, g_c=0.0, c=rng.uniform(0.5, 2.0, size=n)
    )
    value = pref.solve_continuation_value(spec, transition)
    return mk.build_economy(transition, pref.recursive_sdf(spec, transition, value))


@pytest.fixture(scope="module", params=[16, 17, 257])
def edge_chain(request):
    """A chain whose n - 1 or n^2 - 1 is just past a uint8 or a uint16."""
    eco = random_recursive_economy(np.random.default_rng(request.param), request.param)
    return eco, mk.recover(eco)


class TestTransitionLabels:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        horizon=st.integers(20, 3_000),
        theta=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        extra=st.sampled_from([None, -1, 1, 2]),
        mode=st.sampled_from(["sampled", "population"]),
    )
    def test_label_groups_match_row_comparison(self, seed, n, horizon, theta, extra, mode):
        # the Arrow menu or a random m x n menu with m = n + extra != n
        rng = np.random.default_rng(seed)
        eco = random_recursive_economy(rng, n)
        menu = "arrow" if extra is None else rng.uniform(0.5, 1.5, size=(n + extra, n))
        labelled = bd.generate_problem_from_chain(
            eco, mk.recover(eco), menu, horizon_t=horizon, mode=mode, seed=seed
        )
        plain = dataclasses.replace(labelled)
        assert labelled._labels is not None and plain._labels is None
        np.testing.assert_allclose(
            bd.kazemi_test(labelled), bd.kazemi_test(plain), rtol=0, atol=1e-12
        )

        def outcome(problem):
            # a short path can miss prices that J > 0 could meet
            try:
                return bd.unconditional_bound(problem, theta)
            except (ConvergenceError, InfeasibleProblemError) as exc:
                return type(exc)

        got, want = outcome(labelled), outcome(plain)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            return
        assert got.n_rows == want.n_rows
        assert got.lambda_bar == pytest.approx(want.lambda_bar, rel=1e-12, abs=1e-300)
        np.testing.assert_allclose(got.j, want.j, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "horizon",
        [bd._WALK_CHUNK - 1, bd._WALK_CHUNK, bd._WALK_CHUNK + 1, 3 * bd._WALK_CHUNK + 5],
    )
    def test_index_type_edges_and_walk_chunks(self, edge_chain, horizon):
        # labels formed in the index type would wrap (16 * 17 + 16 = 288 is
        # 32 in uint8); the paths end just before, on and after the walk's
        # chunk boundaries
        eco, rec = edge_chain
        n = eco.n
        menu = "arrow" if n < 257 else np.random.default_rng(n).uniform(0.5, 1.5, size=(3, n))
        prob = bd.generate_problem_from_chain(
            eco, rec, menu, horizon_t=horizon, mode="sampled", seed=horizon
        )
        rows_i, rows_j = prob._index
        assert rows_i.dtype == rows_j.dtype == np.min_scalar_type(n - 1)
        assert prob._labels.dtype == np.min_scalar_type(n * n - 1)
        states = _searched_path(eco, horizon, horizon)
        np.testing.assert_array_equal(rows_i, states[:-1])
        np.testing.assert_array_equal(rows_j, states[1:])
        np.testing.assert_array_equal(prob._labels, states[:-1] * n + states[1:])
        plain = dataclasses.replace(prob)
        np.testing.assert_array_equal(bd.kazemi_test(prob), bd.kazemi_test(plain))
        for theta in (-1.0, 0.0, 1.0):
            got, want = bd.unconditional_bound(prob, theta), bd.unconditional_bound(plain, theta)
            assert got.lambda_bar == want.lambda_bar and got.dual_value == want.dual_value
            assert (got.iterations, got.n_rows) == (want.iterations, want.n_rows)
            np.testing.assert_array_equal(got.multipliers, want.multipliers)
            np.testing.assert_array_equal(got.j, want.j)

    @pytest.mark.parametrize("seed", [1, 5, 6])  # paths of 12 distinct transitions
    def test_path_of_distinct_transitions_matches_plain_copy(self, seed):
        # every label once: the rows go to the dual in row order, with the
        # one stored 1 / T as a contiguous array (``w @ y`` over the
        # broadcast takes another BLAS kernel and moves the last bits)
        rng = np.random.default_rng(seed)
        eco = random_recursive_economy(rng, 10)
        menu = rng.uniform(0.5, 1.5, size=(2, 10))
        labelled = bd.generate_problem_from_chain(
            eco, mk.recover(eco), menu, horizon_t=12, mode="sampled", seed=seed
        )
        assert np.unique(labelled._labels).size == 12
        plain = dataclasses.replace(labelled)
        np.testing.assert_array_equal(bd.kazemi_test(labelled), bd.kazemi_test(plain))
        for theta in (-1.0, 0.0, 1.0):
            got, want = bd.unconditional_bound(labelled, theta), bd.unconditional_bound(plain, theta)
            assert got.lambda_bar == want.lambda_bar
            np.testing.assert_array_equal(got.multipliers, want.multipliers)
            np.testing.assert_array_equal(got.j, want.j)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unequal_weights_on_a_path_are_summed_by_label(self, seed):
        # equal weights skip the label sort; unequal ones on a path, whose
        # labels come in no order, are sorted by label before they are summed
        rng = np.random.default_rng(seed)
        eco = random_recursive_economy(rng, 4)
        sampled = bd.generate_problem_from_chain(
            eco, mk.recover(eco), "arrow", horizon_t=500, mode="sampled", seed=seed
        )
        w = rng.random(500)
        tables = (sampled._payoff_table, sampled._price_table, sampled._r_table)
        labelled = bd.BoundProblem._by_transition(*tables, *sampled._index, w / w.sum())
        plain = dataclasses.replace(labelled)
        # within a state, prices' weights are summed in label order, not row order
        np.testing.assert_allclose(
            bd.kazemi_test(labelled), bd.kazemi_test(plain), rtol=0, atol=1e-12
        )
        got, want = bd.unconditional_bound(labelled, 0.0), bd.unconditional_bound(plain, 0.0)
        assert got.lambda_bar == pytest.approx(want.lambda_bar, rel=1e-12)
        np.testing.assert_allclose(got.j, want.j, rtol=0, atol=1e-10)

    def test_rows_equal_across_labels_merge(self):
        # a constant discount factor gives R_inf within an ulp of 1 / 0.97
        # everywhere, so rows i -> j and i' -> j are equal for many i, i':
        # labels alone would keep all n^2 of them apart
        rng = np.random.default_rng(0)
        p = mk.StochasticMatrix(rng.dirichlet(np.ones(4), size=4))
        eco = mk.build_economy(p, mk.SdfMatrix(np.full((4, 4), 0.97)))
        rec = mk.recover(eco)
        for mode in ("population", "sampled"):
            labelled = bd.generate_problem_from_chain(
                eco, rec, "arrow", horizon_t=2_000, mode=mode, seed=1
            )
            plain = dataclasses.replace(labelled)
            n_labels = np.unique(labelled._labels).size
            for theta in (-1.0, 0.0, 1.0):
                got = bd.unconditional_bound(labelled, theta)
                want = bd.unconditional_bound(plain, theta)
                assert got.n_rows == want.n_rows < n_labels
                assert got.iterations == want.iterations
                # merged weights are summed in another order, and Newton
                # stops at max|grad| <= 1e-10 from slightly different data
                assert got.lambda_bar == pytest.approx(want.lambda_bar, rel=1e-9, abs=1e-15)

    def test_labels_are_the_transitions(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        pop = bd.generate_problem_from_chain(recursive_economy, rec, "arrow")
        rows_i, rows_j = np.nonzero(recursive_economy.transition.entries)
        np.testing.assert_array_equal(pop._labels, rows_i * 2 + rows_j)
        samp = bd.generate_problem_from_chain(
            recursive_economy, rec, "arrow", horizon_t=300, mode="sampled", seed=3
        )
        q = recursive_economy.prices.entries
        i = np.argmax(np.all(samp.price_samples[:, None, :] == q[None], axis=2), axis=1)
        j = np.argmax(samp.payoff_samples, axis=1)
        np.testing.assert_array_equal(samp._labels, i * 2 + j)
        # labels are no constructor argument and take no part in repr
        assert bd.BoundProblem(
            samp.payoff_samples, samp.price_samples, samp.long_bond_return
        )._labels is None
        assert "_labels" not in repr(samp)

    def test_rows_gathered_from_tables(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        prob = bd.generate_problem_from_chain(
            recursive_economy, rec, np.ones((3, 2)), horizon_t=50, mode="sampled", seed=2
        )
        # the tables are per state; the row arrays are gathered on each access
        assert prob._payoff_table.shape == prob._price_table.shape == (2, 3)
        assert prob.payoff_samples.shape == prob.price_samples.shape == (50, 3)
        assert prob.payoff_samples is not prob.payoff_samples
        plain = dataclasses.replace(prob)
        assert plain.payoff_samples is plain.payoff_samples
        np.testing.assert_array_equal(plain.long_bond_return, prob.long_bond_return)

    def test_sampled_bound_forms_no_sample_arrays(self):
        # dense rows would take 2 T m 8 B = 32 MB for payoffs and prices at
        # n = m = 10, T = 200,000
        eco = random_recursive_economy(np.random.default_rng(10), 10)
        rec = mk.recover(eco)

        def sample_and_bound():
            prob = bd.generate_problem_from_chain(
                eco, rec, "arrow", horizon_t=200_000, mode="sampled", seed=1
            )
            return bd.unconditional_bound(prob, 0.0)

        res, peak, _ = traced(sample_and_bound)
        assert res.converged and res.n_rows == 100
        # measured 11.8 MB, against 42 MB with the rows stored
        assert peak < 16e6

    def test_sampled_problem_takes_about_a_byte_per_row(self):
        # T = 10^6 on 10 states: the path in uint8 and the weight stored
        # once.  With an int64 path, T weights and the draws as one array
        # and as a list, these were 48.5, 16.0 and 48.0 MB
        eco = random_recursive_economy(np.random.default_rng(10), 10)
        rec = mk.recover(eco)
        prob, peak, kept = traced(
            lambda: bd.generate_problem_from_chain(
                eco, rec, "arrow", horizon_t=1_000_000, mode="sampled", seed=1
            )
        )
        assert prob._index[0].dtype == np.uint8 and prob.weights.strides == (0,)
        assert peak < 4e6  # measured 2.2 MB
        assert kept < 2e6  # measured 1.0 MB
        res, peak, _ = traced(lambda: bd.unconditional_bound(prob, 0.0))
        assert res.converged and res.n_rows == 100
        assert peak < 32e6  # measured 17.1 MB, 8 MB of it the returned J


class TestPinnedMenus:
    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_pairs_menu_on_distorted_grid_equals_population(self, theta):
        # stationary transition weights from 1e-24 to 1e-1: the dual Newton
        # raised or stopped short here, while the complete menu pins J
        eco = distorted_grid_economy((0, 1))
        rec = mk.recover(eco)
        prob = bd.generate_problem_from_chain(eco, rec, "arrow_pairs")
        assert prob.weights.min() < 1e-23 and prob.weights.max() > 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = bd.unconditional_bound(prob, theta)
        pop = bd.population_discrepancy(eco, rec, theta)
        assert res.iterations == 0 and res.converged
        assert res.lambda_bar == pytest.approx(pop, rel=1e-10)
        assert res.duality_gap <= 1e-10
        live = np.nonzero(eco.transition.entries)
        np.testing.assert_allclose(res.j, rec.h_increments[live], rtol=1e-10)

    def test_pairs_menu_matches_per_claim_construction(self):
        eco = _sparse_recursive_economy(np.random.default_rng(11), 5, 0.4)
        prob = bd.generate_problem_from_chain(eco, mk.recover(eco), "arrow_pairs")
        p, q = eco.transition.entries, eco.prices.entries
        rows_i, rows_j = np.nonzero(p)
        assert rows_i.size < 25  # some transitions are not live
        y = np.zeros((rows_i.size, rows_i.size))
        prices = np.zeros_like(y)
        for a, (ai, aj) in enumerate(zip(rows_i, rows_j)):
            y[:, a] = (rows_i == ai) & (rows_j == aj)
            prices[:, a] = (rows_i == ai) * q[ai, aj]
        np.testing.assert_array_equal(prob.payoff_samples, y)
        np.testing.assert_array_equal(prob.price_samples, prices)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        zero_share=st.sampled_from([0.0, 0.3, 0.6]),
        theta=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        spanning=st.booleans(),
    )
    def test_complete_conditional_menu_is_discrepancy_without_newton(
        self, monkeypatch, seed, n, zero_share, theta, spanning
    ):
        # the Arrow menu gives each next state a claim of its own; a random
        # menu of n payoffs spans the same space without any such claim
        rng = np.random.default_rng(seed)
        eco = _sparse_recursive_economy(rng, n, zero_share)
        menu = rng.uniform(0.5, 1.5, size=(n, n)) if spanning else "arrow"
        rec = mk.recover(eco)
        with monkeypatch.context() as patch:
            newton = count_calls(patch, bd, "_dual_newton")
            cb = bd.conditional_bound(eco, rec, theta, payoff_spec=menu)
        assert newton == []
        cd = bd.conditional_discrepancy(eco, rec, theta)
        np.testing.assert_allclose(cb, cd, rtol=0, atol=1e-12)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 6),
        data=st.data(),
        theta=st.sampled_from([-1.0, 0.0, 1.0]),
    )
    def test_rank_deficient_rows_reach_newton(self, monkeypatch, seed, m, data, theta):
        # t <= m + 1 distinct rows on one line: the constraints leave J free
        t = data.draw(st.integers(3, m + 1))
        rng = np.random.default_rng(seed)
        s = rng.permutation(np.arange(1.0, t + 1.0))
        v = rng.uniform(0.5, 2.0, size=m)
        w = rng.dirichlet(np.ones(t))
        r = rng.uniform(0.9, 1.1, size=t)
        j_feasible = rng.uniform(0.5, 1.5, size=t)
        j_feasible /= w @ j_feasible
        y = s[:, None] * v
        q = (w * j_feasible / r) @ y
        prob = bd.BoundProblem(y, np.tile(q, (t, 1)), r, w)
        with monkeypatch.context() as patch:
            newton = count_calls(patch, bd, "_dual_newton")
            res = bd.unconditional_bound(prob, theta)
        assert len(newton) == 1 and res.iterations >= 1 and res.converged
        # the same constraints with the repeated payoff columns dropped
        one = bd.BoundProblem(y[:, :1], np.tile(q[:1], (t, 1)), r, w)
        assert np.max(np.abs(res.constraint_residuals)) <= 1e-10
        assert res.lambda_bar == pytest.approx(
            bd.unconditional_bound(one, theta).lambda_bar, abs=1e-9
        )

    def test_collinear_rows_newton_reaches_round_off(self):
        # test_rank_deficient_rows_reach_newton's example at seed 2, m = 2,
        # t = 3, theta = 1: max|grad| <= 1e-10 held after one step with lambda
        # 1.4e-6 relative from the one-column value; the confirming step
        # lands at round-off
        t, m = 3, 2
        rng = np.random.default_rng(2)
        s = rng.permutation(np.arange(1.0, t + 1.0))
        v = rng.uniform(0.5, 2.0, size=m)
        w = rng.dirichlet(np.ones(t))
        r = rng.uniform(0.9, 1.1, size=t)
        j_feasible = rng.uniform(0.5, 1.5, size=t)
        j_feasible /= w @ j_feasible
        y = s[:, None] * v
        q = (w * j_feasible / r) @ y
        res = bd.unconditional_bound(bd.BoundProblem(y, np.tile(q, (t, 1)), r, w), 1.0)
        one = bd.BoundProblem(y[:, :1], np.tile(q[:1], (t, 1)), r, w)
        assert res.iterations == 2
        assert res.lambda_bar == pytest.approx(
            bd.unconditional_bound(one, 1.0).lambda_bar, rel=1e-10
        )

    def test_pinned_path_taken_for_payoffs_of_any_size(self):
        # payoffs of 1e9: the pinned J's residuals are round-off relative to
        # each constraint, so the pinned path is taken, and the bound is that
        # of the same problem in units 2^30 times larger
        distinct = np.array([[3.0, 0.0], [0.0, 2.0], [1.0, 1.0]]) * 1e9
        w = np.array([0.3, 0.4, 0.3])
        j = np.array([1.2, 0.85, 1.0]) / (w @ [1.2, 0.85, 1.0])
        q = (w * j) @ distinct
        big = bd.BoundProblem(distinct, np.tile(q, (3, 1)), np.ones(3), w)
        res = bd.unconditional_bound(big, 0.0)
        small = bd.BoundProblem(distinct * 2.0**-30, np.tile(q * 2.0**-30, (3, 1)), np.ones(3), w)
        assert res.iterations == 0 and res.converged
        assert res.lambda_bar == bd.unconditional_bound(small, 0.0).lambda_bar
        np.testing.assert_allclose(res.j, j, rtol=1e-12)


class TestUnits:
    """A bound belongs to its constraint set, so the units a payoff and its
    prices are quoted in must not move it: each payoff row of the menu and
    its prices are multiplied by a factor of their own.

    A factor 2^k scales the data exactly, and the bound moves by round-off
    at most.  A factor 10^k rounds the data, which moves the true bound by
    the multipliers (about sqrt(lambda)) times that rounding, amplified by
    kappa^2, kappa the condition number of the scaled constraints: so 10^k
    is held to 1e-10 relative plus eps kappa^2 sqrt(lambda).  That floor
    matters only for bounds near 0 and for nearly dependent constraints
    (2-state menus whose R_inf is nearly constant); elsewhere it is below
    1e-10 lambda.
    """

    examples = settings(max_examples=40, deadline=None)
    draws = given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        zero_share=st.sampled_from([0.0, 0.3]),
        theta=st.sampled_from([-1.0, 0.0, 1.0]),
        data=st.data(),
    )

    @staticmethod
    def _draw(data, seed, n, zero_share):
        rng = np.random.default_rng(seed)
        eco = _sparse_recursive_economy(rng, n, zero_share)
        if data.draw(st.booleans(), label="arrow"):
            menu = np.eye(n)
        else:
            menu = rng.uniform(0.5, 1.5, size=(data.draw(st.integers(1, n), label="m"), n))
        m = menu.shape[0]
        binary = data.draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m), label="2^k")
        decimal = data.draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m), label="10^k")
        return eco, mk.recover(eco), menu, 2.0 ** np.array(binary), 10.0 ** np.array(decimal)

    @staticmethod
    def _rounding_floor(y, w, lam):
        """eps kappa^2 sqrt(lambda) of the constraints [1, y] with weights w."""
        a = np.hstack([np.ones((w.size, 1)), y])
        a = a[:, a.any(axis=0)]
        a = np.sqrt(w)[:, None] * a / (w @ np.abs(a))
        return np.finfo(float).eps * np.linalg.cond(a) ** 2 * np.sqrt(lam)

    @examples
    @draws
    def test_unconditional_bound_does_not_depend_on_units(self, seed, n, zero_share, theta, data):
        eco, rec, menu, binary, decimal = self._draw(data, seed, n, zero_share)
        prob = bd.generate_problem_from_chain(eco, rec, menu)
        want = bd.unconditional_bound(prob, theta)
        y, w = bd._grouped_rows(prob)[:2]
        rounding = self._rounding_floor(y, w, want.lambda_bar)
        for factor, rel, floor in ((binary, 1e-12, 0.0), (decimal, 1e-10, rounding)):
            got = bd.unconditional_bound(
                bd.generate_problem_from_chain(eco, rec, factor[:, None] * menu), theta
            )
            assert got.converged
            assert factor is decimal or got.iterations == want.iterations
            assert abs(got.lambda_bar - want.lambda_bar) <= rel * want.lambda_bar + floor

    @examples
    @draws
    def test_conditional_bound_does_not_depend_on_units(self, seed, n, zero_share, theta, data):
        eco, rec, menu, binary, decimal = self._draw(data, seed, n, zero_share)
        want = bd.conditional_bound(eco, rec, theta, menu)
        p, r_inf = eco.transition.entries, rec.r_inf
        rounding = np.array([
            self._rounding_floor(menu.T[live] / r_inf[i, live, None], p[i, live], want[i])
            for i, live in enumerate(p > 0)
        ])
        for factor, rel, floor in ((binary, 1e-12, 0.0), (decimal, 1e-10, rounding)):
            got = bd.conditional_bound(eco, rec, theta, factor[:, None] * menu)
            assert np.all(np.abs(got - want) <= rel * want + floor)
