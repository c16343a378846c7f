"""Unit and property tests for the finite-state recovery machinery."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from recovery_lab import markov as mk
from recovery_lab.exceptions import (
    ConvergenceError,
    ErgodicityError,
    NonPrimitiveMatrixError,
)

from conftest import (
    count_calls,
    random_economy,
    random_power_economy,
    random_transition,
    stagnation_grid_economy,
)


def dense_dominant(a):
    """Dominant eigenvalue and positive eigenvector (max entry 1) via eig."""
    vals, vecs = np.linalg.eig(a)
    k = np.argmax(vals.real)
    v = np.abs(vecs[:, k].real)
    return vals.real[k], v / v.max()


def brute_force_period(adj):
    """gcd of the closed-walk lengths k <= n, read from boolean matrix powers.

    Every cycle of an irreducible graph is a sum of simple cycles, which are
    no longer than n, so this is the period.
    """
    walk, period = np.eye(adj.shape[0], dtype=int), 0
    for k in range(1, adj.shape[0] + 1):
        walk = np.minimum(walk @ adj.astype(int), 1)
        if walk.diagonal().any():
            period = math.gcd(period, k)
    return period


@st.composite
def graph_patterns(draw):
    """Random 1-8 state patterns, some of them periodic by construction.

    A draw of d > 1 keeps only the edges from class i mod d to the next class,
    so every cycle length is a multiple of d.
    """
    n = draw(st.integers(1, 8))
    adj = draw(arrays(np.bool_, (n, n)))
    d = draw(st.integers(1, n))
    if d > 1:
        cls = np.arange(n) % d
        adj &= cls[None, :] == (cls[:, None] + 1) % d
    return adj


@st.composite
def primitive_prices(draw, repeated_values=False):
    """Random 2-12 state Q with zero entries and nonzero entries in [1e-3, 1].

    A cycle through every state and a self-loop on state 0 make it primitive.
    By default the values are uniform draws from a drawn seed.  Values drawn
    by hypothesis itself repeat (1.0, 1e-3), and repeated blocks give roots
    as close as 1e-13 apart, where no double-precision solver is accurate to
    1e-12: against a 40-digit reference, eig's vectors were off by up to
    2.5e-4 on such matrices.
    """
    n = draw(st.integers(2, 12))
    live = draw(arrays(np.bool_, (n, n)))
    live[np.arange(n), (np.arange(n) + 1) % n] = True
    live[0, 0] = True
    if repeated_values:
        values = draw(arrays(np.float64, (n, n), elements=st.floats(1e-3, 1.0)))
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(1e-3, 1.0, (n, n))
    return np.where(live, values, 0.0)


def meets_stop_rule(a, sigma, x):
    """The Perron solver's stop rule: max entry 1, max|A x - sigma x| <= 4 sqrt(n) eps sigma."""
    tol = 4.0 * np.sqrt(a.shape[0]) * np.finfo(float).eps
    return np.max(x) == 1.0 and np.max(np.abs(a @ x - sigma * x)) <= tol * sigma


# blocks of the near-reducible matrices whose largest row sum equals the
# Perron root to working precision
BLOCK_A = np.array([[0.5, 0.4], [0.3, 0.6]])
BLOCK_B = np.array([[0.45, 0.45], [0.2, 0.7]])


def joined(top, bottom, link):
    return np.block([[top, np.full((2, 2), link)], [np.full((2, 2), link), bottom]])


# on the left side sigma falls below the root after the first iterate that
# meets the stop rule, so the confirming solve is retried farther from it
RETRIED_SOLVE = np.array(
    [
        [1e-3, 1e-3, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1e-3, 0.0, 0.0, 1.0, 0.75],
        [0.0, 0.0, 0.0, 1e-3, 0.5, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 1e-3, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1e-3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-3],
        [1e-3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


# Arrow-price entries for the underflow property: zeros, subnormals whose
# products with an eigenvector ratio below one can round to zero, and normals
PATTERN_ENTRIES = st.sampled_from([0.0, 0.0, 5e-324, 1e-321, 1e-310, 1e-3, 0.3, 0.9])


class TestTypes:
    def test_transition_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            mk.StochasticMatrix([[0.9, 0.2], [0.1, 0.9]])

    def test_transition_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mk.StochasticMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_pricing_requires_primitivity(self):
        with pytest.raises(NonPrimitiveMatrixError):
            mk.PricingMatrix([[0.0, 0.9], [0.9, 0.0]])  # period-2 pattern

    def test_pricing_requires_positive_bond_price(self):
        with pytest.raises(ValueError, match="bond price"):
            mk.PricingMatrix([[0.0, 0.0], [0.5, 0.4]])

    def test_economy_consistency_enforced(self):
        p = mk.StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
        s = mk.SdfMatrix(np.full((2, 2), 0.9))
        q = mk.PricingMatrix(np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="elementwise product"):
            mk.MarkovPricingEconomy(transition=p, sdf=s, prices=q)

    def test_primitivity_detector(self):
        assert mk.is_primitive(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not mk.is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # irreducible but periodic 3-cycle
        cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert not mk.is_primitive(cyc)
        assert mk.is_primitive(cyc + np.eye(3) * 0.1)


class TestBuildEconomy:
    def test_two_state_power_utility_prices(self, power_economy):
        # independently computed elementwise product exp(-.02) * s * p
        expected = np.exp(-0.02) * np.array(
            [[0.9 * 1.0, 0.1 * 0.25], [0.1 * 4.0, 0.9 * 1.0]]
        )
        np.testing.assert_allclose(power_economy.prices.entries, expected, rtol=1e-14)
        np.testing.assert_allclose(
            power_economy.prices.entries,
            [[0.8822, 0.0245], [0.3921, 0.8822]],
            atol=5e-5,
        )

    def test_unit_sdf_gives_q_equals_p(self, two_state_transition):
        eco = mk.build_economy(two_state_transition, mk.SdfMatrix(np.ones((2, 2))))
        np.testing.assert_array_equal(eco.prices.entries, two_state_transition.entries)

    def test_zero_probability_cell_gives_zero_price(self):
        p = mk.StochasticMatrix([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        s = np.full((3, 3), 0.95)
        s[0, 2] = -123.0  # irrelevant cell, any value allowed
        eco = mk.build_economy(p, mk.SdfMatrix(s))
        assert eco.prices.entries[0, 2] == 0.0
        assert eco.sdf.entries[0, 2] == 1.0  # normalized out

    def test_dimension_mismatch(self, two_state_transition):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mk.build_economy(two_state_transition, mk.SdfMatrix(np.ones((3, 3))))

    def test_nonpositive_sdf_on_live_cell_rejected(self, two_state_transition):
        s = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="positive where"):
            mk.build_economy(two_state_transition, mk.SdfMatrix(s))


class TestRiskNeutralAndForward:
    def test_row_normalization(self, power_economy):
        rn, bond = mk.risk_neutral(power_economy.prices)
        q = power_economy.prices.entries
        np.testing.assert_allclose(bond, q.sum(axis=1), rtol=1e-15)
        np.testing.assert_allclose(bond[0], 0.9067, atol=5e-5)
        np.testing.assert_allclose(rn.entries[0], [0.9730, 0.0270], atol=5e-5)

    def test_unit_sdf_risk_neutral_is_physical(self, two_state_transition):
        eco = mk.build_economy(two_state_transition, mk.SdfMatrix(np.ones((2, 2))))
        rn, bond = mk.risk_neutral(eco.prices)
        np.testing.assert_allclose(rn.entries, two_state_transition.entries, atol=1e-15)
        np.testing.assert_allclose(bond, 1.0, atol=1e-15)

    def test_forward_horizon_one_is_risk_neutral(self, power_economy):
        rn, _ = mk.risk_neutral(power_economy.prices)
        fw = mk.forward_measure(power_economy.prices, 1)
        np.testing.assert_allclose(fw.entries, rn.entries, atol=1e-15)

    def test_forward_measures_horizon_dependent(self, power_economy):
        # state-dependent bond prices: P_bar_2 != (P_bar_1)^2
        p1 = mk.forward_measure(power_economy.prices, 1).entries
        p2 = mk.forward_measure(power_economy.prices, 2).entries
        assert np.max(np.abs(p2 - p1 @ p1)) > 1e-8

    def test_constant_bond_price_forward_compounds(self):
        # constant-row-sum prices: e_hat constant, forward measures compound
        q = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]) * 0.97
        prices = mk.PricingMatrix(q)
        p1 = mk.forward_measure(prices, 1).entries
        p5 = mk.forward_measure(prices, 5).entries
        np.testing.assert_allclose(p5, np.linalg.matrix_power(p1, 5), atol=1e-12)

    def test_forward_measure_no_overflow_long_horizon(self, power_economy):
        fw = mk.forward_measure(power_economy.prices, 5000)
        assert np.all(np.isfinite(fw.entries))

    def test_one_product_chain_matches_per_horizon_powers(self):
        prices = random_economy(np.random.default_rng(12), n=6).prices
        q = prices.entries
        walked = mk.forward_measures(prices, [7, 1, 10, 3, 7])
        assert sorted(walked) == [1, 3, 7, 10]
        for t, measure in walked.items():
            m = q.copy()
            for _ in range(t - 1):
                m = m @ q
                m /= np.max(m, axis=1, keepdims=True)
            assert np.array_equal(measure.entries, m / m.sum(axis=1, keepdims=True))
            assert np.array_equal(measure.entries, mk.forward_measure(prices, t).entries)


class TestPerronFrobenius:
    def test_power_utility_closed_form(self, power_economy):
        eta, e_hat, e_star = mk.perron_frobenius(power_economy.prices)
        assert eta == pytest.approx(-0.02, abs=1e-11)
        np.testing.assert_allclose(e_hat, [0.25, 1.0], atol=1e-11)
        assert e_star.sum() == pytest.approx(1.0, abs=1e-14)

    def test_constant_sdf(self, two_state_transition):
        eco = mk.build_economy(
            two_state_transition, mk.SdfMatrix(np.full((2, 2), np.exp(-0.05)))
        )
        eta, e_hat, _ = mk.perron_frobenius(eco.prices)
        assert eta == pytest.approx(-0.05, abs=1e-12)
        np.testing.assert_allclose(e_hat, 1.0, atol=1e-11)

    def test_against_dense_eigensolve(self):
        rng = np.random.default_rng(42)
        eco = random_economy(rng, n=5)
        eta, e_hat, e_star = mk.perron_frobenius(eco.prices)
        vals, vecs = np.linalg.eig(eco.prices.entries)
        k = np.argmax(vals.real)
        dense_e = np.abs(vecs[:, k].real)
        np.testing.assert_allclose(e_hat, dense_e / dense_e.max(), atol=1e-9)
        assert eta == pytest.approx(np.log(vals.real[k]), abs=1e-9)

    def test_residual_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            eco = random_economy(rng)
            eta, e_hat, _ = mk.perron_frobenius(eco.prices)
            resid = eco.prices.entries @ e_hat - np.exp(eta) * e_hat
            assert np.max(np.abs(resid)) <= 1e-10

    def test_nonnormal_transient_is_not_stagnation(self):
        # the left iteration's residual rises for ~160 steps before it converges
        eco = stagnation_grid_economy()
        rec = mk.recover(eco)
        radius, e_hat = dense_dominant(eco.prices.entries)
        _, e_star = dense_dominant(eco.prices.entries.T)
        assert rec.eta_hat == pytest.approx(np.log(radius), abs=1e-9)
        np.testing.assert_allclose(rec.e_hat, e_hat, atol=1e-9)
        np.testing.assert_allclose(rec.e_star, e_star / e_star.sum(), atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(primitive_prices())
    def test_matches_dense_eig_on_sparse_primitive_matrices(self, q):
        eta, e_hat, e_star = mk.perron_frobenius(mk.PricingMatrix(q))
        radius, e_ref = dense_dominant(q)
        _, e_star_ref = dense_dominant(q.T)
        assert eta == pytest.approx(np.log(radius), abs=1e-12)
        np.testing.assert_allclose(e_hat, e_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(e_star, e_star_ref / e_star_ref.sum(), rtol=0, atol=1e-12)
        assert np.all(e_hat > 0) and np.all(e_star >= 0)

    @settings(max_examples=300, deadline=None)
    @given(primitive_prices(repeated_values=True))
    @example(RETRIED_SOLVE)
    def test_meets_stop_rule_with_repeated_entries(self, q):
        for a in (q, q.T):
            sigma, x = mk._perron(a)
            assert np.all(x >= 0) and meets_stop_rule(a, sigma, x)

    def test_ill_conditioned_root_to_round_off(self):
        # the top two roots are 2e-6 apart; the first iterate to meet the stop
        # rule had e_hat off by 1.5e-10.  Reference values carry 40 digits.
        q = np.array(
            [[1.0, 1e-3, 0.0, 0.0], [0.0, 1.0, 1e-3, 0.0], [0.0, 0.0, 0.0, 1e-3], [1e-3, 0.0, 0.0, 0.0]]
        )
        eta, e_hat, e_star = mk.perron_frobenius(mk.PricingMatrix(q))
        assert eta == pytest.approx(9.999985000033333e-07, abs=1e-15)
        np.testing.assert_allclose(
            e_hat, [1.0, 9.99999000002e-4, 9.99998000005e-7, 9.99999000002e-4], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            e_star,
            [9.98001999998e-4, 0.998002997999002, 9.98001999998e-4, 9.98001001997996e-7],
            rtol=0,
            atol=1e-14,
        )

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3])
    def test_scaling_prices_shifts_only_eta(self, c):
        q = stagnation_grid_economy().prices.entries
        rec = mk.recover(mk.PricingMatrix(q))
        scaled = mk.recover(mk.PricingMatrix(c * q))
        assert scaled.eta_hat - rec.eta_hat == pytest.approx(np.log(c), abs=1e-12)
        np.testing.assert_allclose(scaled.e_hat, rec.e_hat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaled.e_star, rec.e_star, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scaled.p_hat.entries, rec.p_hat.entries, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "q",
        [
            np.array([[0.5, 0.4, 0.0], [0.0, 1e-4, 1e-3], [1e-321, 0.0, 0.9]]),
            joined(BLOCK_A, 0.99 * BLOCK_B, 1e-310),
            joined(BLOCK_A, BLOCK_A, 5e-324),
        ],
        ids=["underflow-3", "unequal-blocks", "equal-blocks"],
    )
    def test_singular_first_shift(self, q, monkeypatch):
        # the first shift is the largest row sum, here the Perron root to
        # working precision: the result meets the stop rule or fails within
        # the step guard (four solves a step at most)
        for a in (q, q.T):
            solves = count_calls(monkeypatch, np.linalg, "solve")
            try:
                sigma, x = mk._perron(a)
            except ConvergenceError:
                pass
            else:
                assert np.all(x >= 0) and meets_stop_rule(a, sigma, x)
            assert len(solves) <= 4 * (mk._PERRON_MAX_STEPS + 1)
            monkeypatch.undo()

    def test_retried_solve_to_round_off(self):
        # reference values carry 40 digits
        eta, e_hat, e_star = mk.perron_frobenius(mk.PricingMatrix(RETRIED_SOLVE))
        assert eta == pytest.approx(-4.3905397891545410057, abs=1e-14)
        e_ref = [1.08776515355596e-3, 1.23940366762487e-2, 8.07070086536439e-2, 1.0,
                 5.71342789901116e-7, 7.08124381917727e-6, 8.776519965416e-5]
        e_star_ref = [3.71901727091167e-2, 6.32041360464752e-3, 5.09955995644257e-4,
                      4.11452689270687e-5, 2.05759542267483e-2, 0.511616145102881,
                      0.423746213092035]
        np.testing.assert_allclose(e_hat, e_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(e_star, e_star_ref, rtol=0, atol=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "q",
        [
            [[1e-310, 1e-321, 0.0, 5e-324, 1e-321], [1e-3, 0.0, 0.0, 1e-310, 5e-324],
             [0.0, 1e-321, 0.0, 1e-310, 0.0], [0.3, 0.3, 0.9, 5e-324, 1e-310],
             [0.9, 0.0, 0.9, 0.3, 1e-310]],
            [[1e-321, 5e-324, 0.0, 5e-324, 1e-321], [5e-324, 1e-310, 0.0, 0.0, 1e-310],
             [1e-310, 1e-3, 1e-310, 0.3, 1e-3], [0.9, 0.3, 1e-310, 0.0, 0.3],
             [5e-324, 1e-321, 0.0, 1e-310, 5e-324]],
            [[1e-321, 1e-310, 0.0, 1e-310], [1e-3, 5e-324, 5e-324, 1e-310],
             [0.3, 1e-3, 1e-310, 0.3], [1e-321, 0.3, 5e-324, 5e-324]],
        ],
        ids=["root-5e-82", "root-8e-156", "root-3e-105"],
    )
    def test_root_near_underflow_raises(self, q):
        # rows of subnormal entries put the Perron root far below the entries
        # (1e-82 and less by 1500-digit eig); round-off drives sigma to zero
        # or below, and no iterate may be returned as converged
        with pytest.raises(ConvergenceError):
            mk.perron_frobenius(mk.PricingMatrix(q))

    @pytest.mark.filterwarnings("error")
    def test_subnormal_eigenvector_entries(self):
        # the root is the 1e-3 self-loop; e_hat has entries near 1e-310 and
        # 1e-321, and a solve that round-off leaves negative is retried
        q = np.array(
            [[1e-310, 0.0, 1e-310, 1e-310], [0.9, 1e-310, 0.0, 0.9],
             [1e-310, 1e-321, 1e-321, 1e-321], [0.3, 5e-324, 5e-324, 1e-3]]
        )
        eta, _, _ = mk.perron_frobenius(mk.PricingMatrix(q))
        assert eta == pytest.approx(np.log(1e-3), abs=1e-13)
        for a in (q, q.T):
            sigma, x = mk._perron(a)
            assert meets_stop_rule(a, sigma, x)

    def test_debug_log_reports_each_side(self, power_economy, caplog):
        with caplog.at_level(logging.DEBUG, logger="recovery_lab.markov"):
            mk.perron_frobenius(power_economy.prices)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        for message in messages:
            assert message.startswith("Perron: n=2, ")
            assert "Noda steps, relative residual" in message
            assert "relative Collatz-Wielandt bracket" in message


class TestRecover:
    def test_power_utility_recovers_transition(self, power_economy, two_state_transition):
        rec = mk.recover(power_economy)
        np.testing.assert_allclose(
            rec.p_hat.entries, two_state_transition.entries, atol=1e-12
        )
        np.testing.assert_allclose(rec.h_increments, 1.0, atol=1e-11)

    def test_recursive_utility_closed_form(
        self, recursive_economy, recursive_value, two_state_transition
    ):
        rec = mk.recover(recursive_economy)
        p = two_state_transition.entries
        vstar = recursive_value.v_star
        closed = p * vstar[None, :] / (p @ vstar)[:, None]
        np.testing.assert_allclose(rec.p_hat.entries, closed, atol=1e-10)

    def test_constant_sdf_trivial(self, two_state_transition):
        eco = mk.build_economy(
            two_state_transition, mk.SdfMatrix(np.full((2, 2), np.exp(-0.03)))
        )
        rec = mk.recover(eco)
        np.testing.assert_allclose(rec.p_hat.entries, two_state_transition.entries, atol=1e-12)

    def test_prices_only_has_no_martingale_increments(self, power_economy):
        rec = mk.recover(power_economy.prices)
        assert rec.h_increments is None

    def test_martingale_normalization(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            eco = random_economy(rng)
            rec = mk.recover(eco)
            row = (rec.h_increments * eco.transition.entries).sum(axis=1)
            np.testing.assert_allclose(row, 1.0, atol=1e-12)

    def test_reprice_identity(self):
        # p_hat_ij * s_hat_ij reproduces q_ij with s_hat from the eigenpair
        rng = np.random.default_rng(12)
        for _ in range(20):
            eco = random_economy(rng)
            rec = mk.recover(eco)
            e = rec.e_hat
            s_hat = np.exp(rec.eta_hat) * e[:, None] / e[None, :]
            np.testing.assert_allclose(
                rec.p_hat.entries * s_hat, eco.prices.entries, atol=1e-12
            )

    def test_horizon_consistency(self):
        # recovery from Q^t returns (t eta, same e) and p_hat compounds
        rng = np.random.default_rng(13)
        eco = random_economy(rng, n=4)
        rec1 = mk.recover(eco.prices)
        for t in (2, 5, 10):
            prices_t = mk.PricingMatrix(np.linalg.matrix_power(eco.prices.entries, t))
            rec_t = mk.recover(prices_t)
            assert rec_t.eta_hat == pytest.approx(t * rec1.eta_hat, abs=1e-10)
            np.testing.assert_allclose(rec_t.e_hat, rec1.e_hat, atol=1e-10)
            np.testing.assert_allclose(
                rec_t.p_hat.entries,
                np.linalg.matrix_power(rec1.p_hat.entries, t),
                atol=1e-10,
            )

    def test_sparse_economy_zero_cells_excluded(self):
        # primitive ring-with-self-loops pattern: zero cells must stay priced
        # at zero, carry unit martingale increments, and never enter sums
        p = mk.StochasticMatrix(
            [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        )
        rng = np.random.default_rng(19)
        s = np.exp(rng.normal(-0.02, 0.2, size=(3, 3)))
        eco = mk.build_economy(p, mk.SdfMatrix(s))
        rec = mk.recover(eco)
        dead = p.entries == 0
        assert np.all(eco.prices.entries[dead] == 0.0)
        assert np.all(rec.p_hat.entries[dead] == 0.0)
        np.testing.assert_array_equal(rec.h_increments[dead], 1.0)
        np.testing.assert_allclose(
            (rec.h_increments * p.entries).sum(axis=1), 1.0, atol=1e-12
        )
        b = mk.log_return_bound_check(eco)
        assert np.all(b.slack >= -1e-12)

    def test_underflow_that_breaks_the_pattern_is_caught(self):
        # p_hat[2, 0] = 1e-321 * e_0 / (0.9 e_2) rounds to zero, which cuts
        # the only path back to state 0
        q = mk.PricingMatrix([[0.5, 0.4, 0.0], [0.0, 1e-4, 1e-3], [1e-321, 0.0, 0.9]])
        with pytest.raises(ErgodicityError, match="irreducible=False"):
            mk.recover(q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=PATTERN_ENTRIES)
        )
    )
    def test_ergodicity_error_iff_graph_check_fails(self, q):
        # a normal entry in every row keeps the spectral radius itself normal
        assume(mk.is_primitive(q) and q.sum(axis=1).min() >= 1e-3)
        prices = mk.PricingMatrix(q)
        try:
            eta, e_hat, _ = mk.perron_frobenius(prices)
        except ConvergenceError:
            assume(False)  # dominant eigenvalue numerically multiple
        with np.errstate(all="ignore"):  # an underflowed e_hat entry gives inf
            p_hat = np.exp(-eta) * q * (e_hat[None, :] / e_hat[:, None])
            p_hat /= p_hat.sum(axis=1, keepdims=True)
        assume(np.all(np.isfinite(p_hat)))
        if mk.ergodicity_check(mk.StochasticMatrix(p_hat)).ok:
            mk.recover(prices)
        else:
            with pytest.raises(ErgodicityError):
                mk.recover(prices)

    def test_ross_form_iff_unit_martingale(self):
        # distorting a unit-martingale economy by increments h recovers 1/h
        rng = np.random.default_rng(14)
        eco, _ = random_power_economy(rng, n=4)
        rec = mk.recover(eco)
        np.testing.assert_allclose(rec.h_increments, 1.0, atol=1e-10)
        h_raw = rng.uniform(0.5, 2.0, size=(4, 4))
        p = eco.transition.entries
        h = h_raw / (p * h_raw).sum(axis=1, keepdims=True)
        distorted = mk.build_economy(
            mk.StochasticMatrix(p * h), mk.SdfMatrix(eco.sdf.entries / h)
        )
        rec2 = mk.recover(distorted)
        np.testing.assert_allclose(rec2.h_increments, 1.0 / h, atol=1e-9)


class TestSdfDecomposition:
    def test_unit_sdf_all_factors_one(self, two_state_transition):
        eco = mk.build_economy(two_state_transition, mk.SdfMatrix(np.ones((2, 2))))
        d = mk.sdf_decomposition(eco, [0, 1, 0, 0])
        assert d.trend == pytest.approx(1.0, abs=1e-12)
        assert d.eigen_ratio == pytest.approx(1.0, abs=1e-11)
        assert d.martingale == pytest.approx(1.0, abs=1e-11)

    def test_path_product_matches_accumulated_sdf(self, recursive_economy):
        path = [0, 1, 1, 0]
        d = mk.sdf_decomposition(recursive_economy, path)
        s = recursive_economy.sdf.entries
        direct = np.prod([s[a, b] for a, b in zip(path[:-1], path[1:])])
        assert d.product == pytest.approx(direct, rel=1e-10)

    def test_power_utility_martingale_factor_is_one(self, power_economy):
        rng = np.random.default_rng(0)
        for _ in range(10):
            path = rng.integers(0, 2, size=6).tolist()
            d = mk.sdf_decomposition(power_economy, path)
            assert d.martingale == pytest.approx(1.0, abs=1e-10)

    def test_zero_price_step_rejected(self):
        p = mk.StochasticMatrix([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        eco = mk.build_economy(p, mk.SdfMatrix(np.full((3, 3), 0.95)))
        with pytest.raises(ValueError, match="zero Arrow price"):
            mk.sdf_decomposition(eco, [0, 2])


class TestLongMaturityLimits:
    def test_constant_sdf_holding_period_return(self, two_state_transition):
        delta = 0.04
        eco = mk.build_economy(
            two_state_transition, mk.SdfMatrix(np.full((2, 2), np.exp(-delta)))
        )
        r = mk.holding_period_return_limit(eco)
        np.testing.assert_allclose(r, np.exp(delta), atol=1e-11)

    def test_holding_period_return_is_the_recovery_r_inf(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        np.testing.assert_array_equal(
            mk.holding_period_return_limit(recursive_economy), rec.r_inf
        )
        # the repricing identity: R_inf_ij = p_hat_ij / q_ij
        q = recursive_economy.prices.entries
        np.testing.assert_allclose(rec.r_inf, rec.p_hat.entries / q, rtol=1e-12)

    def test_finite_maturity_convergence(self):
        rng = np.random.default_rng(21)
        eco = random_economy(rng, n=5)
        closed_form = mk.holding_period_return_limit(eco)
        q = eco.prices.entries
        b_prev = np.linalg.matrix_power(q, 199) @ np.ones(5)
        b_now = np.linalg.matrix_power(q, 200) @ np.ones(5)
        # R^tau on transition i -> j is [Q^{tau-1} 1]_j / [Q^tau 1]_i
        finite = b_prev[None, :] / b_now[:, None]
        np.testing.assert_allclose(finite, closed_form, atol=1e-8)

    def test_kazemi_inverse_return_prices(self, power_economy):
        # unit martingale: (S_{t+1}/S_t) * R_inf = 1 on every transition
        r = mk.holding_period_return_limit(power_economy)
        prod = power_economy.sdf.entries * r
        live = power_economy.transition.entries > 0
        np.testing.assert_allclose(prod[live], 1.0, atol=1e-10)

    def test_forward_one_period_limit_converges(self):
        rng = np.random.default_rng(22)
        eco = random_economy(rng, n=5)
        rec = mk.recover(eco)
        lim = mk.forward_one_period_limit(eco, 200)
        assert np.max(np.abs(lim - rec.p_hat.entries)) <= 1e-8

    def test_forward_one_period_limit_constant_sdf(self, two_state_transition):
        eco = mk.build_economy(
            two_state_transition, mk.SdfMatrix(np.full((2, 2), np.exp(-0.02)))
        )
        rn, _ = mk.risk_neutral(eco.prices)
        for tau in (2, 7, 30):
            lim = mk.forward_one_period_limit(eco, tau)
            np.testing.assert_allclose(lim, rn.entries, atol=1e-11)

    def test_distance_decreases_with_maturity(self):
        rng = np.random.default_rng(23)
        eco = random_economy(rng, n=4)
        rec = mk.recover(eco)
        d2 = np.max(np.abs(mk.forward_one_period_limit(eco, 2) - rec.p_hat.entries))
        d50 = np.max(np.abs(mk.forward_one_period_limit(eco, 50) - rec.p_hat.entries))
        assert d50 < d2

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(24)
        eco = random_economy(rng, n=4)
        lim = mk.forward_one_period_limit(eco, 3)
        np.testing.assert_allclose(lim.sum(axis=1), 1.0, atol=1e-12)


class TestYieldCurve:
    def test_unit_sdf_unit_payoff_zero_yields(self, two_state_transition):
        eco = mk.build_economy(two_state_transition, mk.SdfMatrix(np.ones((2, 2))))
        y = mk.yield_curve(eco, np.ones(2), [1, 5, 20], measure="P")
        np.testing.assert_allclose(y, 0.0, atol=1e-13)

    def test_stationary_payoff_limit_is_minus_eta(self):
        # near-constant discount factors: the eigenvector correction is tiny
        rng = np.random.default_rng(31)
        p = random_transition(rng, 3)
        s = np.exp(-0.02) * (1.0 + 1e-4 * rng.uniform(-1, 1, size=(3, 3)))
        eco = mk.build_economy(p, mk.SdfMatrix(s))
        rec = mk.recover(eco)
        for measure in ("P", "P_hat"):
            y = mk.yield_curve(eco, np.ones(3), [500], measure=measure)
            np.testing.assert_allclose(y[0], -rec.eta_hat, atol=1e-6)

    def test_growing_cash_flow_limits(self):
        # under P_hat the limiting yield is -eta_hat; under P it is the gap
        # between the growth rate of G and of the SG pricing operator
        rng = np.random.default_rng(32)
        eco = random_economy(rng, n=4)
        rec = mk.recover(eco)
        g = np.exp(rng.normal(0.01, 0.05, size=(4, 4)))
        t = 4000
        y_hat = mk.yield_curve(eco, g, [t], measure="P_hat")[0]
        np.testing.assert_allclose(y_hat, -rec.eta_hat, atol=1e-3)

        def growth_rate(m):
            vals = np.linalg.eigvals(m)
            return np.log(np.max(vals.real))

        eta_g = growth_rate(eco.transition.entries * g)
        eta_sg = growth_rate(eco.prices.entries * g)
        y_p = mk.yield_curve(eco, g, [t], measure="P")[0]
        np.testing.assert_allclose(y_p, eta_g - eta_sg, atol=1e-3)

    def test_brute_force_path_enumeration_oracle(self):
        # independent oracle: sum over all length-3 state paths
        rng = np.random.default_rng(33)
        eco = random_economy(rng, n=2)
        g = np.exp(rng.normal(0.02, 0.1, size=(2, 2)))
        psi = np.ones(2)
        t = 3
        p, q = eco.transition.entries, eco.prices.entries
        p_hat = mk.recover(eco).p_hat.entries
        for measure, mnum in (("P", p), ("P_hat", p_hat)):
            got = mk.yield_curve(eco, g, [t], measure=measure)[0]
            for start in range(2):
                num = den = 0.0
                for a in range(2):
                    for b in range(2):
                        for c in range(2):
                            path = [start, a, b, c]
                            growth = np.prod([g[i, j] for i, j in zip(path, path[1:])])
                            num += np.prod([mnum[i, j] for i, j in zip(path, path[1:])]) * growth
                            den += np.prod([q[i, j] for i, j in zip(path, path[1:])]) * growth
                expected = (np.log(num) - np.log(den)) / t
                assert got[start] == pytest.approx(expected, abs=1e-13)

    def test_gaussian_functional_reduces_to_increment_matrix(self, power_economy):
        n = 2
        gaf = mk.GaussianAugmentedFunctional(
            beta_bar=np.array([0.01, 0.02]),
            alpha_bar=np.hstack([np.zeros((n, n)), np.array([[0.1], [0.3]])]),
        )
        g = mk.conditional_increment_matrix(gaf, power_economy.transition)
        expected = np.exp(np.array([0.01 + 0.005, 0.02 + 0.045]))[:, None] * np.ones((2, 2))
        np.testing.assert_allclose(g, expected, rtol=1e-14)
        y1 = mk.yield_curve(power_economy, gaf, [3], measure="P")
        y2 = mk.yield_curve(power_economy, g, [3], measure="P")
        np.testing.assert_allclose(y1, y2, atol=1e-14)

    def test_growth_underflow_that_breaks_primitivity_rejected(self):
        # q[1, 0] * growth[1, 0] = 1e-300 * 1e-30 rounds to zero, leaving
        # state 0 unreachable
        transition = mk.StochasticMatrix([[0.0, 1.0], [1e-300, 1.0]])
        eco = mk.build_economy(transition, mk.SdfMatrix(np.ones((2, 2))))
        growth = np.array([[1.0, 1.0], [1e-30, 1.0]])
        with pytest.raises(NonPrimitiveMatrixError, match="growth-compounded"):
            mk.yield_curve(eco, growth, [1, 2])

    def test_horizon_zero_rejected(self, power_economy):
        with pytest.raises(ValueError, match="positive"):
            mk.yield_curve(power_economy, np.ones(2), [0])


class TestLogReturnBound:
    def test_equality_for_unit_martingale(self, power_economy):
        b = mk.log_return_bound_check(power_economy)
        np.testing.assert_allclose(b.slack, 0.0, atol=1e-12)

    def test_strict_slack_for_recursive_economy(self, recursive_economy):
        b = mk.log_return_bound_check(recursive_economy)
        assert np.all(b.slack >= -1e-12)
        assert np.max(b.slack) > 1e-4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bound_never_violated(self, seed):
        eco = random_economy(np.random.default_rng(seed))
        b = mk.log_return_bound_check(eco)
        assert np.all(b.slack >= -1e-12)


class TestExtendedFamily:
    def _setup(self, seed=7, n=3, k=2):
        rng = np.random.default_rng(seed)
        transition = random_transition(rng, n)
        y = mk.GaussianAugmentedFunctional(
            beta_bar=rng.normal(0.0, 0.02, size=n),
            alpha_bar=np.hstack(
                [rng.normal(0, 0.1, (n, n)), rng.normal(0, 0.2, (n, k))]
            ),
        )
        m_tilde = rng.uniform(0.5, 1.5, size=n)
        eco, a_s = mk.ross_extended_economy(
            transition, m_tilde, delta=0.03, zeta=0.8, y_spec=y
        )
        return transition, y, eco, a_s

    def test_zeta_zero_reduces_to_recover(self):
        _, y, eco, a_s = self._setup()
        rec = mk.recover(eco)
        ext = mk.extended_pf_family(eco, y, 0.0, sdf_gaussian_loading=a_s)
        np.testing.assert_allclose(ext.p_hat.entries, rec.p_hat.entries, atol=1e-12)
        assert ext.eta == pytest.approx(rec.eta_hat, abs=1e-12)

    def test_inversion_at_true_zeta(self):
        transition, y, eco, a_s = self._setup()
        ext = mk.extended_pf_family(eco, y, 0.8, sdf_gaussian_loading=a_s)
        np.testing.assert_allclose(ext.p_hat.entries, transition.entries, atol=1e-10)
        assert ext.eta == pytest.approx(-0.03, abs=1e-10)

    def test_family_multiplicity(self):
        _, y, eco, a_s = self._setup()
        e1 = mk.extended_pf_family(eco, y, 0.3, sdf_gaussian_loading=a_s)
        e2 = mk.extended_pf_family(eco, y, 1.3, sdf_gaussian_loading=a_s)
        assert abs(e1.eta - e2.eta) > 1e-6
        assert np.max(np.abs(e1.p_hat.entries - e2.p_hat.entries)) > 1e-6

    def test_vector_zeta_two_blocks(self):
        rng = np.random.default_rng(9)
        transition = random_transition(rng, 3)
        blocks = [
            mk.GaussianAugmentedFunctional(
                beta_bar=rng.normal(0, 0.02, 3),
                alpha_bar=np.hstack(
                    [np.zeros((3, 3)), rng.normal(0, 0.15, (3, 2))]
                ),
            )
            for _ in range(2)
        ]
        zeta = np.array([0.5, -0.7])
        m_tilde = rng.uniform(0.7, 1.3, 3)
        eco, a_s = mk.ross_extended_economy(transition, m_tilde, 0.02, zeta, blocks)
        ext = mk.extended_pf_family(eco, blocks, zeta, sdf_gaussian_loading=a_s)
        np.testing.assert_allclose(ext.p_hat.entries, transition.entries, atol=1e-10)

    def test_one_right_eigensolve(self, monkeypatch):
        _, y, eco, a_s = self._setup()
        calls = count_calls(monkeypatch, mk, "_perron")
        mk.extended_pf_family(eco, y, 0.8, sdf_gaussian_loading=a_s)
        assert len(calls) == 1

    def test_no_primitivity_recheck(self, monkeypatch):
        # Q_zeta has Q's zero pattern, so Q's primitivity carries over
        _, y, eco, a_s = self._setup()
        calls = count_calls(monkeypatch, mk, "is_primitive")
        mk.extended_pf_family(eco, y, 0.8, sdf_gaussian_loading=a_s)
        assert calls == []


class TestStructuredRecovery:
    def test_unit_reference_reduces_to_recover(self):
        rng = np.random.default_rng(41)
        eco = random_economy(rng, n=4)
        rec = mk.recover(eco)
        sr = mk.structured_recover(eco, np.ones((4, 4)))
        np.testing.assert_allclose(sr.p_tilde.entries, rec.p_hat.entries, atol=1e-12)
        assert sr.delta == pytest.approx(-rec.eta_hat, abs=1e-12)

    def test_habit_style_round_trip(self):
        rng = np.random.default_rng(42)
        n, gamma, delta = 4, 3.0, 0.025
        transition = random_transition(rng, n)
        c = rng.uniform(0.5, 2.0, size=n)
        m = rng.uniform(0.5, 2.0, size=n)
        g_r = (c[None, :] / c[:, None]) ** (-gamma)
        s = np.exp(-delta) * g_r * (m[None, :] / m[:, None])
        eco = mk.build_economy(transition, mk.SdfMatrix(s))
        sr = mk.structured_recover(eco, g_r)
        np.testing.assert_allclose(sr.p_tilde.entries, transition.entries, atol=1e-10)
        assert sr.delta == pytest.approx(delta, abs=1e-10)

    def test_one_right_eigensolve(self, power_economy, monkeypatch):
        calls = count_calls(monkeypatch, mk, "_perron")
        mk.structured_recover(power_economy, np.ones((2, 2)))
        assert len(calls) == 1

    def test_no_primitivity_recheck(self, power_economy, monkeypatch):
        calls = count_calls(monkeypatch, mk, "is_primitive")
        mk.structured_recover(power_economy, np.full((2, 2), 1.1))
        assert calls == []

    def test_underflow_that_breaks_the_pattern_is_caught(self):
        # p_tilde[2, 0] rounds to zero as in the matching recover test
        q = mk.PricingMatrix([[0.5, 0.4, 0.0], [0.0, 1e-4, 1e-3], [1e-321, 0.0, 0.9]])
        with pytest.raises(ErgodicityError, match="irreducible=False"):
            mk.structured_recover(q, np.ones((3, 3)))

    def test_zero_reference_on_live_cell_rejected(self, power_economy):
        g = np.ones((2, 2))
        g[0, 1] = 0.0
        with pytest.raises(ValueError, match="positive wherever"):
            mk.structured_recover(power_economy, g)


class TestErgodicityCheck:
    def test_mixing_chain_passes(self, two_state_transition):
        assert mk.ergodicity_check(two_state_transition).ok

    def test_permutation_fails_aperiodicity(self):
        rep = mk.ergodicity_check(mk.StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert rep.irreducible and not rep.aperiodic and rep.period == 2

    def test_block_diagonal_fails_irreducibility(self):
        block = np.kron(np.eye(2), np.full((2, 2), 0.5))
        rep = mk.ergodicity_check(mk.StochasticMatrix(block))
        assert not rep.irreducible and rep.n_classes == 2

    def test_dense_chain_and_long_cycle(self):
        dense = mk.StochasticMatrix(np.full((500, 500), 1.0 / 500))
        assert mk.ergodicity_check(dense) == mk.ErgodicityReport(True, True, 1, 1)
        cycle = mk.StochasticMatrix(np.roll(np.eye(500), 1, axis=1))
        assert mk.ergodicity_check(cycle) == mk.ErgodicityReport(True, False, 1, 500)

    def test_primitivity_guard_counts_no_classes(self, monkeypatch):
        # 500-state path into an absorbing state, derived from a dense Q: the
        # guard reads only whether the graph is primitive
        path = np.eye(500, k=1)
        path[-1, -1] = 1.0
        calls = count_calls(monkeypatch, mk, "_bfs_levels")
        with pytest.raises(NonPrimitiveMatrixError, match="irreducible=False"):
            mk._require_primitive(path, np.ones((500, 500)), "derived matrix")
        assert len(calls) <= 2

    def test_path_with_absorbing_end_counts_every_state(self):
        path = np.eye(500, k=1)
        path[-1, -1] = 1.0
        rep = mk.ergodicity_check(mk.StochasticMatrix(path))
        assert rep == mk.ErgodicityReport(False, False, 500, 0)

    @settings(max_examples=300, deadline=None)
    @given(graph_patterns())
    def test_matches_reference_on_random_patterns(self, adj):
        from scipy.sparse.csgraph import connected_components

        n_classes, _ = connected_components(adj, directed=True, connection="strong")
        rep = mk._graph_report(adj)
        assert rep.n_classes == n_classes
        assert rep.irreducible == (n_classes == 1)
        assert rep.period == (brute_force_period(adj) if rep.irreducible else 0)
        assert rep.aperiodic == (rep.period == 1)
        if adj.any(axis=1).all():  # a transition matrix has no zero row
            p = mk.StochasticMatrix(adj / adj.sum(axis=1, keepdims=True))
            assert mk.ergodicity_check(p) == rep


class TestEnumeratePositiveEigen:
    def test_exactly_one_candidate_for_primitive(self):
        rng = np.random.default_rng(51)
        eco = random_economy(rng, n=5)
        cands = mk.enumerate_positive_eigen(eco.prices)
        assert len([c for c in cands if not c.borderline]) == 1

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(52)
        eco = random_economy(rng, n=5)
        eta, e_hat, _ = mk.perron_frobenius(eco.prices)
        (cand,) = mk.enumerate_positive_eigen(eco.prices)
        assert cand.eta == pytest.approx(eta, abs=1e-9)
        np.testing.assert_allclose(cand.vector, e_hat, atol=1e-9)

    def test_constant_sdf_candidate_constant(self, two_state_transition):
        eco = mk.build_economy(
            two_state_transition, mk.SdfMatrix(np.full((2, 2), 0.95))
        )
        (cand,) = mk.enumerate_positive_eigen(eco.prices)
        np.testing.assert_allclose(cand.vector, 1.0, atol=1e-12)

    def test_borderline_candidates_reported_not_dropped(self):
        # with a coarse zero threshold, a mixed-sign eigenvector whose small
        # entries fall below it is classified by the remaining signs and
        # flagged, rather than silently discarded
        # lopsided off-diagonals give a subdominant eigenvector (-0.2, 1)
        eco = mk.build_economy(
            mk.StochasticMatrix([[0.9, 0.1], [0.1, 0.9]]),
            mk.SdfMatrix(np.array([[1.0, 0.02], [0.5, 1.0]]) * 0.97),
        )
        strict = mk.enumerate_positive_eigen(eco.prices)
        assert len(strict) == 1 and not strict[0].borderline
        coarse = mk.enumerate_positive_eigen(eco.prices, zero_tol=0.5)
        flagged = [c for c in coarse if c.borderline]
        assert len(coarse) == 2
        assert len(flagged) == 1
        # the genuine dominant pair is still the non-borderline one
        eta, _, _ = mk.perron_frobenius(eco.prices)
        clean = [c for c in coarse if not c.borderline]
        assert clean[0].eta == pytest.approx(eta, abs=1e-9)


class TestEquivalentRepresentations:
    def test_market_equivalence_under_martingale_distortion(self):
        # (S H0/H, P^H) prices one- and two-period claims like (S, P)
        rng = np.random.default_rng(61)
        for _ in range(10):
            eco = random_economy(rng, n=4)
            p = eco.transition.entries
            h_raw = rng.uniform(0.3, 3.0, size=(4, 4))
            h = h_raw / (p * h_raw).sum(axis=1, keepdims=True)
            distorted = mk.build_economy(
                mk.StochasticMatrix(p * h), mk.SdfMatrix(eco.sdf.entries / h)
            )
            q1, q2 = eco.prices.entries, distorted.prices.entries
            np.testing.assert_allclose(q1, q2, atol=1e-12)
            np.testing.assert_allclose(q1 @ q1, q2 @ q2, atol=1e-12)

    def test_ross_condition_recovers_construction_transition(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            transition = random_transition(rng, n)
            m = rng.uniform(0.4, 2.5, size=n)
            delta = float(rng.uniform(0.0, 0.1))
            s = np.exp(-delta) * m[:, None] / m[None, :]
            eco = mk.build_economy(transition, mk.SdfMatrix(s))
            rec = mk.recover(eco)
            np.testing.assert_allclose(rec.p_hat.entries, transition.entries, atol=1e-11)

    def test_stationary_payoff_growth_vanishes_under_recovered_measure(self):
        # (1/N) log E_hat[psi(X_N) | x] -> 0 for bounded positive psi
        rng = np.random.default_rng(63)
        eco = random_economy(rng, n=4)
        rec = mk.recover(eco)
        psi = rng.uniform(0.5, 2.0, size=4)
        n_steps = 1000
        val = np.linalg.matrix_power(rec.p_hat.entries, n_steps) @ psi
        assert np.max(np.abs(np.log(val) / n_steps)) <= 1e-3


class TestStationaryHelpers:
    def test_stationary_distribution_fixed_point(self):
        rng = np.random.default_rng(71)
        t = random_transition(rng, 5)
        pi = mk.stationary_distribution(t)
        np.testing.assert_allclose(pi @ t.entries, pi, atol=1e-13)
        assert pi.sum() == pytest.approx(1.0)

    def test_h0_stationary_reweights_initial_law(self, recursive_economy):
        rec = mk.recover(recursive_economy)
        h0 = mk.h0_stationary(recursive_economy, rec)
        pi = mk.stationary_distribution(recursive_economy.transition)
        pi_hat = mk.stationary_distribution(rec.p_hat)
        assert pi @ h0 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pi * h0, pi_hat, atol=1e-13)


class TestJsonInterface:
    def test_economy_round_trip(self, power_economy):
        payload = mk.economy_to_dict(power_economy)
        rebuilt = mk.economy_from_dict(payload)
        np.testing.assert_allclose(
            rebuilt.prices.entries, power_economy.prices.entries, atol=1e-15
        )

    def test_prices_only_payload(self, power_economy):
        src = mk.economy_from_dict(
            {"prices": power_economy.prices.entries.tolist()}
        )
        assert isinstance(src, mk.PricingMatrix)

    def test_recovery_payload_fields(self, power_economy):
        rec = mk.recover(power_economy)
        payload = mk.recovery_to_dict(rec)
        assert set(payload) == {"eta_hat", "e_hat", "e_star", "p_hat", "h_increments"}

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            mk.economy_from_dict({"transition": [[1.0]]})
