"""Divergence measurement of the martingale component of a discount factor.

The Cressie-Read family

    phi_theta(r) = (r^(1+theta) - 1) / (theta (1+theta)),
    phi_0(r) = r log r,       phi_{-1}(r) = -log r,

is normalized so phi_theta(1) = 0 and phi_theta''(1) = 1.  Applied to the
martingale increments h_hat of a recovery, the conditional expectation
E[phi_theta(h_hat) | x] is an exact per-state discrepancy on a finite chain.

When only a menu of payoffs Y_{t+1}, their prices Q_t and the long-bond
return R_inf are observed, a lower bound comes from the convex program

    lambda_bar = inf over J >= 0 of E[phi_theta(J)]
    s.t.  E[J] = 1  and  E[J Y' / R_inf - Q'] = 0,

solved through its smooth concave dual: maximize over multipliers (mu, lam)

    g(mu, lam) = mu + lam . E[Q] - E[ phi*(mu + lam . Y / R_inf) ]

with phi* the convex conjugate of phi_theta on J >= 0.  The maximizer's
first-order condition J = phi*'(z) recovers the primal solution, clipped at
zero exactly where the conjugate's form demands it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import ConvergenceError, InfeasibleProblemError
from .markov import (
    MarkovPricingEconomy,
    RecoveredMeasure,
    stationary_distribution,
)

__all__ = [
    "BoundProblem",
    "BoundResult",
    "phi",
    "conditional_discrepancy",
    "conditional_bound",
    "population_discrepancy",
    "unconditional_bound",
    "kazemi_test",
    "generate_problem_from_chain",
    "problem_to_csv",
    "problem_from_csv",
]

_GRAD_TOL = 1e-10
_ROUND_ULPS = 8.0
_CONFIRM_ULPS = 64.0
_MAX_NEWTON = 200
_UNBOUNDED_NORM = 1e10
_PINNED_RTOL = 1e-8
_WALK_CHUNK = 1 << 14  # uniform draws taken from the generator and walked at a time


def _check_theta(theta: float) -> None:
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")


def phi(theta: float, r) -> Union[float, NDArray[np.float64]]:
    """Power divergence kernel; r may be a scalar or an array.

    r = 0 is admitted for theta >= 0 (continuous extension); for theta < 0
    the kernel is undefined at 0 and a ValueError is raised.
    """
    _check_theta(theta)
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise ValueError("phi is defined on nonnegative arguments only")
    if np.any(arr == 0) and theta < 0:
        raise ValueError(f"phi with theta={theta} is undefined at r=0")
    # the generic formula cancels catastrophically next to its two poles;
    # switch to the limit kernels there (error is O(theta), below round-off
    # of the division at the 1e-8 threshold)
    if abs(theta) < 1e-8:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(arr > 0, arr * np.log(np.where(arr > 0, arr, 1.0)), 0.0)
    elif abs(1.0 + theta) < 1e-8:
        out = -np.log(arr)
    else:
        out = (arr ** (1.0 + theta) - 1.0) / (theta * (1.0 + theta))
    return float(out) if np.isscalar(r) else out


def _expm1_over(s: float, x):
    """expm1(s x) / s, with its limit x at s = 0."""
    return x if s == 0.0 else np.expm1(s * x) / s


def _phi_tilde(theta: float, r: NDArray[np.float64]) -> NDArray[np.float64]:
    """phi~(r) = phi(r) - phi'(1) (r - 1), which equals phi on E[J] = 1.

    The bounds use phi~: phi~(1) = phi~'(1) = 0 leaves no 1 / theta to
    cancel.  It is (r (r^theta - 1) / theta - (r - 1)) / (1 + theta) for
    theta > -1/2, stable at theta = 0, and ((r^(1+theta) - 1) / (1 + theta)
    - (r - 1)) / theta otherwise, stable at theta = -1.  At theta = 1 it is
    (r - 1)^2 / 2, which also extends phi to r < 0.
    """
    if theta == 1.0:
        return 0.5 * (r - 1.0) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(r)
        if theta > -0.5:
            # r = 0 (theta >= 0) contributes r (r^theta - 1) / theta = 0
            rise = np.where(r > 0, r * _expm1_over(theta, log_r), 0.0)
            return (rise - (r - 1.0)) / (1.0 + theta)
        return (_expm1_over(1.0 + theta, log_r) - (r - 1.0)) / theta


def _phi_conj(theta: float, z: NDArray[np.float64], nonnegative: bool):
    """Conjugate phi~*(z), its derivative (the primal J) and second derivative.

    With l = log1p(theta z) / theta (z at theta = 0), J = exp(l) and phi~* =
    expm1((1 + theta) l) / (1 + theta), one form continuous in theta.  For
    theta > 0 the conjugate over J >= 0 is flat where theta z <= -1 (J = 0);
    for theta < 0 leaving its domain theta z > -1 raises FloatingPointError.
    ``nonnegative=False`` drops J >= 0, only meaningful for theta = 1 where
    phi extends to negative arguments.
    """
    if not nonnegative:
        if theta != 1.0:
            raise ValueError("negative J only makes sense for theta = 1")
        return z + 0.5 * z**2, 1.0 + z, np.ones_like(z)
    tz = theta * z
    if theta < 0 and np.any(tz <= -1.0):
        raise FloatingPointError("multiplier combination left the dual domain")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_j = z if theta == 0.0 else np.log1p(np.maximum(tz, -1.0)) / theta
        curv = np.where(tz > -1.0, np.exp((1.0 - theta) * log_j), 0.0)
        return _expm1_over(1.0 + theta, log_j), np.exp(log_j), curv


@dataclass(frozen=True, init=False)
class BoundProblem:
    """Payoffs, prices, long-bond returns and weights of T sample rows.

    payoff_samples   T x m realizations of Y_{t+1}
    price_samples    T x m matching prices Q_t
    long_bond_return T-vector of R_inf between t and t+1
    weights          T-vector of sample probabilities (uniform by default)

    The rows are stored as tables and each row's index into them.  The
    constructor wraps the arrays it is given as tables of T rows with
    identity indices, and copies nothing.  A problem made by
    ``generate_problem_from_chain`` holds per-state tables instead: the
    payoffs by next state j (n x m), the prices by current state i (n x m),
    R_inf by transition (n x n), and each row's indices (i, j) in the
    narrowest unsigned type that holds n - 1, so its transition label
    i * n + j groups equal rows in O(T).  A sampled problem's uniform weights
    are one value, read-only ``np.broadcast_to(1 / T, (T,))``.  The three row
    arrays above are gathered from the tables on each access, not cached, so
    each access allocates T x m floats for a chain-made problem;
    ``unconditional_bound`` and ``kazemi_test`` work from the tables.
    ``dataclasses.replace`` and the CSV format give the plain dense copy.
    """

    payoff_samples: NDArray[np.float64]
    price_samples: NDArray[np.float64]
    long_bond_return: NDArray[np.float64]
    weights: Optional[NDArray[np.float64]] = None

    def __init__(self, payoff_samples, price_samples, long_bond_return, weights=None):
        y = np.atleast_2d(np.asarray(payoff_samples, dtype=float))
        q = np.atleast_2d(np.asarray(price_samples, dtype=float))
        r = np.atleast_1d(np.asarray(long_bond_return, dtype=float))
        if y.shape != q.shape or y.shape[0] != r.shape[0]:
            raise ValueError("payoffs, prices and returns have inconsistent shapes")
        self._store(y, q, r, None, weights)

    @classmethod
    def _by_transition(cls, payoff_table, price_table, r_table, rows_i, rows_j, weights):
        """Rows i -> j: payoffs ``payoff_table[j]``, prices ``price_table[i]``
        and long-bond return ``r_table[i, j]``."""
        problem = cls.__new__(cls)
        problem._store(payoff_table, price_table, r_table, (rows_i, rows_j), weights)
        return problem

    def _store(self, y, q, r, index, weights) -> None:
        if not all(np.isfinite(a).all() for a in (y, q, r)):
            raise ValueError("payoffs, prices and long bond returns must be finite")
        if np.any(r <= 0):
            raise ValueError("long bond returns must be strictly positive")
        t = y.shape[0] if index is None else index[0].size
        if weights is None:
            # one stored value for problems stored by transition, whose
            # weighted sums run over summed or contiguous weights only
            w = np.full(t, 1.0 / t) if index is None else np.broadcast_to(1.0 / t, (t,))
        else:
            # contiguous, so weighted sums do not depend on the caller's layout
            w = np.ascontiguousarray(np.atleast_1d(np.asarray(weights, dtype=float)))
            if w.shape[0] != t or not (np.isfinite(w) & (w >= 0)).all():
                raise ValueError("weights must be finite and nonnegative, one per sample")
            if abs(w.sum() - 1.0) > 1e-10:
                raise ValueError("weights must sum to one")
        object.__setattr__(self, "_payoff_table", y)
        object.__setattr__(self, "_price_table", q)
        object.__setattr__(self, "_r_table", r)
        object.__setattr__(self, "_index", index)  # (rows_i, rows_j); None: identity
        object.__setattr__(self, "weights", w)

    # the row fields are read through these properties, so the generated
    # repr and dataclasses.replace see dense rows: replace gives a plain copy
    @property
    def payoff_samples(self) -> NDArray[np.float64]:
        if self._index is None:
            return self._payoff_table
        return np.take(self._payoff_table, self._index[1], axis=0)

    @property
    def price_samples(self) -> NDArray[np.float64]:
        if self._index is None:
            return self._price_table
        return np.take(self._price_table, self._index[0], axis=0)

    @property
    def long_bond_return(self) -> NDArray[np.float64]:
        if self._index is None:
            return self._r_table
        return self._r_table[self._index]

    @property
    def _labels(self) -> Optional[NDArray[np.unsignedinteger]]:
        """Each row's transition label i * n + j, in the narrowest unsigned
        type that holds every label; None for plain rows."""
        if self._index is None:
            return None
        rows_i, rows_j = self._index
        n = self._payoff_table.shape[0]
        labels = rows_i.astype(np.min_scalar_type(self._price_table.shape[0] * n - 1))
        labels *= n
        labels += rows_j
        return labels

    @property
    def n_assets(self) -> int:
        return self._payoff_table.shape[1]


@dataclass(frozen=True)
class BoundResult:
    lambda_bar: float
    multipliers: NDArray[np.float64]
    constraint_residuals: NDArray[np.float64]
    converged: bool
    dual_value: float
    j: NDArray[np.float64]
    iterations: int = 0  # Newton steps taken; 0 when the constraints pinned J
    n_rows: int = 0  # distinct sample rows the dual was solved on

    @property
    def duality_gap(self) -> float:
        return abs(self.lambda_bar - self.dual_value)


def conditional_discrepancy(
    economy: MarkovPricingEconomy,
    recovered: RecoveredMeasure,
    theta: float,
) -> NDArray[np.float64]:
    """Per-state discrepancy sum_j p_ij phi_theta(h_hat_ij), an exact sum.

    Nonnegative, and zero exactly when the martingale increments are one on
    every reachable transition.  It is summed as sum_j p_ij phi~(h_hat_ij)
    (see ``_phi_tilde``), equal since sum_j p_ij h_hat_ij = 1, which keeps
    its digits next to theta = 0 and -1, where phi's (r - 1) / theta term
    cancels.
    """
    _check_theta(theta)
    if recovered.h_increments is None:
        raise ValueError("recovery lacks martingale increments (no transition given)")
    p = economy.transition.entries
    h = recovered.h_increments
    live = p > 0
    vals = _phi_tilde(theta, np.where(live, h, 1.0))
    return np.sum(np.where(live, p * vals, 0.0), axis=1)


def population_discrepancy(
    economy: MarkovPricingEconomy,
    recovered: RecoveredMeasure,
    theta: float,
) -> float:
    """Stationary-weighted average of the conditional discrepancies."""
    _check_theta(theta)
    pi = stationary_distribution(economy.transition)
    return float(pi @ conditional_discrepancy(economy, recovered, theta))


def conditional_bound(
    economy: MarkovPricingEconomy,
    recovered: RecoveredMeasure,
    theta: float,
    payoff_spec="arrow",
) -> NDArray[np.float64]:
    """Per-state lower bound on E[phi_theta(J) | x] for a given asset menu.

    Each state solves its own small program with the conditional transition
    probabilities as weights; only exact finite-state sums are involved.  With
    the full next-state Arrow menu the constraints pin J to the recovered
    martingale increments, so the bound equals the conditional discrepancy,
    and each state's J is solved from its constraints directly, without
    Newton steps; smaller menus give weaker per-state bounds, and the
    stationary-weighted average always dominates the unconditional bound on
    the same menu.
    """
    _check_theta(theta)
    p = economy.transition.entries
    q = economy.prices.entries
    n = economy.n
    if isinstance(payoff_spec, str):
        if payoff_spec != "arrow":
            raise ValueError("conditional bounds take 'arrow' or a payoff matrix")
        psi = np.eye(n)
    else:
        psi = np.atleast_2d(np.asarray(payoff_spec, dtype=float))
    r_inf = recovered.r_inf
    prices = psi @ q.T  # (m, n): price of each asset per current state
    out = np.empty(n)
    for i in range(n):
        # the state's program: one row per live next state, its prices fixed
        live = np.flatnonzero(p[i])
        w = p[i, live]
        a = np.hstack([np.ones((live.size, 1)), psi.T[live] / r_inf[i, live, None]])
        target = np.concatenate([[1.0], prices[:, i]])
        j = _solve_dual(a, w, target, theta, True)[1]
        out[i] = float(w @ _phi_tilde(theta, j))
    return out


def kazemi_test(problem: BoundProblem) -> NDArray[np.float64]:
    """Pricing errors E[Y' / R_inf - Q'] of the inverse long-bond return.

    A zero vector (up to sampling error) is consistent with the absence of a
    martingale component, in which case 1/R_inf is itself the one-period
    discount factor.
    """
    y, w, _, prices, price_w = _grouped_rows(problem)
    return w @ y - price_w @ prices


def _row_key(y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Scalar sort key of each row: y @ v with v_k = sqrt(k + 2) / 2^e_k,
    2^e_k the power of two just above column k's largest magnitude: so the
    row order, and every sum over rows, is the same in units 2^s apart."""
    exponent = np.frexp(np.abs(y).max(axis=0, initial=0.0))[1]
    return y @ np.ldexp(np.sqrt(np.arange(2.0, y.shape[1] + 2.0)), -exponent)


def _distinct_rows(
    y: NDArray[np.float64], w: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], Optional[NDArray[np.intp]]]:
    """Distinct rows of ``y`` with summed weights, and each row's group.

    Rows are sorted by ``_row_key``, and a group starts wherever any column
    differs from the previous sorted row, so rows that share a key but differ
    are never merged.  Where such rows meet, equal rows may lie apart in the
    key order; the rows are then sorted by the key and the columns together,
    which puts equal rows next to each other, so each distinct row is one
    group.  When every row is its own group, ``y`` and ``w`` come back as
    given and the group index is None; distinct keys prove that without
    comparing the rows.
    """
    t = y.shape[0]
    key = _row_key(y)
    order = np.argsort(key, kind="stable")
    tie = key[order[1:]] == key[order[:-1]]
    if not tie.any():
        return y, w, None
    new = np.ones(t, dtype=bool)
    ys = np.take(y, order, axis=0)
    np.any(ys[1:] != ys[:-1], axis=1, out=new[1:])
    if np.any(new[1:] & tie):
        order = np.lexsort(np.vstack([y.T[::-1], key]))
        ys = np.take(y, order, axis=0)
        np.any(ys[1:] != ys[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    if starts.size == t:
        return y, w, None
    group = np.empty(t, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return ys[starts], np.add.reduceat(w[order], starts), group


def _label_rows(
    labels: NDArray[np.integer],
    counts: NDArray[np.intp],
    w_sorted: NDArray[np.float64],
    rows_of: Callable[[NDArray[np.intp]], NDArray[np.float64]],
    w: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], Optional[NDArray[np.unsignedinteger]]]:
    """``_distinct_rows`` of rows that are functions of their labels, with
    each label's row instead of each sample's.

    ``rows_of(labels)`` gives the rows of the given labels, ``counts`` the
    number of rows of each label and ``w_sorted`` the weights ``w`` sorted
    stably by label.  Rows that share a label are equal, so one row stands
    for each label and no row is compared: each label's weights are summed
    by ``np.add.reduceat`` in their row order, the pairwise sums that
    ``_distinct_rows`` makes.  The labels' rows are put in the order that
    ``_distinct_rows`` sorts rows into, by ``_row_key`` and, where keys tie,
    by the columns, and ``_distinct_rows`` then merges those that are equal
    across labels (all rows i -> j of a constant discount factor).  So where
    the labels' rows differ, the rows without their labels (a CSV round trip,
    ``dataclasses.replace``) give the same rows and weights to the last bit;
    where they merge, the summed weights may differ in the last bits.  When
    every label appears once, the labels say nothing and the rows go to
    ``_distinct_rows`` as they are.

    The last result maps each label to its row, in the narrowest unsigned
    type that holds the row count, so ``index[labels]`` is each sample's
    row; it is None when every sample is its own row, in sample order.
    """
    present = np.flatnonzero(counts)
    index = np.zeros(counts.size, dtype=np.min_scalar_type(present.size))
    if present.size == labels.size:
        # w may be one broadcast value; the weighted sums run over copies
        reps, sums, group = _distinct_rows(rows_of(labels), np.ascontiguousarray(w))
        if group is None:
            return reps, sums, None
        index[labels] = group
        return reps, sums, index
    starts = np.concatenate([[0], np.cumsum(counts[present])[:-1]])
    reps = rows_of(present)
    by_key = np.lexsort(np.vstack([reps.T[::-1], _row_key(reps)]))
    index[present[by_key]] = np.arange(present.size)
    sums = np.add.reduceat(w_sorted, starts)
    reps, sums, merged = _distinct_rows(reps[by_key], sums[by_key])
    if merged is not None:
        index = merged.astype(index.dtype)[index]
    return reps, sums, index


def _grouped_rows(problem: BoundProblem):
    """Distinct rows of Y / R_inf and of Q, each with its weights summed.

    Returns the rows of Y / R_inf, their weights, each sample's row (None
    when every sample is its own row), then the price rows and their weights,
    over the samples of positive weight: a row of weight 0 takes no part in
    any sum.  E[Q] is the price rows' weights times the rows.  Plain rows are
    grouped by comparing them (``_distinct_rows``).  A problem stored by
    transition groups them by label instead (``_label_rows``), with no T x m
    array formed: its rows i -> j by i * n + j, read from the tables as
    ``payoff_table[j] / r_table[i, j]``, and its price rows by i.  One stable
    sort by i * n + j serves both, as it sorts by i first; within a state the
    weights are then summed in label order, which is row order for a
    population problem.  Equal weights, as a sampled problem's are, need no
    sort: it would only permute them, so its plain copy gets the same sums.
    """
    w = problem.weights
    keep = w > 0
    if keep.all():  # a boolean row mask copies; all-positive weights need none
        keep = None
    else:
        w = w[keep]
    if problem._index is None:
        payoff, r = problem.payoff_samples, problem.long_bond_return
        price = problem.price_samples
        if keep is not None:
            payoff, r, price = payoff[keep], r[keep], price[keep]
        return (*_distinct_rows(payoff / r[:, None], w), *_distinct_rows(price, w)[:2])
    labels, rows_i = problem._labels, problem._index[0]
    if keep is not None:
        labels, rows_i = labels[keep], rows_i[keep]
    y_table, q_table, r_table = problem._payoff_table, problem._price_table, problem._r_table
    n_q, n = q_table.shape[0], y_table.shape[0]
    counts = np.bincount(labels, minlength=n_q * n)
    if w.max() == w.min():
        w_sorted = w
    else:
        # numpy sorts the 8- and 16-bit labels stably by radix sort
        w_sorted = w[np.argsort(labels, kind="stable")]

    def y_rows(labels):
        i, j = np.divmod(labels, n)
        return np.take(y_table, j, axis=0) / r_table[i, j][:, None]

    def q_rows(states):
        return np.take(q_table, states, axis=0)

    state_counts = counts.reshape(n_q, n).sum(axis=1)
    prices, price_w, _ = _label_rows(rows_i, state_counts, w_sorted, q_rows, w)
    y, y_w, index = _label_rows(labels, counts, w_sorted, y_rows, w)
    return y, y_w, None if index is None else index[labels], prices, price_w


def _pinned(
    a: NDArray[np.float64],
    w: NDArray[np.float64],
    target: NDArray[np.float64],
    theta: float,
    nonnegative: bool,
) -> Optional[tuple[NDArray[np.float64], NDArray[np.float64], float, bool, int]]:
    """``_dual_newton``'s results, with 0 steps, when the constraints fix J.

    With no more distinct rows than constraints and the scaled ``a`` of full
    row rank, a' (w J) = target has at most one solution.  One QR
    factorization tests the rank (no column of a' w within a relative
    ``_PINNED_RTOL`` of the span of those before it) and solves for J; the
    multipliers solve a u = phi~'(J), the first-order condition.  Returns
    None unless the rank holds, max|residual| <= ``_GRAD_TOL`` and J >= 0
    (J > 0 for theta <= 0); Newton then solves the problem.
    """
    t, k = a.shape
    if t > k:  # more rows than constraints
        return None
    b = a.T * w  # constraint c as a linear form in J
    qm, rm = np.linalg.qr(b)
    if (np.abs(np.diagonal(rm)) <= _PINNED_RTOL * np.sqrt((b * b).sum(axis=0))).any():
        return None
    j = np.linalg.solve(rm, qm.T @ target)
    if np.abs(b @ j - target).max() > _GRAD_TOL:
        return None
    if nonnegative and not (j > 0 if theta <= 0 else j >= 0).all():
        return None
    with np.errstate(divide="ignore"):
        # phi~'(J) = (J^theta - 1) / theta; theta = 1 extends to J < 0
        z = _expm1_over(theta, np.log(j)) if nonnegative else j - 1.0
    u = qm @ np.linalg.solve(rm.T, w * z)  # b' u = w z
    return u, j, float(u @ target - w @ _phi_conj(theta, z, nonnegative)[0]), True, 0


def _dual_newton(
    a: NDArray[np.float64],
    w: NDArray[np.float64],
    target: NDArray[np.float64],
    theta: float,
    nonnegative: bool,
) -> tuple[NDArray[np.float64], NDArray[np.float64], float, bool, int]:
    """Damped Newton on the scaled dual from u = 0 (J = 1): multipliers, J,
    dual value, converged and steps.

    The gradient is the residual vector: converged means max|grad| <=
    ``_GRAD_TOL``, then one confirming full step is kept (and counted) if
    it lowers max|grad|.  Line search keeps ascent and the dual domain; a
    step whose predicted ascent is below ``_ROUND_ULPS`` ulps of the dual
    value's summands is judged by max|grad| instead.  ||u|| >
    ``_UNBOUNDED_NORM`` raises InfeasibleProblemError along the last step.
    """
    u = np.zeros(a.shape[1])

    def dual_parts(u_vec):
        z = a @ u_vec
        val, j, curv = _phi_conj(theta, z, nonnegative)
        g = float(u_vec @ target - w @ val)
        # total magnitude of the terms summed into g; bounds |g| and sets
        # the size of its rounding error
        scale = float(np.abs(u_vec) @ np.abs(target) + w @ np.abs(val))
        grad = target - a.T @ (w * j)
        return g, grad, j, curv, scale

    g_val, grad, j, curv, g_scale = dual_parts(u)
    converged = False
    iterations = 0
    for _ in range(_MAX_NEWTON):
        converged = bool(np.max(np.abs(grad)) <= _GRAD_TOL)
        h = -(a.T * (w * curv)) @ a
        try:
            direction = np.linalg.solve(h, -grad)
        except np.linalg.LinAlgError:
            direction = None
        if direction is None or grad @ direction <= 0:
            # curvature defective (flat conjugate region): fall back to a
            # regularized system, and to plain gradient ascent if need be
            ridge = 1e-10 * max(1.0, float(np.max(np.abs(np.diag(h)))))
            try:
                direction = np.linalg.solve(h - ridge * np.eye(a.shape[1]), -grad)
            except np.linalg.LinAlgError:
                direction = grad.copy()
            if grad @ direction <= 0:
                direction = grad.copy()
        if converged:
            # the test can pass a step short of round-off: if any residual
            # is above _CONFIRM_ULPS ulps of the magnitudes summed into it,
            # one more full step confirms the point, kept only if it lowers
            # max|grad|.  Below that the residuals are round-off, and whether
            # a step lowers them is a coin flip.
            sums = np.abs(target) + np.abs(a.T) @ (w * np.abs(j))
            if np.any(np.abs(grad) > _CONFIRM_ULPS * np.finfo(float).eps * sums):
                try:
                    parts = dual_parts(u + direction)
                except FloatingPointError:
                    break
                if np.max(np.abs(parts[1])) < np.max(np.abs(grad)):
                    u = u + direction
                    g_val, grad, j, curv, g_scale = parts
                    iterations += 1
            break
        slope = float(grad @ direction)
        g_floor = _ROUND_ULPS * np.finfo(float).eps * g_scale
        step = 1.0
        for _ in range(80):
            try:
                parts = dual_parts(u + step * direction)
            except FloatingPointError:
                step *= 0.5
                continue
            if step * slope > g_floor:
                accept = parts[0] >= g_val + 1e-4 * step * slope
            else:
                # the predicted ascent is below the round-off of g, so the
                # Armijo comparison cannot judge the step: the gradient can
                accept = np.max(np.abs(parts[1])) < np.max(np.abs(grad))
            if accept:
                u = u + step * direction
                g_val, grad, j, curv, g_scale = parts
                iterations += 1
                break
            step *= 0.5
        else:
            raise ConvergenceError("dual line search failed to make progress")
        if np.linalg.norm(u) > _UNBOUNDED_NORM:
            raise InfeasibleProblemError(
                "dual objective is unbounded: constraint system infeasible",
                direction=direction,
            )
    if not converged and np.max(np.abs(grad)) > _GRAD_TOL:
        raise ConvergenceError(
            f"dual Newton did not reach tolerance (grad {np.max(np.abs(grad)):.2e})"
        )
    return u, j, g_val, converged, iterations


def _solve_dual(
    a: NDArray[np.float64],
    w: NDArray[np.float64],
    target: NDArray[np.float64],
    theta: float,
    nonnegative: bool,
) -> tuple[NDArray[np.float64], NDArray[np.float64], float, bool, int]:
    """Multipliers, J, dual value, converged and Newton steps of the program
    a' (w J) = target with kernel phi~ (so u[0] is phi'(1) below phi's).

    One scaling serves both solvers: constraints that no row loads on and
    that ask for 0 (non-live next states) are dropped, with multiplier 0,
    and each other column of ``a`` and its target is divided by its
    magnitude at J = 1, sum_t w_t |a_tc|.  ``_pinned``, then
    ``_dual_newton``, run on that system, and both call a point converged
    when every residual is within ``_GRAD_TOL`` of its constraint's
    magnitude.  Multipliers map back as u_c = u'_c / scale_c, and so does
    an InfeasibleProblemError's direction; a zero payoff with a nonzero
    price is infeasible along its own multiplier.
    """
    k = a.shape[1]
    live = np.flatnonzero((a != 0).any(axis=0) | (target != 0))
    scale = w @ np.abs(a[:, live])
    direction = np.zeros(k)
    if not scale.min() > 0:
        c = live[np.argmin(scale)]
        direction[c] = np.sign(target[c])
        raise InfeasibleProblemError(f"constraint {c} prices a zero payoff", direction=direction)
    a, target = a[:, live] / scale, target[live] / scale
    try:
        pinned = _pinned(a, w, target, theta, nonnegative)
        u, j, g, converged, steps = pinned or _dual_newton(a, w, target, theta, nonnegative)
    except InfeasibleProblemError as exc:
        direction[live] = exc.direction / scale
        exc.direction = direction / np.linalg.norm(direction)
        raise
    multipliers = np.zeros(k)
    multipliers[live] = u / scale
    return multipliers, j, g, converged, steps


def unconditional_bound(
    problem: BoundProblem, theta: float, nonnegative: bool = True
) -> BoundResult:
    """Lower bound on E[phi_theta] of the martingale increment.

    The concave dual is solved on one scaled system (``_solve_dual``), so the
    bound does not depend on the units of a payoff, and ``converged`` means
    every residual is within 1e-10 of its constraint's magnitude at J = 1,
    whether the constraints pinned J (``iterations`` = 0) or Newton found it.
    ``lambda_bar`` is E[phi~(J)] (see ``_phi_tilde``), equal to E[phi(J)] on
    E[J] = 1, and ``multipliers`` are phi's.  Unbounded dual ascent raises
    InfeasibleProblemError with the offending direction.

    The dual is a weighted sum over sample rows, so it is solved on the
    distinct rows of [1, Y / R_inf] with their weights summed, and E[Q] is
    the distinct price rows times their summed weights; ``j`` is then
    expanded back to one entry per sample of positive weight.  Rows of a
    problem made by ``generate_problem_from_chain`` are read from its
    per-state tables and grouped by their transition label, other problems'
    rows by comparing them (see ``_grouped_rows``).  The complete
    ``arrow_pairs`` menu pins J.
    """
    _check_theta(theta)
    y, w, group, prices, price_w = _grouped_rows(problem)
    q_bar = price_w @ prices
    t = y.shape[0]
    a = np.hstack([np.ones((t, 1)), y])  # z = a @ u
    target = np.concatenate([[1.0], q_bar])

    u, j, g_val, converged, iterations = _solve_dual(a, w, target, theta, nonnegative)
    u[0] += 1.0 if theta == 0.0 else 1.0 / theta  # phi'(1)
    primal = float(w @ _phi_tilde(theta, j))
    residuals = np.concatenate([[float(w @ j) - 1.0], a[:, 1:].T @ (w * j) - q_bar])
    return BoundResult(
        lambda_bar=primal,
        multipliers=u,
        constraint_residuals=residuals,
        converged=converged,
        dual_value=g_val,
        j=j if group is None else j[group],
        iterations=iterations,
        n_rows=t,
    )


def _walk(
    cum: NDArray[np.float64],
    first: int,
    t: int,
    random: Callable[[int], NDArray[np.float64]],
) -> NDArray[np.unsignedinteger]:
    """Path of a chain from ``first``: t steps, one per uniform draw.

    ``cum`` holds the cumulative sums of the transition rows and
    ``random(k)`` gives the next k draws of one stream, such as a
    generator's ``random``.  Draw u moves state s to the first j with
    cum[s, j] >= u, the left ``np.searchsorted`` of the row.  A row may sum
    to slightly less than one, so a draw can exceed its last cumulative
    value; such a draw goes to the row's last state with positive
    probability.  The walk runs on Python floats with ``bisect``, one cheap
    call per step, ``_WALK_CHUNK`` draws at a time, and writes the t + 1
    states into one array of the narrowest unsigned type that holds n - 1.
    """
    n = cum.shape[0]
    rows = cum.tolist()
    for row in rows:
        # the row's last positive state takes every draw above its predecessor
        last = n - 1
        while last > 0 and row[last] == row[last - 1]:
            last -= 1
        row[last:] = [math.inf] * (n - last)
    path = np.empty(t + 1, dtype=np.min_scalar_type(n - 1))
    path[0] = s = first
    for start in range(1, t + 1, _WALK_CHUNK):
        draws = random(min(_WALK_CHUNK, t + 1 - start)).tolist()
        path[start : start + len(draws)] = [s := bisect_left(rows[s], u) for u in draws]
    return path


def generate_problem_from_chain(
    economy: MarkovPricingEconomy,
    recovered: RecoveredMeasure,
    payoff_spec="arrow",
    horizon_t: int = 0,
    mode: str = "population",
    seed: Optional[int] = None,
) -> BoundProblem:
    """Synthesize a bound problem from a finite-state economy.

    ``payoff_spec`` is an m x n matrix of next-state payoffs, the string
    "arrow" (one claim per next state), or "arrow_pairs" (one claim per
    transition, contingent on both the current and the next state; this menu
    pins the martingale increment completely).  Population mode enumerates
    every positive-probability transition weighted by the stationary law;
    sampled mode simulates a path of length ``horizon_t``.  Long-bond returns
    are read from ``recovered``.

    Every row is a function of its transition i -> j, so the problem stores
    per-state tables, not rows: the payoffs ``psi.T`` (n x m), the prices
    ``(psi @ Q.T).T`` (n x m), the n x n table of R_inf, and the path's
    ``rows_i`` and ``rows_j`` (see ``BoundProblem``).  No T x m array is
    built here; reading ``payoff_samples`` or ``price_samples`` gathers one.
    A sampled path takes about one byte per row for n <= 256: the states in
    one uint8 array, the uniform weight stored once.
    The "arrow_pairs" menu is stored as dense rows: its payoff block is the
    identity over the live transitions.
    """
    p = economy.transition.entries
    q = economy.prices.entries
    n = economy.n

    pairs_menu = isinstance(payoff_spec, str) and payoff_spec == "arrow_pairs"
    if isinstance(payoff_spec, str):
        if payoff_spec not in ("arrow", "arrow_pairs"):
            raise ValueError(f"unknown payoff_spec {payoff_spec!r}")
        psi = np.eye(n)
    else:
        psi = np.atleast_2d(np.asarray(payoff_spec, dtype=float))
        if psi.shape[1] != n:
            raise ValueError("payoff matrix must have one column per state")
    if mode not in ("population", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and not (isinstance(horizon_t, (int, np.integer)) and horizon_t >= 1):
        raise ValueError(f"sampled mode needs an integer horizon_t >= 1, got {horizon_t!r}")
    if pairs_menu and mode != "population":
        raise ValueError("the transition-contingent menu requires population mode")

    pi = stationary_distribution(economy.transition)
    if mode == "population":
        rows_i, rows_j = (k.astype(np.min_scalar_type(n - 1)) for k in np.nonzero(p))
        weights = pi[rows_i] * p[rows_i, rows_j]
    else:
        rng = np.random.default_rng(seed)
        first = int(rng.choice(n, p=pi))
        states = _walk(np.cumsum(p, axis=1), first, horizon_t, rng.random)
        rows_i, rows_j = states[:-1], states[1:]
        weights = None  # uniform, stored as one value

    if pairs_menu:
        # one claim per live transition, contingent on both endpoints: the
        # rows are the same live transitions in the same order, so the payoff
        # block is the identity and a row's prices are its state's claims
        return BoundProblem(
            payoff_samples=np.eye(rows_i.size),
            price_samples=(rows_i[:, None] == rows_i[None, :]) * q[rows_i, rows_j],
            long_bond_return=recovered.r_inf[rows_i, rows_j],
            weights=weights,
        )
    prices = psi @ q.T  # prices[a, i] = price of asset a in state i
    return BoundProblem._by_transition(
        np.ascontiguousarray(psi.T),
        np.ascontiguousarray(prices.T),
        recovered.r_inf,
        rows_i,
        rows_j,
        weights,
    )


def problem_to_csv(problem: BoundProblem, path) -> None:
    """Write a problem as CSV with columns weight, r_infty, y_1..y_m, q_1..q_m."""
    m = problem.n_assets
    header = (
        ["weight", "r_infty"]
        + [f"y_{a + 1}" for a in range(m)]
        + [f"q_{a + 1}" for a in range(m)]
    )
    table = np.column_stack(
        [
            problem.weights,
            problem.long_bond_return,
            problem.payoff_samples,
            problem.price_samples,
        ]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def problem_from_csv(path) -> BoundProblem:
    """Read a problem from the CSV wire format written by problem_to_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header[:2] != ["weight", "r_infty"] or (len(header) - 2) % 2 != 0:
        raise ValueError("problem CSV must have columns weight, r_infty, y_*, q_*")
    m = (len(header) - 2) // 2
    return BoundProblem(
        payoff_samples=table[:, 2 : 2 + m],
        price_samples=table[:, 2 + m :],
        long_bond_return=table[:, 1],
        weights=table[:, 0],
    )
