"""Finite-state Arrow-price economies and Perron-Frobenius recovery.

An n-state economy is a triple (P, S, Q): a transition matrix P = [p_ij], a
matrix of state-pair discount factors S = [s_ij], and the implied Arrow price
matrix Q = [q_ij] with q_ij = s_ij * p_ij.  The dominant eigenpair of Q,

    Q e_hat = exp(eta_hat) e_hat,    e_hat > 0,

defines the long-term risk-neutral transition matrix

    p_hat_ij = exp(-eta_hat) * q_ij * e_hat_j / e_hat_i,

and the one-period discount factor decomposes as

    s_ij = exp(eta_hat) * (e_hat_i / e_hat_j) * h_hat_ij,
    h_hat_ij = p_hat_ij / p_ij,

so that the compounded discount factor splits into an exponential trend, an
eigenvector ratio, and a positive martingale accumulated from the h_hat
increments.  This module implements the construction, risk-neutral and
forward measures, the recovery map, long-maturity limits, and the extended
(shock-augmented) and structured variants of the recovery map.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import (
    ConvergenceError,
    ErgodicityError,
    NonPrimitiveMatrixError,
)

__all__ = [
    "StochasticMatrix",
    "SdfMatrix",
    "PricingMatrix",
    "MarkovPricingEconomy",
    "RecoveredMeasure",
    "GaussianAugmentedFunctional",
    "ErgodicityReport",
    "PositiveEigenCandidate",
    "DecompositionFactors",
    "LogReturnBound",
    "ExtendedRecovery",
    "StructuredRecovery",
    "build_economy",
    "risk_neutral",
    "forward_measures",
    "perron_frobenius",
    "recover",
    "sdf_decomposition",
    "holding_period_return_limit",
    "forward_one_period_limit",
    "yield_curve",
    "log_return_bound_check",
    "extended_pf_family",
    "structured_recover",
    "ergodicity_check",
    "enumerate_positive_eigen",
    "stationary_distribution",
    "h0_stationary",
    "conditional_increment_matrix",
    "ross_extended_economy",
    "is_primitive",
    "economy_from_dict",
    "economy_to_dict",
    "recovery_to_dict",
]

_ROW_SUM_TOL = 1e-12
_ECONOMY_REL_TOL = 1e-14
_PERRON_MAX_STEPS = 100
_log = logging.getLogger(__name__)


def _as_square(entries, name: str) -> NDArray[np.float64]:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_primitive(matrix: NDArray[np.float64]) -> bool:
    """True if some power of the nonnegative matrix is strictly positive.

    Uses the exact finite criterion: a nonnegative n x n matrix is primitive
    iff its ((n-1)^2 + 1)-th power has no zero entry.  The check runs on the
    boolean adjacency pattern (binary exponentiation), so no rescaling of the
    numeric entries is needed.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if np.any(a < 0):
        return False
    target = (n - 1) ** 2 + 1
    reach = a > 0
    acc = np.eye(n, dtype=bool)
    power = target
    while power:
        if power & 1:
            acc = (acc.astype(np.uint8) @ reach.astype(np.uint8)) > 0
        power >>= 1
        if power:
            reach = (reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0
    return bool(acc.all())


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic transition matrix; row i is the law of the next state."""

    entries: NDArray[np.float64]

    def __post_init__(self):
        a = _as_square(self.entries, "transition matrix")
        if np.any(a < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = a.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ValueError(f"rows must sum to 1 (worst deviation {worst:.3e})")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SdfMatrix:
    """State-pair discount factors s_ij (price per unit next-period payoff).

    Entries paired with zero-probability transitions are irrelevant; they are
    normalized to 1 when an economy is built and excluded from all sums.
    """

    entries: NDArray[np.float64]

    def __post_init__(self):
        a = _as_square(self.entries, "discount factor matrix")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PricingMatrix:
    """Arrow prices q_ij: price in state i of one unit paid in state j.

    Must be nonnegative and primitive, with a strictly positive one-period
    bond price (row sum) in every state.
    """

    entries: NDArray[np.float64]

    def __post_init__(self):
        a = _as_square(self.entries, "pricing matrix")
        if np.any(a < 0):
            raise ValueError("Arrow prices must be nonnegative")
        if np.any(a.sum(axis=1) <= 0):
            raise ValueError("every one-period bond price (row sum) must be positive")
        if not is_primitive(a):
            raise NonPrimitiveMatrixError(
                "pricing matrix is not primitive: no power has all entries positive"
            )
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MarkovPricingEconomy:
    """The triple (P, S, Q) with q_ij = s_ij * p_ij."""

    transition: StochasticMatrix
    sdf: SdfMatrix
    prices: PricingMatrix

    def __post_init__(self):
        p = self.transition.entries
        s = self.sdf.entries
        q = self.prices.entries
        if not (p.shape == s.shape == q.shape):
            raise ValueError("transition, sdf and prices must share one shape")
        expected = s * p
        scale = np.maximum(np.abs(q), np.abs(expected))
        mismatch = np.abs(q - expected) > _ECONOMY_REL_TOL * np.maximum(scale, 1e-300)
        if np.any(mismatch & (scale > 0)):
            raise ValueError("prices are not the elementwise product of sdf and transition")

    @property
    def n(self) -> int:
        return self.transition.n


@dataclass(frozen=True)
class RecoveredMeasure:
    """Output of the recovery map.

    eta_hat      log dominant eigenvalue (per period).
    e_hat        positive right eigenvector, scaled so max entry = 1.
    e_star       nonnegative left eigenvector, scaled to sum to 1.
    p_hat        recovered (long-term risk neutral) transition matrix.
    h_increments martingale increments p_hat_ij / p_ij (1 where p_ij = 0);
                 None when recovery ran from prices alone and no true
                 transition matrix was available.
    """

    eta_hat: float
    e_hat: NDArray[np.float64]
    e_star: NDArray[np.float64]
    p_hat: StochasticMatrix
    h_increments: Optional[NDArray[np.float64]] = None

    @property
    def r_inf(self) -> NDArray[np.float64]:
        """Limiting long-bond return R_inf[i, j] = exp(-eta_hat) e_hat_j / e_hat_i."""
        return np.exp(-self.eta_hat) * self.e_hat[None, :] / self.e_hat[:, None]


@dataclass(frozen=True)
class GaussianAugmentedFunctional:
    """Multiplicative functional driven by the chain and k Gaussian shocks.

    The log increment given current state i is

        beta_bar[i] + alpha_bar[i, :n] . (X' - E[X'|X=i]) + alpha_bar[i, n:] . dZ

    where X' is the next coordinate state vector and dZ is a k-dimensional
    standard normal independent of the chain.
    """

    beta_bar: NDArray[np.float64]
    alpha_bar: NDArray[np.float64]

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.beta_bar, dtype=float))
        a = np.atleast_2d(np.asarray(self.alpha_bar, dtype=float))
        n = b.shape[0]
        if a.shape[0] != n or a.shape[1] < n:
            raise ValueError(
                f"alpha_bar must be n x (n+k) with k >= 0; got {a.shape} for n={n}"
            )
        object.__setattr__(self, "beta_bar", b)
        object.__setattr__(self, "alpha_bar", a)

    @property
    def n(self) -> int:
        return self.beta_bar.shape[0]

    @property
    def k(self) -> int:
        return self.alpha_bar.shape[1] - self.n

    @property
    def chain_loading(self) -> NDArray[np.float64]:
        return self.alpha_bar[:, : self.n]

    @property
    def gaussian_loading(self) -> NDArray[np.float64]:
        return self.alpha_bar[:, self.n :]


@dataclass(frozen=True)
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    n_classes: int
    period: int

    @property
    def ok(self) -> bool:
        return self.irreducible and self.aperiodic


@dataclass(frozen=True)
class PositiveEigenCandidate:
    eta: float
    vector: NDArray[np.float64]
    borderline: bool = False


@dataclass(frozen=True)
class DecompositionFactors:
    """Trend, eigenvector-ratio and martingale factors of a compounded SDF."""

    trend: float
    eigen_ratio: float
    martingale: float

    @property
    def product(self) -> float:
        return self.trend * self.eigen_ratio * self.martingale


@dataclass(frozen=True)
class LogReturnBound:
    """Per-state sides of the long-bond log-return inequality."""

    lhs: NDArray[np.float64]
    rhs: NDArray[np.float64]

    @property
    def slack(self) -> NDArray[np.float64]:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ExtendedRecovery:
    eta: float
    e: NDArray[np.float64]
    p_hat: StochasticMatrix


@dataclass(frozen=True)
class StructuredRecovery:
    delta: float
    m_tilde: NDArray[np.float64]
    p_tilde: StochasticMatrix


# ---------------------------------------------------------------------------
# construction and elementary measures
# ---------------------------------------------------------------------------


def build_economy(transition: StochasticMatrix, sdf: SdfMatrix) -> MarkovPricingEconomy:
    """Assemble an economy from a transition matrix and discount factors.

    Prices are the elementwise product q_ij = s_ij * p_ij.  Discount factor
    entries paired with p_ij = 0 are replaced by 1 so they cannot leak into
    any downstream sum.
    """
    p = transition.entries
    s = sdf.entries
    if p.shape != s.shape:
        raise ValueError(
            f"dimension mismatch: transition {p.shape} vs sdf {s.shape}"
        )
    live = p > 0
    if np.any(s[live] <= 0):
        raise ValueError("discount factors must be positive where p_ij > 0")
    s_clean = np.where(live, s, 1.0)
    q = np.where(live, s_clean * p, 0.0)
    return MarkovPricingEconomy(
        transition=transition,
        sdf=SdfMatrix(s_clean),
        prices=PricingMatrix(q),
    )


def risk_neutral(prices: PricingMatrix) -> tuple[StochasticMatrix, NDArray[np.float64]]:
    """Risk-neutral transition probabilities and one-period bond prices.

    p_bar_ij = q_ij / q_bar_i with q_bar_i the row sum of Q.
    """
    q = prices.entries
    q_bar = q.sum(axis=1)
    p_bar = q / q_bar[:, None]
    return StochasticMatrix(p_bar), q_bar


def forward_measures(
    prices: PricingMatrix, horizons: Iterable[int]
) -> dict[int, StochasticMatrix]:
    """Horizon-t forward measures: rows of Q^t scaled by the t-period bond price.

    Powers of Q are accumulated once over the sorted horizons, with a per-step
    row rescaling so that long horizons cannot overflow; row rescaling leaves
    the within-row ratios, and hence the normalized measure, unchanged.
    """
    horizons = sorted(set(horizons))
    if any(t < 1 for t in horizons):
        raise ValueError("horizon must be a positive integer")
    # Q / 2^e with e Q's binary exponent is exact and keeps the products finite
    q = np.ldexp(prices.entries, -np.frexp(prices.entries.max())[1])
    m = q.copy()
    power = 1
    out = {}
    for t in horizons:
        for _ in range(t - power):
            m = m @ q
            m /= np.max(m, axis=1, keepdims=True)
        power = t
        out[t] = StochasticMatrix(m / m.sum(axis=1, keepdims=True))
    return out


# ---------------------------------------------------------------------------
# dominant eigenpair and recovery
# ---------------------------------------------------------------------------


def _perron(a: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    """Perron root and nonnegative eigenvector (max entry 1) of a primitive matrix.

    Noda iteration (T. Noda, Numer. Math. 17, 1971; quadratic convergence:
    L. Elsner, Linear Algebra Appl. 15, 1976).  From x = 1, each step solves
    (shift I - A) y = x, sets x = y / max(y) and sigma = shift - min(x_old / y),
    the Collatz-Wielandt upper bound max_i (A x)_i / x_i of the new x.  The
    shift is sigma (1 + tol), so the first solve is nonsingular even where the
    largest row sum is the root; a solve that is singular, non-finite or
    negative beyond round-off is retried at 16, 256 and 4096 times that offset.

    The one stop rule: max|A x - sigma x| <= tol sigma, tol = 4 sqrt(n) eps, at
    two iterates in a row (at an ill-conditioned root the first can be off by
    tol times the condition number).  ConvergenceError is raised past
    _PERRON_MAX_STEPS steps, when all four solves fail, or when round-off
    drives sigma to zero or below (a root near underflow).
    """
    n = a.shape[0]
    tol = 4.0 * np.sqrt(n) * np.finfo(float).eps
    offsets = (1.0 + tol * 16.0 ** np.arange(4)).tolist()
    x, ax = np.ones(n), a.sum(axis=1)
    sigma, residual = float(ax.max()), np.inf
    m = -a  # shift I - A once its diagonal is set
    met = 0  # iterates in a row that meet the stop rule
    for steps in range(_PERRON_MAX_STEPS + 1):
        if not sigma > 0:
            break
        residual = float(np.abs(ax - sigma * x).max()) / sigma
        met = met + 1 if residual <= tol else 0
        if met == 2:
            if _log.isEnabledFor(logging.DEBUG):
                ratio = ax[x > 0] / x[x > 0]  # the Collatz-Wielandt bracket, a diagnostic only
                _log.debug("Perron: n=%d, %d Noda steps, relative residual %.2e, relative "
                           "Collatz-Wielandt bracket %.2e", n, steps, residual, np.ptp(ratio) / sigma)
            return sigma, x
        for shift in (sigma * f for f in offsets):
            np.fill_diagonal(m, shift - a.diagonal())
            try:
                y = np.linalg.solve(m, x)
            except np.linalg.LinAlgError:
                continue
            top = y.max()  # y > 0 in exact arithmetic; round-off below zero is clipped
            if 0.0 < top < np.inf and y.min() >= -tol * top:
                y = np.maximum(y, 0.0)
                break
        else:
            break
        with np.errstate(over="ignore"):
            sigma = float(shift - (x[y > 0] / y[y > 0]).min())
        x = y / top
        ax = a @ x
    raise ConvergenceError(f"Noda iteration stopped after {steps} steps at sigma {sigma:.3e}, "
                           f"relative residual {residual:.3e}")


def perron_frobenius(prices: PricingMatrix) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """Dominant eigentriple of the pricing matrix.

    Returns (eta_hat, e_hat, e_star): exp(eta_hat) is the spectral radius,
    e_hat the positive right eigenvector with max entry 1, e_star the left
    eigenvector scaled to sum to 1.  Each side is one ``_perron`` solve, whose
    docstring states the stop rule.
    """
    q = prices.entries
    radius, e_hat = _perron(q)
    _, e_star = _perron(q.T)
    return float(np.log(radius)), e_hat, e_star / e_star.sum()


def _require_primitive(
    derived: NDArray[np.float64], q: NDArray[np.float64], name: str, error=NonPrimitiveMatrixError
) -> None:
    """Raise ``error`` unless ``derived``, built from the primitive Q, is primitive.

    Positive factors keep Q's zero pattern, and with it primitivity, so the
    graph is searched only if underflow changed that pattern.
    """
    if not np.all(np.isfinite(derived)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(derived > 0, q > 0):
        irreducible, period = _irreducible_period(derived > 0)
        if period != 1:
            raise error(
                f"{name} is not primitive: "
                f"irreducible={irreducible}, aperiodic=False"
            )


def _recovered_transition(
    q: NDArray[np.float64], eta: float, e: NDArray[np.float64], name: str
) -> NDArray[np.float64]:
    """exp(-eta) q_ij e_j / e_i, rows renormalized; ErgodicityError if not ergodic.

    With e > 0 it has the zero pattern of the primitive Q, hence is ergodic.
    """
    p_hat = np.exp(-eta) * q * (e[None, :] / e[:, None])
    p_hat /= p_hat.sum(axis=1, keepdims=True)  # remove residual round-off
    _require_primitive(p_hat, q, name, ErgodicityError)
    return p_hat


def recover(source: Union[MarkovPricingEconomy, PricingMatrix]) -> RecoveredMeasure:
    """Long-term risk-neutral transition matrix implied by Arrow prices.

    p_hat_ij = exp(-eta_hat) q_ij e_hat_j / e_hat_i, eigenpair from
    ``perron_frobenius``.  When a full economy is supplied, the martingale
    increments h_hat_ij = p_hat_ij / p_ij are filled in (1 on zero-probability
    transitions); R_inf is read as ``r_inf``.  The recovered chain must be
    irreducible and aperiodic, else ErgodicityError is raised; it has the zero
    pattern of the primitive Q unless an entry underflows, and only then is
    its graph searched.
    """
    if isinstance(source, MarkovPricingEconomy):
        prices = source.prices
        transition: Optional[StochasticMatrix] = source.transition
    else:
        prices = source
        transition = None
    eta_hat, e_hat, e_star = perron_frobenius(prices)
    p_hat = _recovered_transition(
        prices.entries, eta_hat, e_hat, "recovered transition matrix"
    )
    h = None
    if transition is not None:
        p = transition.entries
        h = np.where(p > 0, p_hat / np.where(p > 0, p, 1.0), 1.0)
    return RecoveredMeasure(
        eta_hat=eta_hat,
        e_hat=e_hat,
        e_star=e_star,
        p_hat=StochasticMatrix(p_hat),
        h_increments=h,
    )


def sdf_decomposition(
    economy: MarkovPricingEconomy, path: Sequence[int], recovered: RecoveredMeasure
) -> DecompositionFactors:
    """Split the discount factor compounded along a state path into factors.

    Returns (trend, eigen_ratio, martingale) whose product equals the product
    of s_ij along the path: exp(eta_hat * t), e_hat(x_0)/e_hat(x_t), and the
    accumulated martingale increments of ``recovered``, the economy's recovery.
    """
    states = list(path)
    if len(states) < 2:
        raise ValueError("path must contain at least two states")
    q = economy.prices.entries
    for a, b in zip(states[:-1], states[1:]):
        if q[a, b] == 0.0:
            raise ValueError(f"path step {a}->{b} has zero Arrow price")
    t = len(states) - 1
    e = recovered.e_hat
    h = recovered.h_increments
    mart = 1.0
    for a, b in zip(states[:-1], states[1:]):
        mart *= h[a, b]
    return DecompositionFactors(
        trend=float(np.exp(recovered.eta_hat * t)),
        eigen_ratio=float(e[states[0]] / e[states[-1]]),
        martingale=float(mart),
    )


# ---------------------------------------------------------------------------
# long-maturity limits
# ---------------------------------------------------------------------------


def holding_period_return_limit(
    source: Union[MarkovPricingEconomy, PricingMatrix],
) -> NDArray[np.float64]:
    """Limiting one-period return on a bond of maturity -> infinity.

    R_inf[i, j] = exp(-eta_hat) e_hat_j / e_hat_i for the transition i -> j,
    read from ``recover(source)``; a caller that already holds the recovery
    should use its ``r_inf`` instead.
    """
    return recover(source).r_inf


def _iterates(m: NDArray[np.float64], v: NDArray[np.float64], sorted_horizons: Iterable[int]):
    """M^t v at each of the sorted horizons t, as (M^t v / max, log of that max).

    The product chain is run once and rescaled to max 1 at every step,
    with the log scale accumulated, so that long horizons cannot overflow.
    """
    log_scale = 0.0
    done = 0
    out = []
    for t in sorted_horizons:
        for _ in range(t - done):
            v = m @ v
            top = np.max(v)
            v /= top
            log_scale += np.log(top)
        done = t
        out.append((v, log_scale))
    return out


def forward_one_period_limit(
    source: Union[MarkovPricingEconomy, PricingMatrix], tau: int
) -> NDArray[np.float64]:
    """One-period transition implied by the tau-maturity forward measure.

    Entry (i, j) is q_ij * [Q^(tau-1) 1]_j / [Q^tau 1]_i; rows sum to one by
    construction, and as tau grows the matrix converges to the recovered
    transition matrix.  Bond-price iterates are rescaled each step (tracking
    the log scale) so that long maturities cannot overflow.
    """
    if tau < 2:
        raise ValueError("tau must be at least 2")
    prices = source.prices if isinstance(source, MarkovPricingEconomy) else source
    q = prices.entries
    (b_prev, scale_prev), (b, scale_now) = _iterates(q, np.ones(q.shape[0]), [tau - 1, tau])
    ratio = np.exp(scale_prev - scale_now)
    return q * (b_prev[None, :] / b[:, None]) * ratio


def _compounding_matrix(
    economy: MarkovPricingEconomy,
    cash_flow,
) -> tuple[NDArray[np.float64], Optional[NDArray[np.float64]]]:
    """Map a cash-flow spec onto (payoff vector, growth increment matrix)."""
    n = economy.n
    if isinstance(cash_flow, GaussianAugmentedFunctional):
        return np.ones(n), conditional_increment_matrix(cash_flow, economy.transition)
    arr = np.asarray(cash_flow, dtype=float)
    if arr.shape not in ((n,), (n, n)):
        raise ValueError(
            f"cash_flow must be a payoff vector of shape ({n},), a growth increment "
            f"matrix of shape ({n}, {n}) or a functional; got shape {arr.shape}"
        )
    if np.any(arr <= 0):
        kind = "payoff vector" if arr.ndim == 1 else "growth increment matrix"
        raise ValueError(f"{kind} must be strictly positive")
    return (arr, None) if arr.ndim == 1 else (np.ones(n), arr)


def yield_curve(
    economy: MarkovPricingEconomy,
    cash_flow,
    horizons: Iterable[int],
    forecast: StochasticMatrix,
) -> NDArray[np.float64]:
    """Per-horizon, per-state yields on a stationary or growing cash flow.

    The horizon-t yield in state x is

        y_t(x) = (1/t) [ log E_m(payoff_t | x) - log E(S_t payoff_t | x) ]

    where E_m runs under ``forecast``: the physical ``economy.transition`` or
    the recovered ``p_hat`` of the economy's recovery.  ``cash_flow`` is a
    positive payoff vector psi (claim psi(X_t)), an n x n matrix of
    conditional growth increments E[G_{t+1}/G_t | i, j], or a
    GaussianAugmentedFunctional which is reduced to such a matrix.  Prices are
    the same under both measures; only the forecasting measure of the
    numerator changes.

    Returns an array of shape (len(horizons), n).
    """
    horizons = list(horizons)
    if any(t < 1 for t in horizons):
        raise ValueError("horizons must be positive integers")
    if forecast.n != economy.n:
        raise ValueError(f"forecast measure has {forecast.n} states, the economy {economy.n}")
    psi, growth = _compounding_matrix(economy, cash_flow)
    q = economy.prices.entries
    m = forecast.entries
    if growth is not None:
        # Martingale increments of the recovery are chain-measurable, so the
        # conditional growth increments are identical under both measures.
        m = m * growth
        q_grown = q * growth
        _require_primitive(q_grown, q, "growth-compounded pricing matrix")
        q = q_grown
    # log psi enters the forecast and the price alike and cancels
    order = np.argsort(horizons)
    sorted_horizons = [horizons[k] for k in order]
    out = np.empty((len(horizons), economy.n))
    for k, (num, s_n), (den, s_d) in zip(
        order, _iterates(m, psi, sorted_horizons), _iterates(q, psi, sorted_horizons)
    ):
        out[k] = ((s_n + np.log(num)) - (s_d + np.log(den))) / horizons[k]
    return out


def log_return_bound_check(
    economy: MarkovPricingEconomy, recovered: RecoveredMeasure
) -> LogReturnBound:
    """Both sides of E[log R_inf | x] <= E[log S_t - log S_{t+1} | x].

    On a finite chain both conditional expectations are exact finite sums
    over the positive-probability transitions; R_inf is ``recovered.r_inf``,
    read from the economy's recovery.
    """
    p = economy.transition.entries
    s = economy.sdf.entries
    r_inf = recovered.r_inf
    live = p > 0
    lhs = np.sum(np.where(live, p * np.log(np.where(live, r_inf, 1.0)), 0.0), axis=1)
    rhs = np.sum(np.where(live, -p * np.log(np.where(live, s, 1.0)), 0.0), axis=1)
    return LogReturnBound(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# extended and structured recovery
# ---------------------------------------------------------------------------


def _log_increment(
    functional: GaussianAugmentedFunctional, p: NDArray[np.float64]
) -> NDArray[np.float64]:
    """log E[exp(log-increment) | i, j] = beta_i + |g_i|^2 / 2 + c_i . (u_j - P_i.),
    formed as c_ij - c_i . P_i. so that no n x n x n innovation is built."""
    if functional.n != p.shape[0]:
        raise ValueError("functional dimension does not match the chain")
    c = functional.chain_loading
    g = functional.gaussian_loading
    row = functional.beta_bar + 0.5 * np.sum(g * g, axis=1) - np.sum(c * p, axis=1)
    return row[:, None] + c


def conditional_increment_matrix(
    functional: GaussianAugmentedFunctional, transition: StochasticMatrix
) -> NDArray[np.float64]:
    """E[exp(log-increment) | current state i, next state j] as an n x n matrix.

    Conditioning on the realized transition fixes the chain-innovation block
    at (u_j - P_i .) and leaves the Gaussian block standard normal, so the
    conditional mean is the chain term times exp(half the Gaussian variance).
    """
    return np.exp(_log_increment(functional, transition.entries))


def _combined(y_spec, zeta) -> GaussianAugmentedFunctional:
    """F = zeta . Y: the zeta-weighted sum of the cash-flow blocks' loadings."""
    specs = [y_spec] if isinstance(y_spec, GaussianAugmentedFunctional) else list(y_spec)
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    if not specs or z.shape[0] != len(specs):
        raise ValueError(
            f"zeta has length {z.shape[0]} but {len(specs)} cash-flow blocks given"
        )
    if any(s.n != specs[0].n or s.k != specs[0].k for s in specs):
        raise ValueError("all Y blocks must share the chain size and shock count")
    return GaussianAugmentedFunctional(
        beta_bar=sum(zr * s.beta_bar for zr, s in zip(z, specs)),
        alpha_bar=sum(zr * s.alpha_bar for zr, s in zip(z, specs)),
    )


def extended_pf_family(
    economy: MarkovPricingEconomy,
    y_spec,
    zeta,
    sdf_gaussian_loading: Optional[NDArray[np.float64]] = None,
) -> ExtendedRecovery:
    """Member of the shock-augmented eigenfunction family indexed by zeta.

    The candidate eigenfunctions have the form exp(zeta . y) e(x): the analyst
    hypothesizes that the discount factor loads on the increments of the
    cumulative process Y with coefficient vector ``zeta`` and inverts Arrow
    prices under that hypothesis.  The weighting exp(-zeta . dY) depends on
    the blocks of Y only through the one functional F = zeta . Y, whose
    loadings (beta_F, chain c_F, Gaussian g_F) are the zeta-weighted sums of
    the blocks' loadings.  The op prices the exp(-dF)-weighted Arrow claims,

        Q_zeta[i, j] = E[ (S_{t+1}/S_t) exp(-dF_{t+1}) 1{X_{t+1}=j} | X_t=i ],

    solves the dominant eigenpair of Q_zeta, and returns the transition matrix
    induced after the Y-loading has been absorbed.  Given the economy's Arrow
    prices q_ij the weighting is a Gaussian moment-generating correction:

        Q_zeta[i, j] = q_ij
            * exp(-beta_F[i] - c_F[i] . (u_j - P_i.))       # chain block
            * exp(|g_F[i]|^2 / 2 - g_F[i] . a_s[i])         # Gaussian block

    with a_s the Gaussian loading of the log discount-factor increment
    (``sdf_gaussian_loading``, an n x k matrix, zero by default).  The
    exponent is g_F . (g_F - a_s) less the log of
    ``conditional_increment_matrix(F)``, which holds |g_F|^2 / 2 with the
    chain block.  At zeta = 0 this reduces exactly to ``recover``.
    """
    f = _combined(y_spec, zeta)
    q = economy.prices.entries
    log_increment = _log_increment(f, economy.transition.entries)
    g = f.gaussian_loading
    a_s = np.zeros_like(g)
    if sdf_gaussian_loading is not None:
        a_s = np.asarray(sdf_gaussian_loading, dtype=float)
    if a_s.shape != g.shape:
        raise ValueError(f"sdf_gaussian_loading must have shape {g.shape}")
    exponent = np.sum(g * (g - a_s), axis=1)[:, None] - log_increment
    with np.errstate(over="raise"):
        try:
            q_zeta = q * np.exp(exponent)
        except FloatingPointError as exc:
            raise OverflowError(
                "moment-generating correction overflowed; zeta too large"
            ) from exc
    _require_primitive(q_zeta, q, "zeta-weighted pricing matrix")
    radius, e = _perron(q_zeta)
    eta = float(np.log(radius))
    p_hat = _recovered_transition(q_zeta, eta, e, "zeta-indexed recovered transition")
    return ExtendedRecovery(eta=eta, e=e, p_hat=StochasticMatrix(p_hat))


def ross_extended_economy(
    transition: StochasticMatrix,
    m_tilde: NDArray[np.float64],
    delta: float,
    zeta,
    y_spec,
) -> tuple[MarkovPricingEconomy, NDArray[np.float64]]:
    """Forward-construct an economy whose SDF loads on Y with known zeta.

    The subjective discount factor is exp(-delta) exp(zeta . dY) m_j / m_i;
    Arrow prices integrate out the Gaussian block of dY, which leaves
    exp(-delta) (m_j / m_i) ``conditional_increment_matrix(F)`` for
    F = zeta . Y.  Returns the economy together with the Gaussian loading of
    the log SDF, F's (to be passed to ``extended_pf_family``).  Inverting at
    the construction zeta returns the construction transition matrix exactly.
    """
    f = _combined(y_spec, zeta)
    m = np.asarray(m_tilde, dtype=float)
    if m.shape != (transition.n,):
        raise ValueError(f"m_tilde must have shape ({transition.n},), got {m.shape}")
    if np.any(m <= 0):
        raise ValueError("m_tilde must be strictly positive")
    s = np.exp(-delta) * (m[None, :] / m[:, None]) * conditional_increment_matrix(f, transition)
    return build_economy(transition, SdfMatrix(s)), f.gaussian_loading


def structured_recover(
    source: Union[MarkovPricingEconomy, PricingMatrix],
    y_r_increments: NDArray[np.float64],
) -> StructuredRecovery:
    """Recovery given a pre-specified growth component of the discount factor.

    ``y_r_increments`` holds g_ij = E[Y^r_{t+1}/Y^r_t | i, j] for a known
    multiplicative functional Y^r assumed to carry the entire martingale
    component of the discount factor.  The dominant eigenpair of
    [q_ij / g_ij] then has eigenvalue exp(-delta) and eigenvector 1/m, and

        p_tilde_ij = q_ij * exp(delta) * (m_i / m_j) / g_ij

    is the recovered subjective transition matrix.  Like ``recover``, it
    raises ErgodicityError if underflow leaves p_tilde reducible or periodic.
    """
    prices = source.prices if isinstance(source, MarkovPricingEconomy) else source
    q = prices.entries
    g = np.asarray(y_r_increments, dtype=float)
    if g.shape != q.shape:
        raise ValueError("y_r_increments shape does not match the pricing matrix")
    if np.any((g <= 0) & (q > 0)):
        raise ValueError("y_r_increments must be positive wherever q_ij > 0")
    ratio = np.where(q > 0, q / np.where(g > 0, g, 1.0), 0.0)
    _require_primitive(ratio, q, "growth-adjusted pricing matrix")
    radius, e = _perron(ratio)
    eta = float(np.log(radius))
    p_tilde = _recovered_transition(ratio, eta, e, "structured recovered transition")
    return StructuredRecovery(
        delta=-eta, m_tilde=1.0 / e, p_tilde=StochasticMatrix(p_tilde)
    )


# ---------------------------------------------------------------------------
# chain diagnostics
# ---------------------------------------------------------------------------


def _bfs_levels(adj: NDArray[np.bool_], source: int) -> NDArray[np.int_]:
    """Breadth-first level of every state from ``source`` (-1 if unreached)."""
    level = np.full(adj.shape[0], -1)
    frontier = np.arange(adj.shape[0]) == source
    depth = 0
    while frontier.any():
        level[frontier] = depth
        frontier = adj[frontier].any(axis=0) & (level < 0)
        depth += 1
    return level


def _irreducible_period(adj: NDArray[np.bool_]) -> tuple[bool, int]:
    """Strong connectivity of a directed graph and its period (0 if reducible).

    The graph is strongly connected when breadth-first searches from state 0
    along the edges and against them both reach every state.  The period is
    the gcd of (level[u] + 1 - level[v]) over edges u -> v, which equals the
    gcd of all cycle lengths through the root.
    """
    level = _bfs_levels(adj, 0)
    if not (np.all(level >= 0) and np.all(_bfs_levels(adj.T, 0) >= 0)):
        return False, 0
    rows, cols = np.nonzero(adj)
    return True, int(np.gcd.reduce(level[rows] + 1 - level[cols]))


def _count_strong_classes(adj: NDArray[np.bool_]) -> int:
    """Number of strongly connected classes: one iterative Tarjan pass, O(n + E).

    (Tarjan, SIAM J. Comput. 1(2), 1972.)  Each state gets a discovery index
    and the lowest index reachable from its depth-first subtree through edges
    to states still on the stack; a state whose two agree closes a class.
    """
    n = adj.shape[0]
    rows, cols = np.nonzero(adj)
    first_edge = np.searchsorted(rows, np.arange(n + 1)).tolist()
    succ = cols.tolist()
    next_edge = first_edge[:-1]  # per state, the next of its edges to scan
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    n_classes = 0
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        path = [root]  # the depth-first path from the root
        while path:
            v = path[-1]
            k, end, low_v = next_edge[v], first_edge[v + 1], low[v]
            w = -1
            while k < end:  # scan v's edges up to its next undiscovered successor
                w = succ[k]
                k += 1
                if index[w] < 0:
                    break
                if on_stack[w] and index[w] < low_v:
                    low_v = index[w]
                w = -1
            next_edge[v], low[v] = k, low_v
            if w >= 0:
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                on_stack[w] = True
                path.append(w)
                continue
            path.pop()
            if path and low_v < low[path[-1]]:
                low[path[-1]] = low_v
            if low_v == index[v]:
                n_classes += 1
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v:
                        break
    return n_classes


def _graph_report(adj: NDArray[np.bool_]) -> ErgodicityReport:
    """Strong connectivity, period and class count of a directed graph.

    Only a reducible graph has its strongly connected classes counted
    (``_count_strong_classes``).
    """
    irreducible, period = _irreducible_period(adj)
    if irreducible:
        return ErgodicityReport(True, period == 1, 1, period)
    return ErgodicityReport(False, False, _count_strong_classes(adj), 0)


def ergodicity_check(transition: StochasticMatrix) -> ErgodicityReport:
    """Irreducibility and aperiodicity report for a finite chain.

    Irreducibility is strong connectivity of the positive-transition graph,
    and the period is read from a breadth-first search (``_graph_report``).
    A finite irreducible chain is automatically positive recurrent.
    """
    return _graph_report(transition.entries > 0)


def enumerate_positive_eigen(
    prices: PricingMatrix, zero_tol: float = 1e-10
) -> list[PositiveEigenCandidate]:
    """All eigenpairs of Q with a (numerically) single-signed real eigenvector.

    Dense eigendecomposition; eigenvectors whose real entries all share one
    sign are rescaled to be positive with max entry 1.  Entries below
    ``zero_tol`` times the largest magnitude do not determine the sign; a
    candidate that needed that exclusion is flagged ``borderline`` rather than
    dropped.  It needed it exactly when some excluded entry does not share the
    sign of the kept entries: one of opposite sign, or one that is exactly
    zero (a strictly positive eigenvector has no zero entry).  A candidate
    whose small entries all share the kept sign is not flagged.  For a
    primitive matrix exactly one non-borderline candidate exists.
    """
    q = prices.entries
    vals, vecs = np.linalg.eig(q)
    out: list[PositiveEigenCandidate] = []
    for lam, vec in zip(vals, vecs.T):
        if abs(lam.imag) > zero_tol * max(1.0, abs(lam.real)):
            continue
        if lam.real <= 0:
            continue
        v = vec.real
        if np.max(np.abs(vec.imag)) > zero_tol * np.max(np.abs(v), initial=0.0):
            continue
        big = np.abs(v) >= zero_tol * np.max(np.abs(v))
        signs = np.sign(v[big])
        if signs.size == 0 or np.any(signs != signs[0]):
            continue
        borderline = bool(np.any(np.sign(v[~big]) != signs[0]))
        v = v * signs[0]
        out.append(
            PositiveEigenCandidate(
                eta=float(np.log(lam.real)),
                vector=v / np.max(v),
                borderline=borderline,
            )
        )
    return out


def stationary_distribution(transition: StochasticMatrix) -> NDArray[np.float64]:
    """Stationary distribution pi with pi' P = pi', sum(pi) = 1.

    Solved as a dense linear system with the normalization replacing one
    redundant balance equation; requires an irreducible chain.
    """
    report = ergodicity_check(transition)
    if not report.irreducible:
        raise ErgodicityError("stationary distribution requires an irreducible chain")
    p = transition.entries
    n = transition.n
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def h0_stationary(
    economy: MarkovPricingEconomy, recovered: RecoveredMeasure
) -> NDArray[np.float64]:
    """Initial martingale level making the chain stationary under the new measure.

    With pi the stationary law under the original transition matrix and
    pi_hat under the recovered one (``recovered.p_hat``), the initializer
    h0(x_i) = pi_hat_i / pi_i has unit mean under pi and shifts the time-0
    distribution to pi_hat.
    """
    pi = stationary_distribution(economy.transition)
    pi_hat = stationary_distribution(recovered.p_hat)
    return pi_hat / pi


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def economy_from_dict(payload: dict) -> Union[MarkovPricingEconomy, PricingMatrix]:
    """Build an economy (or bare pricing matrix) from the JSON wire format.

    Accepts {"n": ..., "transition": [[...]], "sdf": [[...]]} for a full
    economy or {"prices": [[...]]} for Arrow prices alone.
    """
    if "prices" in payload:
        return PricingMatrix(np.asarray(payload["prices"], dtype=float))
    try:
        transition = np.asarray(payload["transition"], dtype=float)
        sdf = np.asarray(payload["sdf"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"economy JSON missing field {exc}") from exc
    for name, a in (("transition", transition), ("sdf", sdf)):
        if a.ndim != 2:
            raise ValueError(f"economy field {name!r} must be a matrix, got shape {a.shape}")
    n = payload.get("n", transition.shape[0])
    if transition.shape != (n, n) or sdf.shape != (n, n):
        raise ValueError("economy matrices do not match the declared size")
    return build_economy(StochasticMatrix(transition), SdfMatrix(sdf))


def economy_to_dict(economy: MarkovPricingEconomy) -> dict:
    return {
        "n": economy.n,
        "transition": economy.transition.entries.tolist(),
        "sdf": economy.sdf.entries.tolist(),
    }


def recovery_to_dict(recovered: RecoveredMeasure) -> dict:
    """The recovery's fields by name, vectors and matrices as numpy arrays."""
    return {
        "eta_hat": recovered.eta_hat,
        "e_hat": recovered.e_hat,
        "e_star": recovered.e_star,
        "p_hat": recovered.p_hat.entries,
        "h_increments": recovered.h_increments,
    }
