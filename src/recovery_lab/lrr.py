"""Calibrated long-run-risk model with recursive utility (monthly frequency).

The state is x = (x1, x2): a predictable growth component and a square-root
stochastic-volatility factor,

    dX1 = [mu_11 (X1 - iota1) + mu_12 (X2 - iota2)] dt + sqrt(X2) sigma_1 . dW
    dX2 =  mu_22 (X2 - iota2) dt                       + sqrt(X2) sigma_2 . dW

with three independent Brownian shocks.  Multiplicative functionals M carry
coefficients (b0, b1, b2, alpha) meaning

    d log M = [b0 + b1 (X1 - iota1) + b2 (X2 - iota2)] dt + sqrt(X2) alpha . dW,

always centered at the mean vector iota of the accompanying dynamics.

Consumption is such a functional; the recursive-utility (unit elasticity)
continuation value is log-linear in the state, v(x) = v0 + v1 x1 + v2 x2,
with v2 the minus-root of a quadratic whose discriminant must be
nonnegative.  The discount factor is d log S = -delta dt - d log C
+ d log H*, where H* is the continuation-value martingale.  Its dominant
eigenfunction is exp(e1 x1 + e2 x2) with e2 the root giving the smaller
eigenvalue, and the associated change of measure shifts (mu_12, mu_22, iota)
while keeping the volatility structure.

Conditional expectations E[M_t | x] = exp(theta0(t) + theta1(t) x1
+ theta2(t) x2) follow from a linear ODE for theta1, a Riccati equation for
theta2 and a quadrature for theta0; the right-hand sides are rederived here
from the generator and must be validated against the Monte Carlo simulator
before any downstream output is trusted (the test suite enforces this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .sqroot import square_root_step
from .exceptions import (
    BlowUpError,
    DegenerateSelectionError,
    ModelValidityError,
    ValueFunctionExistenceError,
)

__all__ = [
    "LrrParams",
    "StateDynamics",
    "AffineFunctional",
    "ValueCoefficients",
    "PfSolution",
    "ChangedMeasureParams",
    "AffineExpectationCoeffs",
    "DensityResult",
    "FunctionalMoments",
    "YieldCurves",
    "default_params",
    "load_default_params",
    "apply_overrides",
    "consumption_functional",
    "unit_functional",
    "h_star_functional",
    "continuation_martingale_loading",
    "pf_equation_residuals",
    "solve_value_function",
    "sdf_coefficients",
    "solve_pf",
    "changed_measure",
    "change_functional_measure",
    "recovered_sdf_functional",
    "risk_neutral_dynamics",
    "add_functionals",
    "solve_affine_ode",
    "affine_expectation",
    "simulate_states",
    "simulate_functional",
    "stationary_density",
    "density_from_draws",
    "yield_curves",
    "cir_stationary_moments",
    "params_from_dict",
    "params_to_dict",
]

DT_DEFAULT = 1.0  # one month: the natural step of the exact square-root transition
MONTHS_PER_YEAR = 12.0


@dataclass(frozen=True)
class StateDynamics:
    """Drift/vol coefficients of the bivariate state under one measure."""

    mu_11: float
    mu_12: float
    mu_22: float
    iota: NDArray[np.float64]
    sigma_1: NDArray[np.float64]
    sigma_2: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "iota", np.asarray(self.iota, dtype=float))
        object.__setattr__(self, "sigma_1", np.asarray(self.sigma_1, dtype=float))
        object.__setattr__(self, "sigma_2", np.asarray(self.sigma_2, dtype=float))
        if self.mu_11 >= 0 or self.mu_22 >= 0:
            raise ModelValidityError("state dynamics must mean-revert (mu_ii < 0)")
        if self.iota[1] <= 0:
            raise ModelValidityError("the volatility factor mean must be positive")


@dataclass(frozen=True)
class AffineFunctional:
    """Log-drift coefficients (b0, b1, b2) and shock loading alpha of a
    multiplicative functional, centered at the iota of its dynamics."""

    b0: float
    b1: float
    b2: float
    alpha: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))


def add_functionals(*fs: AffineFunctional) -> AffineFunctional:
    """Coefficients of the product functional (log increments add)."""
    return AffineFunctional(
        b0=sum(f.b0 for f in fs),
        b1=sum(f.b1 for f in fs),
        b2=sum(f.b2 for f in fs),
        alpha=np.sum([f.alpha for f in fs], axis=0),
    )


@dataclass(frozen=True)
class LrrParams:
    """Model parameters at monthly frequency.

    Defaults reproduce the calibrated growth/volatility configuration used
    throughout: upper-triangular state drift, one direct consumption shock,
    one growth-rate shock, one volatility shock.
    """

    mu_11: float = -0.021
    mu_12: float = 0.0
    mu_22: float = -0.013
    sigma_1: tuple = (0.0, 0.00034, 0.0)
    sigma_2: tuple = (0.0, 0.0, -0.038)
    iota: tuple = (0.0, 1.0)
    beta_c: tuple = (0.0015, 1.0, 0.0)
    alpha_c: tuple = (0.0078, 0.0, 0.0)
    delta: float = 0.002
    gamma: float = 10.0

    def __post_init__(self):
        if self.mu_11 >= 0 or self.mu_22 >= 0:
            raise ValueError("mu_11 and mu_22 must be negative (stationarity)")
        if self.iota[1] <= 0:
            raise ValueError("iota_2 must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def dynamics(self) -> StateDynamics:
        return StateDynamics(
            mu_11=self.mu_11,
            mu_12=self.mu_12,
            mu_22=self.mu_22,
            iota=np.asarray(self.iota, dtype=float),
            sigma_1=np.asarray(self.sigma_1, dtype=float),
            sigma_2=np.asarray(self.sigma_2, dtype=float),
        )


def default_params() -> LrrParams:
    return LrrParams()


def consumption_functional(params: LrrParams) -> AffineFunctional:
    b0, b1, b2 = params.beta_c
    return AffineFunctional(b0=b0, b1=b1, b2=b2, alpha=np.asarray(params.alpha_c))


def unit_functional() -> AffineFunctional:
    return AffineFunctional(b0=0.0, b1=0.0, b2=0.0, alpha=np.zeros(3))


# ---------------------------------------------------------------------------
# continuation value and discount factor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueCoefficients:
    """Log continuation value v(x) = v0 + v1 x1 + v2 x2 (net of log C)."""

    v0: float
    v1: float
    v2: float
    discriminant: float


def _value_equation_residuals(
    params: LrrParams, v: ValueCoefficients
) -> NDArray[np.float64]:
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    ac = np.asarray(params.alpha_c)
    i1, i2 = params.iota
    bc0, bc1, bc2 = params.beta_c
    sv = ac + s1 * v.v1 + s2 * v.v2
    return np.array(
        [
            params.delta * v.v0
            - (
                bc0
                - i1 * (bc1 + params.mu_11 * v.v1)
                - i2 * (bc2 + params.mu_12 * v.v1 + params.mu_22 * v.v2)
            ),
            params.delta * v.v1 - (bc1 + params.mu_11 * v.v1),
            params.delta * v.v2
            - (
                bc2
                + params.mu_12 * v.v1
                + params.mu_22 * v.v2
                + 0.5 * (1.0 - params.gamma) * float(sv @ sv)
            ),
        ]
    )


def solve_value_function(params: LrrParams) -> ValueCoefficients:
    """Closed-form continuation-value coefficients.

    v1 solves a scalar linear equation; v2 is the minus-root of a quadratic
    whose discriminant is carried along (a negative discriminant means no
    log-linear continuation value exists, typically because gamma is too
    large).  gamma = 1 collapses the quadratic to its linear limit.
    """
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    ac = np.asarray(params.alpha_c)
    i1, i2 = params.iota
    bc0, bc1, bc2 = params.beta_c
    one_mg = 1.0 - params.gamma

    v1 = bc1 / (params.delta - params.mu_11)
    a_vec = ac + s1 * v1
    b_lin = params.mu_22 - params.delta + one_mg * float(a_vec @ s2)
    c_lin = bc2 + params.mu_12 * v1 + 0.5 * one_mg * float(a_vec @ a_vec)
    s2n = float(s2 @ s2)
    disc = b_lin**2 - 2.0 * one_mg * s2n * c_lin
    if params.gamma == 1.0 or s2n == 0.0:
        if b_lin == 0.0:
            raise ValueFunctionExistenceError(
                "degenerate linear equation for v2", discriminant=disc
            )
        v2 = -c_lin / b_lin
    else:
        if disc < 0.0:
            raise ValueFunctionExistenceError(
                f"continuation value does not exist (discriminant {disc:.3e} < 0); "
                "reduce gamma",
                discriminant=disc,
            )
        v2 = (-b_lin - np.sqrt(disc)) / (one_mg * s2n)
    v0 = (
        bc0
        - i1 * (bc1 + params.mu_11 * v1)
        - i2 * (bc2 + params.mu_12 * v1 + params.mu_22 * v2)
    ) / params.delta
    out = ValueCoefficients(v0=float(v0), v1=float(v1), v2=float(v2), discriminant=float(disc))
    res = _value_equation_residuals(params, out)
    if np.max(np.abs(res)) > 1e-12 * max(1.0, abs(v0), abs(v1), abs(v2)):
        raise ModelValidityError(f"value equations violated: residuals {res}")
    return out


def continuation_martingale_loading(
    params: LrrParams, value: ValueCoefficients
) -> NDArray[np.float64]:
    """Shock loading of the continuation-value martingale H*."""
    sv = (
        np.asarray(params.alpha_c)
        + np.asarray(params.sigma_1) * value.v1
        + np.asarray(params.sigma_2) * value.v2
    )
    return (1.0 - params.gamma) * sv


def sdf_coefficients(params: LrrParams, value: ValueCoefficients) -> AffineFunctional:
    """Discount-factor functional: d log S = -delta dt - d log C + d log H*."""
    ah = continuation_martingale_loading(params, value)
    ah_sq = float(ah @ ah)
    bc0, bc1, bc2 = params.beta_c
    i2 = params.iota[1]
    return AffineFunctional(
        b0=-params.delta - bc0 - 0.5 * i2 * ah_sq,
        b1=-bc1,
        b2=-bc2 - 0.5 * ah_sq,
        alpha=-np.asarray(params.alpha_c) + ah,
    )


def h_star_functional(params: LrrParams, value: ValueCoefficients) -> AffineFunctional:
    """The continuation-value martingale as a functional (for simulation checks)."""
    ah = continuation_martingale_loading(params, value)
    ah_sq = float(ah @ ah)
    return AffineFunctional(
        b0=-0.5 * params.iota[1] * ah_sq, b1=0.0, b2=-0.5 * ah_sq, alpha=ah
    )


# ---------------------------------------------------------------------------
# dominant eigenpair and change of measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PfSolution:
    """Eigenvalue eta_hat, eigenfunction exponents (e1, e2) and the martingale
    loading alpha_h of the associated change of measure."""

    eta_hat: float
    e1: float
    e2: float
    alpha_h: NDArray[np.float64]
    eta_other: float
    e2_other: float


def _pf_eta(params: LrrParams, sdf: AffineFunctional, e1: float, e2: float) -> float:
    i1, i2 = params.iota
    return (
        sdf.b0
        - sdf.b1 * i1
        - sdf.b2 * i2
        - e1 * (params.mu_11 * i1 + params.mu_12 * i2)
        - e2 * params.mu_22 * i2
    )


def pf_equation_residuals(
    params: LrrParams, sdf: AffineFunctional, pf: PfSolution
) -> NDArray[np.float64]:
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    a = sdf.alpha
    load = pf.e1 * s1 + pf.e2 * s2
    return np.array(
        [
            pf.eta_hat - _pf_eta(params, sdf, pf.e1, pf.e2),
            sdf.b1 + params.mu_11 * pf.e1,
            sdf.b2
            + 0.5 * float(a @ a)
            + pf.e1 * params.mu_12
            + pf.e2 * params.mu_22
            + float(load @ a)
            + 0.5 * float(load @ load),
        ]
    )


def solve_pf(params: LrrParams, sdf: AffineFunctional) -> PfSolution:
    """Dominant eigenpair of the pricing semigroup for exp(e1 x1 + e2 x2).

    e1 solves a linear equation; e2 solves a quadratic and the root giving
    the smaller eigenvalue is returned (the other root is carried along for
    diagnostics).  The martingale loading is alpha_h = alpha_s + sigma_1' e1
    + sigma_2' e2.
    """
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    a = sdf.alpha
    e1 = -sdf.b1 / params.mu_11
    qa = 0.5 * float(s2 @ s2)
    qb = params.mu_22 + float(s2 @ a) + e1 * float(s1 @ s2)
    qc = (
        sdf.b2
        + 0.5 * float(a @ a)
        + e1 * (params.mu_12 + float(s1 @ a))
        + 0.5 * e1**2 * float(s1 @ s1)
    )
    if qa == 0.0:
        if qb == 0.0:
            raise DegenerateSelectionError("no equation pins the e2 exponent")
        roots = [-qc / qb]
    else:
        disc = qb**2 - 4.0 * qa * qc
        if disc < 0.0:
            raise ModelValidityError(
                f"eigenfunction quadratic has no real root (discriminant {disc:.3e})"
            )
        sq = np.sqrt(disc)
        roots = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
    etas = [_pf_eta(params, sdf, e1, r) for r in roots]
    order = int(np.argmin(etas))
    e2 = roots[order]
    eta = etas[order]
    other = 1 - order if len(roots) > 1 else order
    pf = PfSolution(
        eta_hat=float(eta),
        e1=float(e1),
        e2=float(e2),
        alpha_h=a + s1 * e1 + s2 * e2,
        eta_other=float(etas[other]),
        e2_other=float(roots[other]),
    )
    res = pf_equation_residuals(params, sdf, pf)
    if np.max(np.abs(res)) > 1e-12 * max(1.0, abs(eta), abs(e1), abs(e2)):
        raise ModelValidityError(f"eigenpair equations violated: residuals {res}")
    return pf


@dataclass(frozen=True)
class ChangedMeasureParams:
    """State-dynamics coefficients under the recovered measure."""

    mu_11: float
    mu_12: float
    mu_22: float
    iota_hat: NDArray[np.float64]

    def dynamics(self, params: LrrParams) -> StateDynamics:
        return StateDynamics(
            mu_11=self.mu_11,
            mu_12=self.mu_12,
            mu_22=self.mu_22,
            iota=self.iota_hat,
            sigma_1=np.asarray(params.sigma_1),
            sigma_2=np.asarray(params.sigma_2),
        )


def _shifted_dynamics(params: LrrParams, loading: NDArray[np.float64]) -> ChangedMeasureParams:
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    i1, i2 = params.iota
    mu_12 = params.mu_12 + float(s1 @ loading)
    mu_22 = params.mu_22 + float(s2 @ loading)
    if mu_22 >= 0:
        raise ModelValidityError(
            f"shifted volatility dynamics do not mean-revert (mu_22 = {mu_22:.4e})"
        )
    iota2 = params.mu_22 / mu_22 * i2
    iota1 = i1 + (params.mu_12 * i2 - mu_12 * iota2) / params.mu_11
    return ChangedMeasureParams(
        mu_11=params.mu_11,
        mu_12=mu_12,
        mu_22=mu_22,
        iota_hat=np.array([iota1, iota2]),
    )


def changed_measure(params: LrrParams, pf: PfSolution) -> ChangedMeasureParams:
    """State dynamics under the measure induced by the dominant eigenpair.

    mu_11 is unchanged; mu_12 and mu_22 pick up sigma_i . alpha_h; the means
    shift so the drift keeps the centered form.  Requires mu_22_hat < 0.
    """
    return _shifted_dynamics(params, pf.alpha_h)


def risk_neutral_dynamics(params: LrrParams, sdf: AffineFunctional) -> ChangedMeasureParams:
    """State dynamics under the measure absorbing the full shock loading of
    the discount factor (instantaneous risk neutralization)."""
    return _shifted_dynamics(params, sdf.alpha)


def change_functional_measure(
    functional: AffineFunctional,
    params: LrrParams,
    loading: NDArray[np.float64],
    cm: ChangedMeasureParams,
) -> AffineFunctional:
    """Re-express a functional's coefficients under a shifted measure.

    ``loading`` is the martingale loading of the measure change (alpha_h for
    the recovered measure, alpha_s for the risk-neutral one); the returned
    coefficients are centered at the new iota.
    """
    i1, i2 = params.iota
    ih1, ih2 = cm.iota_hat
    cross = float(functional.alpha @ loading)
    return AffineFunctional(
        b0=functional.b0
        + functional.b1 * (ih1 - i1)
        + functional.b2 * (ih2 - i2)
        + cross * ih2,
        b1=functional.b1,
        b2=functional.b2 + cross,
        alpha=functional.alpha,
    )


def recovered_sdf_functional(
    params: LrrParams, pf: PfSolution, cm: ChangedMeasureParams
) -> AffineFunctional:
    """The trend/eigenfunction part exp(eta t) e(X_0)/e(X_t) as a functional
    under the recovered measure (its log is linear in the state, so there is
    no Ito correction)."""
    s1 = np.asarray(params.sigma_1)
    s2 = np.asarray(params.sigma_2)
    return AffineFunctional(
        b0=pf.eta_hat,
        b1=-pf.e1 * cm.mu_11,
        b2=-(pf.e1 * cm.mu_12 + pf.e2 * cm.mu_22),
        alpha=-(pf.e1 * s1 + pf.e2 * s2),
    )


# ---------------------------------------------------------------------------
# affine conditional expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineExpectationCoeffs:
    """Integrated exponents: E[M_t | x] = exp(theta0 + theta1 x1 + theta2 x2).

    Holds a dense grid plus the underlying interpolant for evaluation at
    arbitrary horizons up to ``t_max``.
    """

    t_grid: NDArray[np.float64]
    theta0: NDArray[np.float64]
    theta1: NDArray[np.float64]
    theta2: NDArray[np.float64]
    _sol: object

    @property
    def t_max(self) -> float:
        return float(self.t_grid[-1])

    def evaluate(self, t: float) -> tuple[float, float, float]:
        if t < 0 or t > self.t_max * (1 + 1e-12):
            raise ValueError(f"horizon {t} outside the integrated range")
        th = self._sol.sol(min(t, self.t_max))
        return float(th[0]), float(th[1]), float(th[2])

    def expectation(self, t: float, x) -> float:
        t0, t1, t2 = self.evaluate(t)
        x = np.asarray(x, dtype=float)
        return float(np.exp(t0 + t1 * x[0] + t2 * x[1]))

    def log_expectation_at(
        self, t: float, x1: NDArray[np.float64], x2: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        t0, t1, t2 = self.evaluate(t)
        return t0 + t1 * x1 + t2 * x2


def solve_affine_ode(
    functional: AffineFunctional,
    dynamics: StateDynamics,
    t_max: float,
    atol: float = 1e-12,
    rtol: float = 1e-12,
    n_grid: int = 400,
) -> AffineExpectationCoeffs:
    """Integrate the exponent ODE system for E[M_t | x] up to t_max.

    theta1 obeys a linear equation, theta2 a Riccati equation whose quadratic
    term comes from the sqrt(x2) volatilities, and theta0 is a quadrature of
    the remaining terms:

        theta1' = b1 + mu_11 theta1
        theta2' = b2 + |alpha|^2/2 + theta1 (mu_12 + sigma_1.alpha)
                  + theta2 (mu_22 + sigma_2.alpha)
                  + (theta1^2 |sigma_1|^2 + 2 theta1 theta2 sigma_1.sigma_2
                     + theta2^2 |sigma_2|^2) / 2
        theta0' = b0 - b1 iota1 - b2 iota2
                  - theta1 (mu_11 iota1 + mu_12 iota2) - theta2 mu_22 iota2

    all starting from zero.  Adaptive 4th/5th-order integration; a Riccati
    explosion before t_max raises BlowUpError with the estimated time.
    """
    from scipy.integrate import solve_ivp  # here, so importing the package loads no scipy
    d = dynamics
    f = functional
    s11 = float(d.sigma_1 @ d.sigma_1)
    s12 = float(d.sigma_1 @ d.sigma_2)
    s22 = float(d.sigma_2 @ d.sigma_2)
    a1 = float(d.sigma_1 @ f.alpha)
    a2 = float(d.sigma_2 @ f.alpha)
    aa = float(f.alpha @ f.alpha)
    i1, i2 = d.iota

    def rhs(_t, th):
        th0, th1, th2 = th
        d1 = f.b1 + d.mu_11 * th1
        d2 = (
            f.b2
            + 0.5 * aa
            + th1 * (d.mu_12 + a1)
            + th2 * (d.mu_22 + a2)
            + 0.5 * (th1 * th1 * s11 + 2.0 * th1 * th2 * s12 + th2 * th2 * s22)
        )
        d0 = (
            f.b0
            - f.b1 * i1
            - f.b2 * i2
            - th1 * (d.mu_11 * i1 + d.mu_12 * i2)
            - th2 * d.mu_22 * i2
        )
        return (d0, d1, d2)

    def blown_up(_t, th):
        return max(abs(th[1]), abs(th[2])) - 1e8

    blown_up.terminal = True
    blown_up.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, float(t_max)),
        np.zeros(3),
        method="RK45",
        dense_output=True,
        atol=atol,
        rtol=rtol,
        events=blown_up,
    )
    if sol.status == 1 and sol.t_events[0].size:
        raise BlowUpError(
            f"exponent ODE explodes near t = {sol.t_events[0][0]:.4f}",
            blow_up_time=float(sol.t_events[0][0]),
        )
    if not sol.success:
        raise ModelValidityError(f"exponent ODE integration failed: {sol.message}")
    grid = np.linspace(0.0, float(t_max), n_grid)
    vals = sol.sol(grid)
    return AffineExpectationCoeffs(
        t_grid=grid, theta0=vals[0], theta1=vals[1], theta2=vals[2], _sol=sol
    )


def affine_expectation(
    functional: AffineFunctional,
    dynamics: StateDynamics,
    horizon: float,
    x,
) -> float:
    """E[M_t | X_0 = x] for one horizon (integrates the exponent ODEs)."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon == 0:
        return 1.0
    return solve_affine_ode(functional, dynamics, horizon).expectation(horizon, x)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _corr_sqrt(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """A square root of the Gram matrix of the rows, with its null columns dropped.

    Only the joint law of the row shocks matters, so they are drawn from as
    many standard normals as the rows have independent directions.
    """
    w, v = np.linalg.eigh(rows @ rows.T)
    keep = w > rows.shape[0] * np.finfo(float).eps * w.max(initial=0.0)
    return v[:, keep] * np.sqrt(w[keep])[None, :]


_CHUNK_PATHS = 50_000  # keeps the working set cache-resident


def _shock_loads(d: StateDynamics, functionals: Sequence[AffineFunctional], h: float):
    """(coef, loads, w1): given the martingale increment y of X2 over a step
    and its integral I, the step's shocks are coef * y + sqrt(I) loads @ z,
    z standard normal.

    Rows: the exponentially weighted integral of sigma_1.dW that the exact X1
    propagator needs; then, only with functionals, the plain integrals of
    sigma_1.dW and of each functional's alpha.dW.  Each plain row splits into
    its part along sigma_2, fixed by y, and an independent Gaussian part.  The
    weighted row is w1 times the plain one plus an independent residual of
    variance (w2 - w1^2) |sigma_1|^2 I (its regression on the plain integral),
    where w1 = expm1(mu_11 h) / (mu_11 h) and w2 = expm1(2 mu_11 h) / (2 mu_11 h).
    """
    s22 = float(d.sigma_2 @ d.sigma_2)
    along = d.sigma_2 / s22 if s22 > 0.0 else np.zeros_like(d.sigma_2)
    plain = np.vstack(
        [d.sigma_1] + ([d.sigma_1] if functionals else []) + [f.alpha for f in functionals]
    )
    coef = plain @ along
    perp = plain - coef[:, None] * d.sigma_2[None, :]
    k = d.mu_11 * h  # negative
    w1 = float(np.expm1(k) / k)
    resid = np.sqrt(max(float(np.expm1(2.0 * k) / (2.0 * k)) - w1 * w1, 0.0))
    coef[0] *= w1
    perp[0] *= w1
    extra = np.zeros((plain.shape[0], 1))
    extra[0] = resid * np.linalg.norm(d.sigma_1)
    return coef, _corr_sqrt(np.hstack([perp, extra])), w1


def _simulate_chunk(
    dynamics: StateDynamics,
    functionals: Sequence[AffineFunctional],
    n_steps: int,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    start: NDArray[np.float64],
    record_steps: dict,
):
    d = dynamics
    i1, i2 = d.iota
    c1 = np.full(n_paths, start[0] - i1)
    x2 = np.full(n_paths, start[1])
    logs = [np.zeros(n_paths) for _ in functionals]
    snapshots: dict[float, list[NDArray[np.float64]]] = {}
    coef, loads, w1 = _shock_loads(d, functionals, dt)
    decay = np.exp(d.mu_11 * dt)  # the X1 propagator
    z = np.empty((loads.shape[1], n_paths))
    shocks = np.empty((loads.shape[0], n_paths))
    s22 = float(d.sigma_2 @ d.sigma_2)
    for step in range(1, n_steps + 1):
        x2, integral, y2 = square_root_step(x2, -d.mu_22 * i2, -d.mu_22, s22, dt, rng)
        j2 = integral - i2 * dt  # integral of the centred volatility state
        rng.standard_normal(out=z)
        np.matmul(loads, z, out=shocks)
        shocks *= np.sqrt(integral)
        shocks += coef[:, None] * y2
        c1_new = decay * c1 + (d.mu_12 * w1) * j2 + shocks[0]
        if functionals:
            # integral of the centred X1 from its increment (the X1 equation)
            int_c1 = (c1_new - c1 - d.mu_12 * j2 - shocks[1]) / d.mu_11
            for idx, f in enumerate(functionals):
                logs[idx] += f.b0 * dt + f.b1 * int_c1 + f.b2 * j2 + shocks[2 + idx]
        c1 = c1_new
        if step in record_steps:
            snapshots[record_steps[step]] = [lg.copy() for lg in logs]
    return c1 + i1, x2, logs, snapshots


def _simulate_core(
    dynamics: StateDynamics,
    functionals: Sequence[AffineFunctional],
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    x0: Optional[NDArray[np.float64]],
    record_times: Sequence[float] = (),
):
    """Ensemble of (X1, X2) plus log functionals on a grid of step dt.

    X2 takes exact square-root transitions (``sqroot.square_root_step``).  X1
    advances by the Ornstein-Uhlenbeck propagator e^{mu_11 dt} and each log
    functional by its increment, both conditionally Gaussian given the X2
    endpoints, with the trapezoid rule for the integral of X2 (see
    ``_shock_loads``).  X2 never goes negative, so no path is truncated.

    Paths are processed in fixed-size chunks with deterministic per-chunk
    sub-seeds, so results depend only on the seed, never on scheduling or
    aggregation order.  Returns terminal (x1, x2, logs[list]) plus snapshots
    of the accumulated log functionals at ``record_times``.
    """
    d = dynamics
    start = d.iota if x0 is None else np.asarray(x0, dtype=float)
    for t in (horizon, *record_times):
        if abs(round(t / dt) * dt - t) > 1e-9 * max(t, dt):
            raise ValueError(f"horizon {t} is not a multiple of the step dt = {dt}")
    n_steps = int(round(horizon / dt))
    record_steps = {int(round(t / dt)): t for t in record_times}

    sizes = [_CHUNK_PATHS] * (n_paths // _CHUNK_PATHS)
    if n_paths % _CHUNK_PATHS:
        sizes.append(n_paths % _CHUNK_PATHS)
    parts = []
    for idx, size in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        parts.append(
            _simulate_chunk(
                dynamics, functionals, n_steps, dt, size, rng, start, record_steps
            )
        )
    x1 = np.concatenate([p[0] for p in parts])
    x2 = np.concatenate([p[1] for p in parts])
    logs = [
        np.concatenate([p[2][i] for p in parts]) for i in range(len(functionals))
    ]
    snapshots = {
        t: [np.concatenate([p[3][t][i] for p in parts]) for i in range(len(functionals))]
        for t in record_steps.values()
    }
    return x1, x2, logs, snapshots


@dataclass(frozen=True)
class DensityResult:
    mean: NDArray[np.float64]
    cov: NDArray[np.float64]
    hist: NDArray[np.float64]
    x1_edges: NDArray[np.float64]
    x2_edges: NDArray[np.float64]
    n_nan: int


def simulate_states(
    dynamics: StateDynamics,
    horizon: float,
    dt: float = DT_DEFAULT,
    n_paths: int = 100_000,
    seed: int = 0,
    x0=None,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Terminal (X1, X2) draws after evolving n_paths from x0 (default iota)."""
    x1, x2, _, _ = _simulate_core(dynamics, [], horizon, dt, n_paths, seed, x0)
    return x1, x2


def stationary_density(
    dynamics: StateDynamics,
    n_paths: int = 100_000,
    burn_in: float = 600.0,
    seed: int = 0,
    dt: float = DT_DEFAULT,
    bins: int = 100,
) -> DensityResult:
    """Stationary density from one draw per path after a burn-in from the mean state."""
    x1, x2 = simulate_states(dynamics, burn_in, dt, n_paths, seed)
    return density_from_draws(x1, x2, bins)


def density_from_draws(
    x1: NDArray[np.float64], x2: NDArray[np.float64], bins: int = 100
) -> DensityResult:
    """Moments and a mean +/- 4 sd histogram of the finite (X1, X2) draws."""
    ok = np.isfinite(x1) & np.isfinite(x2)
    n_nan = int(np.sum(~ok))
    x1, x2 = x1[ok], x2[ok]
    mean = np.array([x1.mean(), x2.mean()])
    cov = np.cov(np.vstack([x1, x2]))
    sd = np.sqrt(np.diag(cov))
    edges1 = np.linspace(mean[0] - 4 * sd[0], mean[0] + 4 * sd[0], bins + 1)
    edges2 = np.linspace(mean[1] - 4 * sd[1], mean[1] + 4 * sd[1], bins + 1)
    hist, _, _ = np.histogram2d(x1, x2, bins=[edges1, edges2])
    hist /= hist.sum()
    return DensityResult(
        mean=mean, cov=cov, hist=hist, x1_edges=edges1, x2_edges=edges2, n_nan=n_nan
    )


@dataclass(frozen=True)
class FunctionalMoments:
    horizon: float
    mean: float
    se: float
    n_nan: int


def simulate_functional(
    functional: AffineFunctional,
    dynamics: StateDynamics,
    horizons: Sequence[float],
    dt: float = DT_DEFAULT,
    n_paths: int = 100_000,
    seed: int = 0,
    x0=None,
) -> list[FunctionalMoments]:
    """Monte Carlo E[M_t | x0] with standard errors at several horizons.

    This is the oracle used to validate the exponent ODE system.
    """
    t_max = float(max(horizons))
    _, _, _, snaps = _simulate_core(
        dynamics, [functional], t_max, dt, n_paths, seed, x0, record_times=horizons
    )
    out = []
    for t in horizons:
        m = np.exp(snaps[float(t)][0])
        ok = np.isfinite(m)
        out.append(
            FunctionalMoments(
                horizon=float(t),
                mean=float(np.mean(m[ok])),
                se=float(np.std(m[ok], ddof=1) / np.sqrt(ok.sum())),
                n_nan=int(np.sum(~ok)),
            )
        )
    return out


def cir_stationary_moments(dynamics: StateDynamics) -> tuple[float, float]:
    """Stationary mean and variance of the volatility factor."""
    i2 = float(dynamics.iota[1])
    s22 = float(dynamics.sigma_2 @ dynamics.sigma_2)
    return i2, s22 * i2 / (-2.0 * dynamics.mu_22)


# ---------------------------------------------------------------------------
# yields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YieldCurves:
    """Annualized yield quartiles per horizon under both measures.

    quartiles_* has shape (3, len(horizons)) holding the 25/50/75 percent
    points of the yield distribution over states drawn from the respective
    stationary law.
    """

    horizons: NDArray[np.float64]
    quartiles_p: NDArray[np.float64]
    quartiles_p_hat: NDArray[np.float64]
    eta_hat: float


def yield_curves(
    params: LrrParams,
    horizons: Sequence[float],
    cash_flow: str = "consumption",
    n_paths: int = 20_000,
    burn_in: float = 600.0,
    dt: float = DT_DEFAULT,
    seed: int = 0,
    state_draws=None,
) -> YieldCurves:
    """Yield curves on a growing or riskless cash flow under P and P-hat.

    The horizon-t yield in state x is (1/t) [log E_m(G_t | x)
    - log E(S_t G_t | x)], annualized.  The price in the denominator is the
    same under both measures; the forecast in the numerator uses the measure
    attached to each curve, and the states x are drawn from that measure's
    stationary law.  ``state_draws`` may supply precomputed draws as a pair
    ((x1_p, x2_p), (x1_hat, x2_hat)) to share across cash flows.
    """
    if cash_flow not in ("consumption", "bond"):
        raise ValueError("cash_flow must be 'consumption' or 'bond'")
    horizons = np.asarray(sorted(horizons), dtype=float)
    if np.any(horizons <= 0):
        raise ValueError("horizons must be positive")
    value = solve_value_function(params)
    sdf = sdf_coefficients(params, value)
    pf = solve_pf(params, sdf)
    cm = changed_measure(params, pf)
    dyn_p = params.dynamics()
    dyn_hat = cm.dynamics(params)

    g = consumption_functional(params) if cash_flow == "consumption" else unit_functional()
    g_hat = change_functional_measure(g, params, pf.alpha_h, cm)
    t_max = float(horizons[-1])
    th_g = solve_affine_ode(g, dyn_p, t_max)
    th_price = solve_affine_ode(add_functionals(sdf, g), dyn_p, t_max)
    th_g_hat = solve_affine_ode(g_hat, dyn_hat, t_max)

    if state_draws is None:
        x1p, x2p = simulate_states(dyn_p, burn_in, dt, n_paths, seed)
        x1h, x2h = simulate_states(dyn_hat, burn_in, dt, n_paths, seed + 1)
    else:
        (x1p, x2p), (x1h, x2h) = state_draws

    q_p = np.empty((3, horizons.size))
    q_hat = np.empty((3, horizons.size))
    for k, t in enumerate(horizons):
        log_price = th_price.log_expectation_at(t, x1p, x2p)
        y_p = (th_g.log_expectation_at(t, x1p, x2p) - log_price) / t
        log_price_hat = th_price.log_expectation_at(t, x1h, x2h)
        y_hat = (th_g_hat.log_expectation_at(t, x1h, x2h) - log_price_hat) / t
        q_p[:, k] = np.quantile(y_p, [0.25, 0.5, 0.75]) * MONTHS_PER_YEAR
        q_hat[:, k] = np.quantile(y_hat, [0.25, 0.5, 0.75]) * MONTHS_PER_YEAR
    return YieldCurves(
        horizons=horizons,
        quartiles_p=q_p,
        quartiles_p_hat=q_hat,
        eta_hat=pf.eta_hat,
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

_PARAM_FIELDS = (
    "mu_11",
    "mu_12",
    "mu_22",
    "sigma_1",
    "sigma_2",
    "iota",
    "beta_c",
    "alpha_c",
    "delta",
    "gamma",
)


def params_to_dict(params: LrrParams) -> dict:
    out = {}
    for name in _PARAM_FIELDS:
        val = getattr(params, name)
        out[name] = list(val) if isinstance(val, (tuple, list, np.ndarray)) else val
    return out


def params_from_dict(payload: dict) -> LrrParams:
    kwargs = {}
    for name in _PARAM_FIELDS:
        if name in payload:
            val = payload[name]
            kwargs[name] = tuple(val) if isinstance(val, list) else val
    unknown = set(payload) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
    return LrrParams(**kwargs)


def load_default_params() -> LrrParams:
    ref = resources.files("recovery_lab").joinpath("data/lrr_default.json")
    return params_from_dict(json.loads(ref.read_text(encoding="utf-8")))


def apply_overrides(params: LrrParams, overrides: dict) -> LrrParams:
    """Patch scalar parameters by name (vectors are replaced wholesale)."""
    unknown = set(overrides) - set(_PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown parameter overrides: {sorted(unknown)}")
    return replace(params, **overrides)
