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
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Callable, Optional, Sequence

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
    "AffineExpectationCoeffs",
    "DensityResult",
    "FunctionalMoments",
    "YieldCurves",
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
    "simulate_states",
    "simulate_functional",
    "stationary_density",
    "density_from_draws",
    "yield_curves",
    "stationary_moments",
    "StationaryLaw",
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


_VECTOR_LENGTHS = {"sigma_1": 3, "sigma_2": 3, "iota": 2, "beta_c": 3, "alpha_c": 3}


def _finite_real(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and math.isfinite(value)


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
        for field in fields(self):
            value = getattr(self, field.name)
            size = _VECTOR_LENGTHS.get(field.name)
            if size is None:
                if not _finite_real(value):
                    raise ValueError(f"{field.name} must be a finite real number, got {value!r}")
                continue
            vector = isinstance(value, (tuple, list)) or (
                isinstance(value, np.ndarray) and value.ndim == 1
            )
            if not (vector and len(value) == size and all(map(_finite_real, value))):
                raise ValueError(f"{field.name} must be {size} finite real numbers, got {value!r}")
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


def _shifted_dynamics(params: LrrParams, loading: NDArray[np.float64]) -> StateDynamics:
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
    return StateDynamics(
        mu_11=params.mu_11,
        mu_12=mu_12,
        mu_22=mu_22,
        iota=np.array([iota1, iota2]),
        sigma_1=s1,
        sigma_2=s2,
    )


def changed_measure(params: LrrParams, pf: PfSolution) -> StateDynamics:
    """State dynamics under the measure induced by the dominant eigenpair.

    mu_11 and the volatilities are unchanged; mu_12 and mu_22 pick up
    sigma_i . alpha_h; the means shift so the drift keeps the centered form.
    Requires mu_22_hat < 0.
    """
    return _shifted_dynamics(params, pf.alpha_h)


def risk_neutral_dynamics(params: LrrParams, sdf: AffineFunctional) -> StateDynamics:
    """State dynamics under the measure absorbing the full shock loading of
    the discount factor (instantaneous risk neutralization)."""
    return _shifted_dynamics(params, sdf.alpha)


def change_functional_measure(
    functional: AffineFunctional,
    params: LrrParams,
    loading: NDArray[np.float64],
    cm: StateDynamics,
) -> AffineFunctional:
    """Re-express a functional's coefficients under a shifted measure.

    ``loading`` is the martingale loading of the measure change (alpha_h for
    the recovered measure, alpha_s for the risk-neutral one) and ``cm`` the
    dynamics it leads to; the returned coefficients are centered at their
    iota.
    """
    i1, i2 = params.iota
    ih1, ih2 = cm.iota
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


def recovered_sdf_functional(pf: PfSolution, dynamics: StateDynamics) -> AffineFunctional:
    """The trend/eigenfunction part exp(eta t) e(X_0)/e(X_t) as a functional
    under the recovered measure, whose dynamics ``changed_measure`` gives
    (its log is linear in the state, so there is no Ito correction)."""
    return AffineFunctional(
        b0=pf.eta_hat,
        b1=-pf.e1 * dynamics.mu_11,
        b2=-(pf.e1 * dynamics.mu_12 + pf.e2 * dynamics.mu_22),
        alpha=-(pf.e1 * dynamics.sigma_1 + pf.e2 * dynamics.sigma_2),
    )


# ---------------------------------------------------------------------------
# affine conditional expectations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineExpectationCoeffs:
    """Integrated exponents: E[M_t | x] = exp(theta0 + theta1 x1 + theta2 x2).

    Evaluates the exponents at any horizon up to ``t_max`` by one propagator
    step from the nearest node below.
    """

    t_max: float
    _at: Callable[[NDArray[np.float64]], NDArray[np.float64]]

    def evaluate(self, t: float) -> tuple[float, float, float]:
        if t < 0 or t > self.t_max * (1 + 1e-12):
            raise ValueError(f"horizon {t} outside the integrated range")
        th = self._at(np.array([min(t, self.t_max)]))[:, 0]
        return float(th[0]), float(th[1]), float(th[2])

    def expectation(self, t: float, x) -> float:
        t0, t1, t2 = self.evaluate(t)
        x = np.asarray(x, dtype=float)
        return float(np.exp(t0 + t1 * x[0] + t2 * x[1]))


_STEP_GROWTH = 5.0  # a propagator step grows like exp(-mu_11 t / _STEP_GROWTH)
_TAIL = 1e-18  # size of the theta1-driven terms where they count as converged
_EXPONENT_STEPS = 1024  # exponent propagator steps up to where theta1 has converged
_EXPONENT_RATE_STEP = 0.5  # bound on |eigenvalue| x length of an exponent step
_PHI_NODES = 6  # Gauss-Legendre nodes of phi1(Omega) over one exponent step


def _expm2(o11, o12, o21, o22):
    """Entries of exp([[o11, o12], [o21, o22]]) for arrays of 2x2 matrices.

    With h the half trace and N the traceless part, N^2 = delta I, so
    exp = e^h (cosh(s) I + sinh(s)/s N), s^2 = delta, written with
    e^(h +/- s) so that neither factor overflows alone.  s is complex when a
    real matrix has complex eigenvalues; real matrices get real entries.
    """
    half = 0.5 * (o11 + o22)
    n11 = 0.5 * (o11 - o22)
    delta = n11 * n11 + o12 * o21
    s = np.sqrt(np.asarray(delta, dtype=complex))
    up, down = np.exp(half + s), np.exp(half - s)
    cosh = 0.5 * (up + down)
    small = np.abs(delta) < 1e-2  # sinh(s)/s by its series, without cancellation
    series = np.exp(half) * (
        1.0 + delta * (1 / 6 + delta * (1 / 120 + delta * (1 / 5040 + delta / 362880)))
    )
    sinhc = np.where(small, series, 0.5 * (up - down) / np.where(small, 1.0, s))
    entries = cosh + sinhc * n11, sinhc * o12, sinhc * o21, cosh - sinhc * n11
    return entries if np.iscomplexobj(delta) else tuple(e.real for e in entries)


def _magnus_omega(h, b_a, b_b, c_a, c_b, top=1.0):
    """Omega of one 4th-order Magnus step of y' = [[0, top], [c, b]] y.

    (b, c) are taken at the step's two Gauss-Legendre points a and b, and
    Omega = h (A_a + A_b) / 2 + sqrt(3) h^2 / 12 [A_b, A_a].  Returns
    (o11 / top, o12 / top, o21, o22): the first row without its factor top,
    which a caller may need exactly.
    """
    k = (np.sqrt(3.0) / 12.0) * h * h
    r11 = k * (c_a - c_b)
    r12 = h + k * (b_a - b_b)
    o21 = 0.5 * h * (c_a + c_b) + k * (b_b * c_a - b_a * c_b)
    o22 = 0.5 * h * (b_a + b_b) - top * r11
    return r11, r12, o21, o22


def _exponent_path(functional: AffineFunctional, dynamics: StateDynamics, t_max: float):
    """(theta0, theta1, theta2) of E[M_t | x] as a function of t in [0, t_max].

    theta1 = p (1 - e^{mu_11 t}), p = -b1 / mu_11, in closed form.  With
    R = |sigma_2|^2 / 2, theta2 = -z / w for the linear system

        w' = R z,   z' = -C(t) w + B(t) z,   w(0) = 1, z(0) = 0,

    B = mu_22 + sigma_2.alpha + s12 theta1 and C the rest of the Riccati
    right-hand side, which turns its quadratic term into a linear one.  It
    is stepped by the 4th-order Magnus propagator that ``_transform_nodes``
    uses: ``_EXPONENT_STEPS`` steps uniform in 1 - exp(mu_11 t / _STEP_GROWTH)
    up to where theta1 has converged, past which B and C are constant and
    each step is exact; every step is cut so that it spans at most
    ``_EXPONENT_RATE_STEP`` over the estimated largest eigenvalue of the
    system.  The integral of theta2 over a step is -log(w1 / w0) / R, and
    w1 / w0 - 1 = R g, where g is the first row of Omega / R times
    phi1(Omega) (Gauss-Legendre in s over exp(s Omega)) applied to the state:
    R is factored out exactly, so the integral keeps its digits however small
    R is.  theta0 follows from the closed-form integral of theta1 and that
    of theta2.  If w reaches 0 before t_max, theta2 explodes there and
    BlowUpError carries that time.  The result depends on t_max only through
    the last step.
    """
    d, f = dynamics, functional
    s11 = float(d.sigma_1 @ d.sigma_1)
    s12 = float(d.sigma_1 @ d.sigma_2)
    r = 0.5 * float(d.sigma_2 @ d.sigma_2)
    beta = d.mu_22 + float(d.sigma_2 @ f.alpha)
    gamma0 = f.b2 + 0.5 * float(f.alpha @ f.alpha)
    gamma1 = d.mu_12 + float(d.sigma_1 @ f.alpha)
    p = -f.b1 / d.mu_11
    i1, i2 = d.iota
    # Gauss-Legendre nodes and weights on [0, 1]
    gl_x, gl_w = np.polynomial.legendre.leggauss(_PHI_NODES)
    gl_x, gl_w = 0.5 * (gl_x + 1.0), 0.5 * gl_w

    def theta1(t):
        return -p * np.expm1(d.mu_11 * t)

    def steps(t, h):
        """Per step [t, t + h]: (E21, E22) of the propagator E and (g0, g1),
        with w1 / w0 - 1 = R (g0 + g1 zeta) for the state (1, zeta) at t."""
        mid = t + 0.5 * h
        off = h * (np.sqrt(3.0) / 6.0)
        th = theta1(mid - off), theta1(mid + off)
        b = [beta + s12 * x for x in th]
        c = [-(gamma0 + x * (gamma1 + 0.5 * s11 * x)) for x in th]
        r11, r12, o21, o22 = _magnus_omega(h, b[0], b[1], c[0], c[1], top=r)
        omega = (r * r11, r * r12, o21, o22)
        _, _, e21, e22 = _expm2(*omega)
        phi = [0.0] * 4
        for x, w in zip(gl_x, gl_w):
            phi = [acc + w * e for acc, e in zip(phi, _expm2(*(x * o for o in omega)))]
        return e21, e22, r11 * phi[0] + r12 * phi[2], r11 * phi[1] + r12 * phi[3]

    # step length cap from the eigenvalues of [[0, R], [-C, B]] at theta1 = 0 and p
    th = np.array([0.0, p])
    b_end = beta + s12 * th
    c_end = -(gamma0 + th * (gamma1 + 0.5 * s11 * th))
    rate = float(np.max(np.abs(0.5 * b_end) + np.sqrt(np.abs(0.25 * b_end**2 + r * c_end))))
    cap = _EXPONENT_RATE_STEP / rate if rate > 0.0 else np.inf
    if p != 0.0:  # stretched steps up to where theta1 has converged
        grid = np.linspace(0.0, -np.expm1(np.log(_TAIL) / _STEP_GROWTH), _EXPONENT_STEPS + 1)
        t = _STEP_GROWTH * np.log1p(-grid) / d.mu_11
    else:
        t = np.zeros(1)
    h = np.diff(t)
    pieces = np.maximum(np.ceil(h / cap), 1).astype(int)
    within = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    t = np.append(np.repeat(t[:-1], pieces) + np.repeat(h / pieces, pieces) * within, t[-1])
    if np.isfinite(cap):
        t = np.append(t, t[-1] + cap * np.arange(1, np.ceil((t_max - t[-1]) / cap) + 1))
    t = np.append(t[t < t_max], t_max)

    e21, e22, g0, g1 = (v.tolist() for v in steps(t[:-1], np.diff(t)))
    zeta = [0.0] * t.size  # -theta2 at the nodes
    int2 = [0.0] * t.size  # integral of theta2 up to the nodes
    z = acc = 0.0
    for k in range(t.size - 1):
        g = g0[k] + g1[k] * z
        delta = r * g
        if not delta > -1.0:  # w reaches 0 within the step: find where
            lo, hi = 0.0, float(t[k + 1] - t[k])
            for _ in range(60):
                tau = 0.5 * (lo + hi)
                _, _, a0, a1 = steps(t[k : k + 1], np.array([tau]))
                if 1.0 + r * float(a0[0] + a1[0] * z) > 0.0:
                    lo = tau
                else:
                    hi = tau
            t_blow = float(t[k]) + 0.5 * (lo + hi)
            raise BlowUpError(
                f"exponent ODE explodes near t = {t_blow:.4f}", blow_up_time=t_blow
            )
        acc -= g * (math.log1p(delta) / delta if delta else 1.0)  # -log(w1 / w0) / R
        z = (e21[k] + e22[k] * z) / (1.0 + delta)
        zeta[k + 1], int2[k + 1] = z, acc
    if not (np.isfinite(z) and np.isfinite(acc)):
        raise ModelValidityError("exponent propagator overflowed")
    zeta, int2 = np.array(zeta), np.array(int2)

    def at(ts: NDArray[np.float64]) -> NDArray[np.float64]:
        k = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, t.size - 1)
        e21, e22, g0, g1 = steps(t[k], ts - t[k])
        g = g0 + g1 * zeta[k]
        delta = r * g
        th2 = -(e21 + e22 * zeta[k]) / (1.0 + delta)
        moved = delta != 0.0  # log1p(delta) / delta, continued by 1 at 0
        int_th2 = int2[k] - g * np.where(moved, np.log1p(delta) / np.where(moved, delta, 1.0), 1.0)
        int_th1 = p * (ts - np.expm1(d.mu_11 * ts) / d.mu_11)
        th0 = (
            (f.b0 - f.b1 * i1 - f.b2 * i2) * ts
            - (d.mu_11 * i1 + d.mu_12 * i2) * int_th1
            - d.mu_22 * i2 * int_th2
        )
        return np.vstack([th0, theta1(ts), th2])

    return at


def solve_affine_ode(
    functional: AffineFunctional,
    dynamics: StateDynamics,
    t_max: float,
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

    all starting from zero.  theta1 is closed-form and theta2 comes from a
    Magnus propagator of the linearised Riccati equation
    (``_exponent_path``); a Riccati explosion before t_max raises
    BlowUpError with the time at which the linearisation reaches zero.
    """
    t_max = float(t_max)
    return AffineExpectationCoeffs(t_max=t_max, _at=_exponent_path(functional, dynamics, t_max))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _corr_sqrt(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """A square root of the Gram matrix of the rows, with its null columns dropped.

    Only the joint law of the row shocks matters, so they are drawn from as
    many standard normals as the rows have independent directions.  The
    factor is the rows in an orthonormal basis of their span, V sqrt(W) for
    the eigenpairs (W, V) of the Gram matrix written as rows @ basis: a
    linear map applied to every row keeps linear relations between rows
    (alpha_h = alpha_s + e1 sigma_1 + e2 sigma_2) to round-off, where the
    eigenvector of a tiny eigenvalue, accurate only to eps |G| / w, would
    break them.
    """
    w, v = np.linalg.eigh(rows @ rows.T)
    keep = w > rows.shape[0] * np.finfo(float).eps * w.max(initial=0.0)
    return rows @ (rows.T @ (v[:, keep] / np.sqrt(w[keep])[None, :]))


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
    along = np.empty_like(shocks)
    # c1 and the shocks are updated in place, in the order of the formulas
    c1_new, j2, term = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
    s22 = float(d.sigma_2 @ d.sigma_2)
    for step in range(1, n_steps + 1):
        x2, integral, y2 = square_root_step(x2, -d.mu_22 * i2, -d.mu_22, s22, dt, rng)
        np.subtract(integral, i2 * dt, out=j2)  # integral of the centred X2
        rng.standard_normal(out=z)
        np.matmul(loads, z, out=shocks)
        shocks *= np.sqrt(integral, out=integral)
        shocks += np.multiply(coef[:, None], y2, out=along)
        # c1_new = decay c1 + mu_12 w1 j2 + shocks[0]
        np.multiply(c1, decay, out=c1_new)
        c1_new += np.multiply(j2, d.mu_12 * w1, out=term)
        c1_new += shocks[0]
        if functionals:
            # integral of the centred X1 from its increment (the X1 equation)
            int_c1 = (c1_new - c1 - d.mu_12 * j2 - shocks[1]) / d.mu_11
            for idx, f in enumerate(functionals):
                logs[idx] += f.b0 * dt + f.b1 * int_c1 + f.b2 * j2 + shocks[2 + idx]
        c1, c1_new = c1_new, c1
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
    """Moments and binned mass of (X1, X2) on a mean +/- 4 sd grid.

    ``hist`` is normalised to the grid; ``mass_outside_grid`` is the share of
    the law the grid leaves out, and ``n_nan`` counts dropped draws (always 0
    for an exact law)."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]
    hist: NDArray[np.float64]
    x1_edges: NDArray[np.float64]
    x2_edges: NDArray[np.float64]
    mass_outside_grid: float
    n_nan: int = 0


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
    inside = hist.sum()
    hist /= inside
    return DensityResult(
        mean=mean,
        cov=cov,
        hist=hist,
        x1_edges=edges1,
        x2_edges=edges2,
        mass_outside_grid=1.0 - inside / x1.size,
        n_nan=n_nan,
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


# ---------------------------------------------------------------------------
# stationary laws by transform inversion
# ---------------------------------------------------------------------------

_COS_HALF_WIDTH = 12.0  # expansion box: mean +/- this many standard deviations
_COS_TERMS = 128  # cosine terms per axis of a density and per yield law
_CHEB_NODES = 48  # first Chebyshev node count in u1 of a transform table
_CHEB_MAX_NODES = 768  # node count past which a table that still misses raises
_CHEB_TOL = 1e-10  # allowed miss between nodes: relative, times |mu_22 iota2 / R|
_MAGNUS_STEPS = 256  # propagator steps of a transform table
_STEP_BLOCK = 32  # propagator steps formed at once
_MASS_FLOOR = 1e-15  # bin masses at or below this are round-off, not mass
_CHUNK_BYTES = 1 << 19  # bound on the largest temporaries of table look-ups and quantile solves


def stationary_moments(dynamics: StateDynamics) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Exact stationary mean and covariance of (X1, X2).

    The mean is iota, where the drift vanishes.  The covariance P solves the
    Lyapunov equation M P + P M' + iota2 S S' = 0, with M the triangular drift
    matrix [[mu_11, mu_12], [0, mu_22]] and S the rows sigma_1, sigma_2; the
    triangular structure gives it entry by entry.
    """
    d = dynamics
    i2 = float(d.iota[1])
    s11 = float(d.sigma_1 @ d.sigma_1)
    s12 = float(d.sigma_1 @ d.sigma_2)
    s22 = float(d.sigma_2 @ d.sigma_2)
    p22 = i2 * s22 / (-2.0 * d.mu_22)
    p12 = -(d.mu_12 * p22 + i2 * s12) / (d.mu_11 + d.mu_22)
    p11 = -(2.0 * d.mu_12 * p12 + i2 * s11) / (2.0 * d.mu_11)
    return d.iota.copy(), np.array([[p11, p12], [p12, p22]])


def _transform_nodes(d: StateDynamics, u1: NDArray[np.float64], steps: int):
    """(log alpha, gamma) at frequencies u1 >= 0, by a 4th-order Magnus propagator.

    The exponent ODE started at (i u1, i u2) has theta1 = i u1 e^{mu_11 t};
    with R = |sigma_2|^2 / 2, theta2 = -w' / (R w) turns its Riccati equation
    into the linear w'' = B(t) w' - R C(t) w, where B = mu_22 + s12 theta1
    and C = theta1 (mu_12 + s11 theta1 / 2).  Only w'(0) = -i R u2 depends on
    u2, so w = a + u2 b for two solutions a, b fixed by u1, and
    w(inf) = alpha (1 + gamma u2).  The steps are uniform in
    1 - exp(mu_11 t / _STEP_GROWTH), so they lengthen as theta1 decays; past
    the last step B and C are constant and w(inf) = w - w' / B.  log a is
    summed step by step on a continuous branch.
    """
    s11 = float(d.sigma_1 @ d.sigma_1)
    s12 = float(d.sigma_1 @ d.sigma_2)
    r = 0.5 * float(d.sigma_2 @ d.sigma_2)
    u_max = float(np.max(u1, initial=0.0))
    scale = max(abs(s12), r * abs(d.mu_12), r * s11 * u_max) * u_max / -d.mu_11
    t_end = max(np.log(scale / _TAIL), 0.0) / -d.mu_11 if scale > 0.0 else 0.0
    grid = np.linspace(0.0, -np.expm1(d.mu_11 * t_end / _STEP_GROWTH), steps + 1)
    t = _STEP_GROWTH * np.log1p(-grid) / d.mu_11
    # (a, a') and (b, b') divided by a after each step; a(0) = 1, b'(0) = -i R
    log_a = np.zeros(u1.shape, dtype=complex)
    a1 = np.zeros(u1.shape, dtype=complex)
    b0 = np.zeros(u1.shape, dtype=complex)
    b1 = np.full(u1.shape, -1j * r)
    for lo in range(0, steps, _STEP_BLOCK):  # step propagators a block at a time
        h = np.diff(t[lo : lo + _STEP_BLOCK + 1])[:, None]
        mid = t[lo : lo + h.shape[0], None] + 0.5 * h
        off = h * (np.sqrt(3.0) / 6.0)  # the two Gauss-Legendre points
        th_a = 1j * u1 * np.exp(d.mu_11 * (mid - off))
        th_b = 1j * u1 * np.exp(d.mu_11 * (mid + off))
        b_a, b_b = d.mu_22 + s12 * th_a, d.mu_22 + s12 * th_b
        c_a = -r * th_a * (d.mu_12 + 0.5 * s11 * th_a)
        c_b = -r * th_b * (d.mu_12 + 0.5 * s11 * th_b)
        e11, e12, e21, e22 = _expm2(*_magnus_omega(h, b_a, b_b, c_a, c_b))
        for n in range(h.shape[0]):
            a0 = e11[n] + e12[n] * a1
            a1, b0, b1 = (e21[n] + e22[n] * a1) / a0, (e11[n] * b0 + e12[n] * b1) / a0, (
                e21[n] * b0 + e22[n] * b1
            ) / a0
            log_a += np.log(a0)
    b_end = d.mu_22 + s12 * 1j * u1 * np.exp(d.mu_11 * t_end)
    a_inf = 1.0 - a1 / b_end
    return log_a + np.log(a_inf), (b0 - b1 / b_end) / a_inf


class StationaryLaw:
    """The stationary law of (X1, X2) under one set of affine dynamics, exactly.

    Its characteristic function comes from the exponent ODE run to
    t = infinity from a complex loading (Duffie, Pan & Singleton 2000):

        log phi(u1, u2) = i u1 (iota1 + mu_12 iota2 / mu_11)
                          + (mu_22 iota2 / R) [log alpha(u1) + Log(1 + gamma(u1) u2)],

    exact in u2 (at u1 = 0 it is the Gamma law of X2).  (log alpha, gamma) are
    tabulated once per law at Chebyshev nodes in u1 (``_transform_nodes``),
    doubled from ``_CHEB_NODES`` until the series matches the propagator
    between its nodes, and interpolated.  A cosine expansion on the box
    mean +/- 12 sd inverts it (Fang & Oosterlee 2008): in 2-D for the bin
    masses, with ``_COS_TERMS / sqrt(1 - rho^2)`` terms per axis so that a
    correlated law's ridge is resolved, and in 1-D with ``_COS_TERMS`` terms
    along each loading for the quantiles of c1 X1 + c2 X2.  A 1-D law spans
    at least sqrt(1 - rho^2) |c1| sd(X1) per sd, so its top u1 is at most
    (_COS_TERMS - 1) pi / (width of X1 sqrt(1 - rho^2)), inside the table.
    Nothing is random.
    """

    def __init__(self, dynamics: StateDynamics):
        self.dynamics = d = dynamics
        self.terms = terms = _COS_TERMS
        self.mean, self.cov = stationary_moments(d)
        var = np.diag(self.cov)
        if not np.all(var > 0.0):
            raise ModelValidityError(
                f"stationary law is degenerate (variances {var[0]:.3e}, {var[1]:.3e})"
            )
        one_m_rho2 = 1.0 - self.cov[0, 1] ** 2 / (var[0] * var[1])
        if not one_m_rho2 > 0.0:
            raise ModelValidityError("X1 and X2 are perfectly correlated in the stationary law")
        sd = np.sqrt(var)
        self.lower = self.mean - _COS_HALF_WIDTH * sd
        self.lower[1] = max(self.lower[1], 0.0)  # X2 >= 0
        self.upper = self.mean + _COS_HALF_WIDTH * sd
        r = 0.5 * float(d.sigma_2 @ d.sigma_2)
        self._kappa = d.mu_22 * d.iota[1] / r
        self._drift = d.iota[0] + d.mu_12 * d.iota[1] / d.mu_11
        # a correlated law is a ridge across the box: more terms resolve it
        spread = np.sqrt(one_m_rho2)
        self.grid_terms = int(np.ceil(terms / spread))
        width1 = self.upper[0] - self.lower[0]
        # the top u1 of the 2-D grid and of any 1-D law
        self._u_max = np.pi * max((self.grid_terms - 1) / width1, (terms - 1) / (width1 * spread))
        # Chebyshev series of Re/Im log alpha and Re/Im gamma, one row each,
        # with nodes doubled until it meets the propagator between its nodes
        nodes = _CHEB_NODES
        while True:
            x = np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
            between = np.cos(np.pi * np.arange(1, nodes) / nodes)
            u1 = 0.5 * self._u_max * (1.0 + np.concatenate([x, between]))
            log_alpha, gamma = _transform_nodes(d, u1, _MAGNUS_STEPS)
            vals = np.stack([log_alpha.real, log_alpha.imag, gamma.real, gamma.imag])
            basis = np.cos(np.outer(np.arange(nodes), np.arccos(x)))
            self._cheb = (2.0 / nodes) * vals[:, :nodes] @ basis.T
            self._cheb[:, 0] *= 0.5
            fit_alpha, fit_gamma = self._table(u1[nodes:])
            log_alpha, gamma = log_alpha[nodes:], gamma[nodes:]
            miss = abs(self._kappa) * max(
                np.max(np.abs(fit_alpha - log_alpha) / np.maximum(np.abs(log_alpha), 1.0)),
                np.max(np.abs(fit_gamma - gamma) / np.abs(gamma)),
            )
            if miss <= _CHEB_TOL:
                break
            if nodes >= _CHEB_MAX_NODES:
                raise ModelValidityError(
                    f"transform table not resolved: relative error {miss:.1e} at {nodes} nodes"
                )
            nodes *= 2

    def _table(self, u1: NDArray[np.float64]):
        """(log alpha, gamma) at u1 in [0, u_max], by Chebyshev series in chunks."""
        x = (2.0 / self._u_max) * u1.ravel() - 1.0
        out = np.empty((4, x.size))
        n = self._cheb.shape[1]
        chunk = max(_CHUNK_BYTES // (8 * n), 1)
        cheb = np.empty((n, min(chunk, x.size)))
        for lo in range(0, x.size, chunk):
            xs = x[lo : lo + chunk]
            twice = 2.0 * xs
            t = cheb[:, : xs.size]
            t[0] = 1.0
            t[1] = xs
            for k in range(2, n):
                np.multiply(twice, t[k - 1], out=t[k])
                t[k] -= t[k - 2]
            out[:, lo : lo + xs.size] = self._cheb @ t
        shape = u1.shape
        return (out[0] + 1j * out[1]).reshape(shape), (out[2] + 1j * out[3]).reshape(shape)

    def log_cf(self, u1, u2) -> NDArray[np.complex128]:
        """log E exp(i u1 X1 + i u2 X2) at 0 <= u1 <= u_max and any real u2."""
        u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
        if np.any(u1 < 0.0) or np.any(u1 > self._u_max * (1.0 + 1e-12)):
            raise ValueError("u1 outside the transform table")
        log_alpha, gamma = self._table(u1)  # at u1's own shape, before broadcasting
        return 1j * u1 * self._drift + self._kappa * (log_alpha + np.log1p(gamma * u2))

    def bin_masses(self, x1_edges, x2_edges) -> NDArray[np.float64]:
        """Probability of each cell of the grid, by a 2-D cosine expansion.

        A cosine integrates exactly over a cell; cells are clipped to the
        expansion box, outside which the law has no mass to round-off.  The
        coefficients are formed a block of u1 rows at a time.
        """
        width = self.upper - self.lower
        freq = np.arange(self.grid_terms) * np.pi / width[:, None]  # (2, grid_terms)
        cells = []
        for axis, edges in enumerate((x1_edges, x2_edges)):
            x = np.clip(np.asarray(edges, dtype=float), self.lower[axis], self.upper[axis])
            x -= self.lower[axis]
            f = freq[axis][1:, None]
            sines = np.sin(f * x[None, :]) / f
            cells.append(np.vstack([np.diff(x)[None, :], np.diff(sines, axis=1)]))
        half = np.ones(self.grid_terms)
        half[0] = 0.5  # the k = 0 term of a cosine series counts half
        w2 = freq[1][None, :]
        turn = np.exp(-1j * w2 * self.lower[1])
        mass = np.zeros((cells[0].shape[1], cells[1].shape[1]))
        block = max(_CHUNK_BYTES // (16 * self.grid_terms), 1)
        for lo in range(0, self.grid_terms, block):
            w1 = freq[0][lo : lo + block, None]
            shift = np.exp(-1j * w1 * self.lower[0])
            coef = (np.exp(self.log_cf(w1, w2)) * turn * shift).real
            coef += (np.exp(self.log_cf(w1, -w2)) * np.conj(turn) * shift).real
            coef *= (2.0 / (width[0] * width[1])) * half[lo : lo + block, None] * half[None, :]
            mass += cells[0][lo : lo + block].T @ coef @ cells[1]
        return mass

    def density(self, bins: int = 100) -> DensityResult:
        """Bin masses on the mean +/- 4 sd grid, normalised to the grid.

        Masses at round-off level (``_MASS_FLOOR``) are set to zero.
        """
        sd = np.sqrt(np.diag(self.cov))
        edges = [np.linspace(m - 4 * s, m + 4 * s, bins + 1) for m, s in zip(self.mean, sd)]
        mass = self.bin_masses(*edges)
        inside = float(mass.sum())
        mass[mass <= _MASS_FLOOR] = 0.0
        return DensityResult(
            mean=self.mean.copy(),
            cov=self.cov.copy(),
            hist=mass / mass.sum(),
            x1_edges=edges[0],
            x2_edges=edges[1],
            mass_outside_grid=max(1.0 - inside, 0.0),
        )

    def quantiles(self, loadings, probs) -> NDArray[np.float64]:
        """Quantiles at ``probs`` of c1 X1 + c2 X2 for each row (c1, c2) of
        ``loadings``, shape (rows, len(probs)).

        Each row's law is a 1-D cosine expansion on its own mean +/- 12 sd, with
        phi_Y(v) = phi(v c1, v c2) (conjugated for c1 < 0); its CDF is solved
        by Newton steps kept inside a bisection bracket.  A row of zero
        variance returns its point value.
        """
        c = np.atleast_2d(np.asarray(loadings, dtype=float))
        probs = np.asarray(probs, dtype=float)
        if np.any((probs <= 0.0) | (probs >= 1.0)):
            raise ValueError("probabilities must lie strictly between 0 and 1")
        mean = c @ self.mean
        sd = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", c, self.cov, c), 0.0))
        out = np.repeat(mean[:, None], probs.size, axis=1)
        live = np.flatnonzero(sd > 0.0)
        k = np.arange(self.terms)
        chunk = max(_CHUNK_BYTES // (24 * self.terms * probs.size), 1)
        for lo in range(0, live.size, chunk):
            rows = live[lo : lo + chunk]
            width = 2.0 * _COS_HALF_WIDTH * sd[rows]
            freq = k[None, :] * (np.pi / width[:, None])  # (rows, terms)
            flip = np.where(c[rows, 0] < 0.0, -1.0, 1.0)[:, None]
            # at most u_max by the bound in the class docstring, up to round-off
            u1 = np.minimum(freq * np.abs(c[rows, :1]), self._u_max)
            log_cf = self.log_cf(u1, freq * c[rows, 1:] * flip)
            log_cf = np.where(flip < 0.0, np.conj(log_cf), log_cf)
            start = (mean[rows] - 0.5 * width)[:, None]
            coef = (2.0 / width[:, None]) * np.exp(log_cf - 1j * freq * start).real
            coef[:, 0] *= 0.5
            out[rows] += self._invert_cdf(coef, freq, width, probs) - 0.5 * width[:, None]
        return out

    @staticmethod
    def _invert_cdf(coef, freq, width, probs):
        """x in [0, width] with sum_k coef_k int_0^x cos(freq_k s) ds = p, per row and p.

        Newton from the middle, each step kept inside the bracket the CDF
        values so far give (bisection otherwise), until a step is below
        1e-13 of the width.
        """
        lo = np.zeros((width.size, probs.size))
        hi = np.repeat(width[:, None], probs.size, axis=1)
        x = 0.5 * hi
        f = freq[:, None, 1:]
        a = coef[:, None, 1:]
        for _ in range(100):
            wave = np.exp(1j * f * x[:, :, None])
            cdf = coef[:, None, 0] * x + np.sum(a * wave.imag / f, axis=2)
            pdf = coef[:, None, 0] + np.sum(a * wave.real, axis=2)
            below = cdf < probs
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            nxt = x + (probs - cdf) / np.where(pdf > 0.0, pdf, np.inf)
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            step = np.abs(nxt - x)
            x = nxt
            if np.all(step <= 1e-13 * width[:, None]):
                break
        return x


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


def _exponents(
    functional: AffineFunctional, dynamics: StateDynamics, horizons: NDArray[np.float64]
) -> NDArray[np.float64]:
    """(theta0, theta1, theta2) of E[M_t | x] at each horizon, one row each;
    zero, without an ODE solve, for the unit functional."""
    f = functional
    if f.b0 == f.b1 == f.b2 == 0.0 and not np.any(f.alpha):
        return np.zeros((horizons.size, 3))
    return _exponent_path(f, dynamics, float(horizons[-1]))(horizons).T


def _yield_laws(
    params: LrrParams,
    sdf: AffineFunctional,
    pf: PfSolution,
    horizons: NDArray[np.float64],
    cash_flow: str,
):
    """Per measure (P, then P-hat): its dynamics and the horizon-t yield as
    (c0 + c1 x1 + c2 x2) / t, as intercepts c0 and loadings (c1, c2)."""
    dyn_p, dyn_hat = params.dynamics(), changed_measure(params, pf)
    g = consumption_functional(params) if cash_flow == "consumption" else unit_functional()
    g_hat = change_functional_measure(g, params, pf.alpha_h, dyn_hat)
    price = _exponents(add_functionals(sdf, g), dyn_p, horizons)
    out = []
    for forecast, dyn in ((g, dyn_p), (g_hat, dyn_hat)):
        th = _exponents(forecast, dyn, horizons) - price
        out.append((dyn, th[:, 0], th[:, 1:]))
    return out


def _same_dynamics(a: StateDynamics, b: StateDynamics) -> bool:
    return (a.mu_11, a.mu_12, a.mu_22) == (b.mu_11, b.mu_12, b.mu_22) and all(
        np.array_equal(getattr(a, k), getattr(b, k)) for k in ("iota", "sigma_1", "sigma_2")
    )


def yield_curves(
    params: LrrParams,
    sdf: AffineFunctional,
    pf: PfSolution,
    laws: Sequence[StationaryLaw],
    horizons: Sequence[float],
    cash_flow: str = "consumption",
) -> YieldCurves:
    """Yield curves on a growing or riskless cash flow under P and P-hat.

    The horizon-t yield in state x is (1/t) [log E_m(G_t | x)
    - log E(S_t G_t | x)], annualized.  The price in the denominator is the
    same under both measures; the forecast in the numerator uses the measure
    attached to each curve.  Both are affine in x, so each quartile over
    that measure's stationary law is exact (``StationaryLaw.quantiles``);
    nothing is simulated.  ``sdf`` and ``pf`` are the parameters' discount
    factor and eigenpair (``sdf_coefficients``, ``solve_pf``), and ``laws``
    the stationary laws (P, P-hat) of these parameters; laws of other
    dynamics raise ValueError.
    """
    if cash_flow not in ("consumption", "bond"):
        raise ValueError("cash_flow must be 'consumption' or 'bond'")
    horizons = np.asarray(sorted(horizons), dtype=float)
    if np.any(horizons <= 0):
        raise ValueError("horizons must be positive")
    per_measure = _yield_laws(params, sdf, pf, horizons, cash_flow)
    quartiles = []
    for law, (dyn, intercept, loadings) in zip(laws, per_measure):
        if not _same_dynamics(law.dynamics, dyn):
            raise ValueError("the stationary laws passed are not those of these parameters")
        q = intercept[:, None] + law.quantiles(loadings, [0.25, 0.5, 0.75])
        quartiles.append(q.T * (MONTHS_PER_YEAR / horizons))
    return YieldCurves(
        horizons=horizons,
        quartiles_p=quartiles[0],
        quartiles_p_hat=quartiles[1],
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

_PARAM_FIELDS = tuple(f.name for f in fields(LrrParams))


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
