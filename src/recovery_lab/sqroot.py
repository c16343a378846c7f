"""Square-root diffusion with state-dependent risk prices.

The state follows dX = -kappa (X - mu_bar) dt + sigma_bar sqrt(X) dW and the
log discount factor evolves as

    d log S = beta_bar dt - 0.5 X alpha_bar^2 dt + sqrt(X) alpha_bar dW.

Candidate eigenfunctions e(x) = exp(upsilon x) must make
exp(-eta t) S_t e(X_t) a (local) martingale, which pins upsilon to the roots
of   upsilon (-kappa + 0.5 upsilon sigma_bar^2 + sigma_bar alpha_bar) = 0
and eta to the constant term of the same drift identity.  Exactly one root
induces mean-reverting dynamics for X under the associated change of measure
(generic case); that root is the valid recovery.  A Monte Carlo oracle
verifies the martingale property of each candidate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import DegenerateSelectionError

__all__ = [
    "SquareRootModel",
    "EigenCandidate",
    "SimulationResult",
    "eigen_candidates",
    "drift_identity_residual",
    "select_ergodic",
    "simulate",
    "square_root_step",
    "model_from_dict",
    "model_to_dict",
    "results_to_csv",
]


@dataclass(frozen=True)
class SquareRootModel:
    """kappa, mu_bar, sigma_bar: state dynamics; alpha_bar, beta_bar: discount
    factor risk-price loading and drift constant (beta_bar < 0 so that the
    instantaneous riskless rate -beta_bar is positive)."""

    kappa: float
    mu_bar: float
    sigma_bar: float
    alpha_bar: float
    beta_bar: float

    def __post_init__(self):
        if self.kappa <= 0 or self.mu_bar <= 0 or self.sigma_bar <= 0:
            raise ValueError("kappa, mu_bar and sigma_bar must be positive")
        if self.beta_bar >= 0:
            raise ValueError("beta_bar must be negative")
        if 2.0 * self.kappa * self.mu_bar < self.sigma_bar**2:
            warnings.warn(
                "2 kappa mu_bar < sigma_bar^2: the origin is attainable",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class EigenCandidate:
    """One (upsilon, eta) root with the mean reversion it induces on X."""

    upsilon: float
    eta: float
    kappa_new: float

    @property
    def ergodic(self) -> bool:
        return self.kappa_new > 0


@dataclass(frozen=True)
class SimulationResult:
    x_mean: float
    x_var: float
    n_nan: int
    martingale_mean: Optional[float] = None
    martingale_se: Optional[float] = None
    discounted_bond_mean: Optional[float] = None
    discounted_bond_se: Optional[float] = None
    # False when the estimator behind the reported standard error (the bond
    # price, or the candidate's martingale) has infinite variance: the mean
    # is then unreliable and its standard error meaningless
    variance_finite: bool = True


def drift_identity_residual(model: SquareRootModel, cand: EigenCandidate) -> tuple[float, float]:
    """(constant, x-coefficient) residuals of the martingale drift identity."""
    const = model.beta_bar + cand.upsilon * model.kappa * model.mu_bar - cand.eta
    x_coef = (
        -0.5 * model.alpha_bar**2
        - cand.upsilon * model.kappa
        + 0.5 * (cand.upsilon * model.sigma_bar + model.alpha_bar) ** 2
    )
    return const, x_coef


def eigen_candidates(model: SquareRootModel) -> list[EigenCandidate]:
    """Both exponential eigenfunction candidates.

    upsilon = 0 reproduces the risk-neutral dynamics (kappa - alpha sigma);
    the nonzero root upsilon = (2 kappa - 2 alpha sigma) / sigma^2 flips the
    sign of that mean reversion.  Each eta comes from the constant term
    eta = beta_bar + upsilon kappa mu_bar of the drift identity.
    """
    k, s, a = model.kappa, model.sigma_bar, model.alpha_bar
    out = []
    for upsilon in (0.0, (2.0 * k - 2.0 * a * s) / s**2):
        eta = model.beta_bar + upsilon * k * model.mu_bar
        kappa_new = k - s * a - upsilon * s**2
        cand = EigenCandidate(upsilon=upsilon, eta=eta, kappa_new=kappa_new)
        const, x_coef = drift_identity_residual(model, cand)
        assert abs(const) < 1e-12 and abs(x_coef) < 1e-12
        out.append(cand)
    return out


def select_ergodic(candidates: list[EigenCandidate]) -> EigenCandidate:
    """The candidate whose induced dynamics mean-revert (kappa_new > 0)."""
    ergodic = [c for c in candidates if c.kappa_new > 0]
    if any(c.kappa_new == 0 for c in candidates):
        raise DegenerateSelectionError(
            "kappa_new = 0 knife edge: no candidate induces mean reversion"
        )
    if len(ergodic) != 1:
        raise DegenerateSelectionError(
            f"expected exactly one mean-reverting candidate, found {len(ergodic)}"
        )
    return ergodic[0]


def _phi1(z: float) -> float:
    """expm1(z) / z, continued by 1 at z = 0."""
    return float(np.expm1(z) / z) if z != 0.0 else 1.0


def _transition(a: float, kappa: float, s2: float, h: float):
    """The exact transition x -> X_h of ``square_root_step`` as a function of
    (x, rng), with its constants formed once."""
    if s2 > 0.0 and h > 0.0:
        c = 0.25 * s2 * h * _phi1(-kappa * h)
        df, scale = 4.0 * a / s2, np.exp(-kappa * h) / c

        def step(x, rng):
            x_new = rng.noncentral_chisquare(df, x * scale)
            x_new *= c
            return x_new

        return step
    decay, drift = np.exp(-kappa * h), a * h * _phi1(-kappa * h)
    return lambda x, rng: x * decay + drift


def square_root_step(
    x: NDArray[np.float64],
    a: float,
    kappa: float,
    s2: float,
    h: float,
    rng: np.random.Generator,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """One exact transition of dX = (a - kappa X) dt + sqrt(X) dM, d<M> = s2 X dt.

    X_h given X_0 = x is c times a noncentral chi-square with 4 a / s2 degrees
    of freedom and noncentrality x e^{-kappa h} / c, c = s2 (1 - e^{-kappa h})
    / (4 kappa) (expm1 keeps c accurate as kappa h -> 0 and for kappa < 0).
    X stays nonnegative.  Returns X_h, the trapezoid integral of X over the
    step, and the martingale increment M_h - M_0 = X_h - x - a h + kappa
    (integral) that the endpoints and the integral imply.  With s2 = 0 the
    step is the deterministic mean.
    """
    x_new = _transition(a, kappa, s2, h)(x, rng)
    integral = x + x_new
    integral *= 0.5 * h
    increment = x_new - x
    increment -= a * h
    increment += kappa * integral
    return x_new, integral, increment


def _bridge_terms(model: SquareRootModel, t: float) -> tuple[float, float, float]:
    """Constants of ``_physical_paths`` over t > 0: the transition scale c,
    log(h(gamma) / h(kappa)) and k(kappa) - k(gamma)."""
    kappa, sigma = model.kappa, model.sigma_bar
    gamma = abs(kappa - sigma * model.alpha_bar)
    phi_k, phi_g = _phi1(-kappa * t), _phi1(-gamma * t)
    c = 0.25 * sigma**2 * t * phi_k
    log_h_ratio = 0.5 * (kappa - gamma) * t + np.log(phi_k / phi_g)
    k_diff = 2.0 * (1.0 / phi_k - 1.0 / phi_g) / t - kappa + gamma
    return c, log_h_ratio, k_diff


def _variance_finite(model: SquareRootModel, t: float, upsilon: float = 0.0) -> bool:
    """Whether the per-path estimator of ``_physical_paths`` has finite variance.

    exp(log S_t + upsilon (X_t - x0)) is affine-exponential in N and X_t,
    with X_t loading b = alpha_bar / sigma_bar + (k(kappa) - k(gamma)) /
    sigma_bar^2 + upsilon.  Given N, X_t = 2 c Gamma(d / 2 + N), so
    E[exp(2 b X_t) | N] is finite iff 4 c b < 1; the Poisson N has every
    exponential moment.  So the second moment, and with it the reported
    standard error, exists iff 4 c b < 1.
    """
    if t == 0.0:
        return True
    c, _, k_diff = _bridge_terms(model, t)
    b = model.alpha_bar / model.sigma_bar + k_diff / model.sigma_bar**2 + upsilon
    return bool(4.0 * c * b < 1.0)


def _physical_paths(model: SquareRootModel, t: float, n_paths: int, entropy, x0: float):
    """Terminal X and log E[S_t | X_t, N] of a physical ensemble started at x0.

    log S_t = beta_bar t + (alpha_bar / sigma_bar) (X_t - x0 - kappa mu_bar t) + c_I I
    with I the integral of X over [0, t] and c_I = kappa alpha_bar / sigma_bar
    - alpha_bar^2 / 2.  Each path takes two draws from ``default_rng(entropy)``:
    N ~ Poisson(lambda / 2) and X_t = 2 c Gamma(d / 2 + N), the exact
    noncentral chi-square transition (c = sigma_bar^2 (1 - e^{-kappa t}) / (4
    kappa), d = 4 kappa mu_bar / sigma_bar^2, lambda = x0 e^{-kappa t} / c)
    together with its Poisson mixing count.  Given (x0, X_t), N has the Bessel
    law that mixes the squared-Bessel-bridge transform of I (Pitman & Yor
    1982; Glasserman & Kim, Finance Stoch. 15, 2011), so

        E[e^{c_I I} | x0, X_t, N] = (h(gamma) / h(kappa))^{d/2 + 2N}
                                    exp{(x0 + X_t) (k(kappa) - k(gamma)) / sigma_bar^2}

    with h(k) = k / sinh(k t / 2), k(k) = k coth(k t / 2) (both 2 / t at k = 0)
    and gamma = sqrt(kappa^2 - 2 sigma_bar^2 c_I) = |kappa - sigma_bar alpha_bar|.
    The integral is thereby integrated out: exp(log S) is unbiased for E[S_t]
    by the tower property, with no time grid.  h and k are written with
    phi1(-k t) = (1 - e^{-k t}) / (k t), which stays finite where sinh(k t / 2)
    overflows.
    """
    if t == 0.0:
        return np.full(n_paths, float(x0)), np.zeros(n_paths)
    kappa, sigma = model.kappa, model.sigma_bar
    c, log_h_ratio, k_diff = _bridge_terms(model, t)
    shape = 2.0 * kappa * model.mu_bar / sigma**2  # d / 2
    rng = np.random.default_rng(entropy)
    n = rng.poisson(0.5 * x0 * np.exp(-kappa * t) / c, n_paths)
    x = 2.0 * c * rng.standard_gamma(shape + n)
    log_s = (
        model.beta_bar * t
        + model.alpha_bar / sigma * (x - x0 - kappa * model.mu_bar * t)
        + (shape + 2.0 * n) * log_h_ratio
        + (x0 + x) * (k_diff / sigma**2)
    )
    return x, log_s


def simulate(
    model: SquareRootModel,
    measure: Union[str, EigenCandidate],
    horizon: float = 1.0,
    dt: float = 1.0 / 250.0,
    n_paths: int = 100_000,
    seed: int = 0,
    x0: Optional[float] = None,
) -> SimulationResult:
    """Ensemble statistics of X under a measure, plus discount-factor checks.

    ``measure`` is ``"physical"`` or an EigenCandidate (X is then simulated
    under the mean reversion that candidate induces).  Discount-factor paths
    only exist under the physical measure, so the discounted bond price
    estimate E[S_t] is reported for physical runs, and the martingale check

        E[ exp(-eta t) S_t e(X_t) ] / e(x0)  ~  1

    for candidate runs is computed on a companion physical ensemble drawn
    from the sub-seed (seed, 1).  No ensemble steps on a time grid: X_t is one
    exact transition over the horizon, and a physical path replaces S_t by its
    exact conditional mean given the endpoints and the Poisson mixing count
    of that transition, which integrates the path's integral of X out
    (``_physical_paths``; Pitman & Yor 1982, Glasserman & Kim 2011).  ``dt``
    only rounds the horizon to t = round(horizon / dt) dt.  Non-finite paths
    are dropped and counted.  ``variance_finite`` reports whether the
    estimator behind the standard error has a finite second moment, from a
    closed-form test (``_variance_finite``); where it does not, as for long
    horizons, the mean and its standard error should not be trusted.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2 (the variances need two paths)")
    x_start = model.mu_bar if x0 is None else x0
    t_eff = int(round(horizon / dt)) * dt
    if isinstance(measure, EigenCandidate):
        # one exact transition spans the horizon, with the candidate's mean
        # reversion and the constant drift kappa mu_bar
        x = _transition(model.kappa * model.mu_bar, measure.kappa_new, model.sigma_bar**2, t_eff)(
            np.full(n_paths, float(x_start)), np.random.default_rng(seed)
        )
        ok = np.isfinite(x)
        # companion physical ensemble for the martingale expectation
        xp, log_s = _physical_paths(model, t_eff, n_paths, (seed, 1), x_start)
        mart = np.exp(
            -measure.eta * t_eff
            + log_s
            + measure.upsilon * (xp - x_start)
        )
        ok_m = np.isfinite(mart)
        m_mean = float(np.mean(mart[ok_m]))
        m_se = float(np.std(mart[ok_m], ddof=1) / np.sqrt(ok_m.sum()))
        return SimulationResult(
            x_mean=float(np.mean(x[ok])),
            x_var=float(np.var(x[ok], ddof=1)),
            n_nan=int(np.sum(~ok) + np.sum(~ok_m)),
            martingale_mean=m_mean,
            martingale_se=m_se,
            variance_finite=_variance_finite(model, t_eff, measure.upsilon),
        )
    if measure != "physical":
        raise ValueError("measure must be 'physical' or an EigenCandidate")
    x, log_s = _physical_paths(model, t_eff, n_paths, seed, x_start)
    s = np.exp(log_s)
    ok = np.isfinite(x) & np.isfinite(s)
    return SimulationResult(
        x_mean=float(np.mean(x[ok])),
        x_var=float(np.var(x[ok], ddof=1)),
        n_nan=int(np.sum(~ok)),
        discounted_bond_mean=float(np.mean(s[ok])),
        discounted_bond_se=float(np.std(s[ok], ddof=1) / np.sqrt(ok.sum())),
        variance_finite=_variance_finite(model, t_eff),
    )


_MODEL_FIELDS = tuple(f.name for f in fields(SquareRootModel))


def model_from_dict(payload: dict) -> SquareRootModel:
    try:
        return SquareRootModel(**{k: float(payload[k]) for k in _MODEL_FIELDS})
    except KeyError as exc:
        raise ValueError(f"model JSON missing field {exc}") from exc


def model_to_dict(model: SquareRootModel) -> dict:
    return {k: getattr(model, k) for k in _MODEL_FIELDS}


def results_to_csv(rows: list[tuple[str, SimulationResult]], path) -> None:
    """Write labeled path-ensemble statistics as a CSV table, one column per
    ``SimulationResult`` field; ``variance_finite`` is written as 1/0."""
    names = [f.name for f in fields(SimulationResult)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("measure," + ",".join(names) + "\n")
        for label, res in rows:
            vals = [getattr(res, name) for name in names]
            fh.write(
                label
                + ","
                + ",".join("" if v is None else f"{v:.17g}" for v in vals)
                + "\n"
            )
