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
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray

from .exceptions import DegenerateSelectionError

__all__ = [
    "SquareRootModel",
    "EigenCandidate",
    "SimulationResult",
    "eigen_candidates",
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
    if s2 > 0.0:
        c = 0.25 * s2 * h * _phi1(-kappa * h)
        x_new = c * rng.noncentral_chisquare(4.0 * a / s2, x * (np.exp(-kappa * h) / c))
    else:
        x_new = x * np.exp(-kappa * h) + a * h * _phi1(-kappa * h)
    integral = 0.5 * h * (x + x_new)
    return x_new, integral, x_new - x - a * h + kappa * integral


def _paths(
    model: SquareRootModel,
    kappa_eff: float,
    horizon: float,
    dt: float,
    n_paths: int,
    rng: np.random.Generator,
    x0: float,
    accumulate_sdf: bool,
):
    """Terminal X of an ensemble started at x0, plus log S_t under the physical
    measure when ``accumulate_sdf``.

    The constant drift term stays kappa * mu_bar under every candidate
    measure; only the linear mean-reversion coefficient changes.  log S is
    deterministic given the endpoints and the integral I of X:

        log S_t = beta_bar t - alpha_bar^2 I / 2
                  + (alpha_bar / sigma_bar) (X_t - x0 - kappa mu_bar t + kappa I),

    so only the integral needs the dt grid; without it the exact transition
    spans the horizon in one step.
    """
    n_steps = int(round(horizon / dt))
    t_eff = n_steps * dt
    a = model.kappa * model.mu_bar
    x = np.full(n_paths, float(x0))
    if not accumulate_sdf:
        n_steps, dt = min(n_steps, 1), t_eff
    integral = np.zeros(n_paths)
    for _ in range(n_steps):
        x, step_integral, _ = square_root_step(
            x, a, kappa_eff, model.sigma_bar**2, dt, rng
        )
        integral += step_integral
    log_s = None
    if accumulate_sdf:
        log_s = (
            model.beta_bar * t_eff
            - 0.5 * model.alpha_bar**2 * integral
            + model.alpha_bar
            / model.sigma_bar
            * (x - x0 - a * t_eff + kappa_eff * integral)
        )
    return x, log_s, t_eff


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
    from a deterministic sub-seed.  Non-finite paths are dropped and counted.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x_start = model.mu_bar if x0 is None else x0
    rng = np.random.default_rng(seed)
    if isinstance(measure, EigenCandidate):
        kappa_eff = measure.kappa_new
        x, _, _ = _paths(
            model, kappa_eff, horizon, dt, n_paths, rng, x_start, False
        )
        ok = np.isfinite(x)
        # companion physical ensemble for the martingale expectation
        rng_phys = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        xp, log_s, t_eff = _paths(
            model, model.kappa, horizon, dt, n_paths, rng_phys, x_start, True
        )
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
        )
    if measure != "physical":
        raise ValueError("measure must be 'physical' or an EigenCandidate")
    x, log_s, _ = _paths(
        model, model.kappa, horizon, dt, n_paths, rng, x_start, True
    )
    s = np.exp(log_s)
    ok = np.isfinite(x) & np.isfinite(s)
    return SimulationResult(
        x_mean=float(np.mean(x[ok])),
        x_var=float(np.var(x[ok], ddof=1)),
        n_nan=int(np.sum(~ok)),
        discounted_bond_mean=float(np.mean(s[ok])),
        discounted_bond_se=float(np.std(s[ok], ddof=1) / np.sqrt(ok.sum())),
    )


_MODEL_FIELDS = ("kappa", "mu_bar", "sigma_bar", "alpha_bar", "beta_bar")


def model_from_dict(payload: dict) -> SquareRootModel:
    try:
        return SquareRootModel(**{k: float(payload[k]) for k in _MODEL_FIELDS})
    except KeyError as exc:
        raise ValueError(f"model JSON missing field {exc}") from exc


def model_to_dict(model: SquareRootModel) -> dict:
    return {k: getattr(model, k) for k in _MODEL_FIELDS}


def results_to_csv(rows: list[tuple[str, SimulationResult]], path) -> None:
    """Write labeled path-ensemble statistics as a CSV table."""
    fields = (
        "x_mean",
        "x_var",
        "n_nan",
        "martingale_mean",
        "martingale_se",
        "discounted_bond_mean",
        "discounted_bond_se",
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("measure," + ",".join(fields) + "\n")
        for label, res in rows:
            vals = [getattr(res, f) for f in fields]
            fh.write(
                label
                + ","
                + ",".join("" if v is None else f"{v:.17g}" for v in vals)
                + "\n"
            )
