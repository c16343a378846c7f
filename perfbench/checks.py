"""References and output checks that do not depend on the program's scheme.

Dense eigendecompositions, closed forms and the defining recursions stand
in for the program's power iteration, fixed point and Monte Carlo.  A check
raises ``CheckFailed`` with the first mismatch it finds.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output did not match its reference."""


def close(name: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(np.isfinite(got)) or np.any(err > limit):
        worst = int(np.argmax(np.where(np.isfinite(err), err - limit, np.inf)))
        raise CheckFailed(
            f"{name}: |{got.flat[worst]!r} - {want.flat[worst]!r}| exceeds "
            f"{limit.flat[worst]:.3g}"
        )


def require(name: str, ok: bool) -> None:
    if not ok:
        raise CheckFailed(name)


def within_se(name: str, got: float, want: float, se: float, k: float = 5.0) -> None:
    """Monte Carlo estimate within k standard errors of its exact value."""
    if not (math.isfinite(got) and abs(got - want) <= k * se):
        raise CheckFailed(f"{name}: {got!r} vs {want!r} exceeds {k} se = {k * se:.3g}")


# ---------------------------------------------------------------------------
# finite-chain references
# ---------------------------------------------------------------------------


def dominant_eig(q: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(eta, right vector with max 1, left vector summing to 1) via numpy.linalg.eig."""
    vals, vecs = np.linalg.eig(q)
    k = int(np.argmax(vals.real))
    right = np.abs(vecs[:, k].real)
    vals_l, vecs_l = np.linalg.eig(q.T)
    left = np.abs(vecs_l[:, int(np.argmax(vals_l.real))].real)
    return float(np.log(vals[k].real)), right / right.max(), left / left.sum()


class RecoveryRef:
    """Reference recovery of one economy (P, S)."""

    def __init__(self, p, s, eta, e_hat, e_star):
        self.p = p
        self.q = np.where(p > 0, s * p, 0.0)
        self.eta = eta
        self.e_hat = e_hat
        self.e_star = e_star
        self.p_hat = np.exp(-eta) * self.q * (e_hat[None, :] / e_hat[:, None])
        self.h = np.where(p > 0, self.p_hat / np.where(p > 0, p, 1.0), 1.0)
        self.r_inf = np.exp(-eta) * e_hat[None, :] / e_hat[:, None]

    @classmethod
    def dense(cls, p, s):
        q = np.where(p > 0, s * p, 0.0)
        return cls(p, s, *dominant_eig(q))

    @classmethod
    def power_utility(cls, p, s, c, gamma, beta, stationary):
        """Closed form: exp(eta) = beta, e_hat ~ c**gamma, e_star ~ pi c**-gamma."""
        e_hat = c**gamma
        e_star = stationary * c ** (-gamma)
        return cls(p, s, math.log(beta), e_hat / e_hat.max(), e_star / e_star.sum())


# Absolute accuracy of an eigenvector scaled to max 1, for both the program's
# power iteration (residual 1e-14) and the dense reference, at gaps <= 0.99.
EIGVEC_ATOL = 1e-10


def check_recovery(rec: dict, ref: RecoveryRef, tol: float) -> None:
    """Eigenpair and p_hat against the reference; h_hat against p_hat / p.

    p_hat_ij carries the relative error of e_j / e_i, so its tolerance grows
    where the eigenvector has small entries.
    """
    close("eta_hat", rec["eta_hat"], ref.eta, atol=1e-10)
    close("e_hat", rec["e_hat"], ref.e_hat, atol=tol)
    close("e_star", rec["e_star"], ref.e_star, atol=tol)
    inv = 1.0 / ref.e_hat
    rtol = EIGVEC_ATOL * (inv[:, None] + inv[None, :])
    close("p_hat", rec["p_hat"], ref.p_hat, atol=tol, rtol=rtol)
    if rec.get("h_increments") is not None:
        p_hat = np.asarray(rec["p_hat"], dtype=float)
        want = np.where(ref.p > 0, p_hat / np.where(ref.p > 0, ref.p, 1.0), 1.0)
        close("h_increments", rec["h_increments"], want, rtol=1e-12)


def bond_iterates(q: np.ndarray, horizons) -> dict[int, np.ndarray]:
    """log(Q^t 1) for each t in horizons, accumulated with rescaling."""
    b = np.ones(q.shape[0])
    log_scale = np.zeros(q.shape[0])
    out = {}
    wanted = set(horizons)
    for t in range(1, max(horizons) + 1):
        b = q @ b
        top = b.max()
        b /= top
        log_scale += math.log(top)
        if t in wanted:
            out[t] = log_scale + np.log(b)
    return out


def forward_measures(q: np.ndarray, horizons) -> dict[int, np.ndarray]:
    """Rows of Q^t normalised to sum to one."""
    m = np.eye(q.shape[0])
    out = {}
    for t in range(1, max(horizons) + 1):
        m = m @ q
        m /= m.sum(axis=1, keepdims=True)
        if t in horizons:
            out[t] = m.copy()
    return out


def forward_limit_distances(q: np.ndarray, p_hat: np.ndarray, taus) -> list[float]:
    """sup |q_ij [Q^(tau-1) 1]_j / [Q^tau 1]_i - p_hat_ij| for each tau."""
    logs = bond_iterates(q, sorted({t for tau in taus for t in (tau - 1, tau)}))
    out = []
    for tau in taus:
        shift = logs[tau - 1].max()
        limit = q * np.exp(logs[tau - 1] - shift)[None, :] / np.exp(logs[tau] - shift)[:, None]
        out.append(float(np.max(np.abs(limit - p_hat))))
    return out


def phi(theta: float, r: np.ndarray) -> np.ndarray:
    """Cressie-Read kernel with its theta = 0 and theta = -1 limits."""
    r = np.asarray(r, dtype=float)
    if theta == 0.0:
        return np.where(r > 0, r * np.log(np.where(r > 0, r, 1.0)), 0.0)
    if theta == -1.0:
        return -np.log(r)
    return (r ** (1.0 + theta) - 1.0) / (theta * (1.0 + theta))


def stationary(p: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(p.T)
    v = np.abs(vecs[:, int(np.argmax(vals.real))].real)
    return v / v.sum()


def conditional_discrepancy(ref: RecoveryRef, theta: float) -> np.ndarray:
    live = ref.p > 0
    return np.sum(np.where(live, ref.p * phi(theta, np.where(live, ref.h, 1.0)), 0.0), axis=1)


def continuation_rhs(v, p, c, delta, gamma, g_c) -> np.ndarray:
    """Right-hand side of the recursive-utility continuation-value equation."""
    beta = math.exp(-delta)
    w = (1.0 - gamma) * v
    top = w.max()
    return (
        (1.0 - beta) * np.log(c)
        + beta * g_c
        + beta / (1.0 - gamma) * (np.log(p @ np.exp(w - top)) + top)
    )


def check_bound_solution(res, problem, theta: float) -> None:
    """Primal feasibility and zero duality gap, recomputed from J."""
    w = problem.weights
    keep = w > 0
    w = w[keep]
    j = np.asarray(res.j, dtype=float)
    y = problem.payoff_samples[keep] / problem.long_bond_return[keep, None]
    q_bar = problem.weights @ problem.price_samples
    require("J >= 0", bool(np.all(j >= 0)))
    close("E[J] - 1", w @ j, 1.0, atol=1e-8)
    close("E[J Y / R] - q", y.T @ (w * j), q_bar, atol=1e-8)
    close("lambda_bar", res.lambda_bar, float(w @ phi(theta, j)), atol=1e-10, rtol=1e-8)
    close("duality gap", res.dual_value, res.lambda_bar, atol=1e-8)
    require("lambda_bar >= 0", res.lambda_bar >= -1e-10)


# ---------------------------------------------------------------------------
# continuous-time references
# ---------------------------------------------------------------------------


def cir_moments(iota2: float, sigma_2, mu_22: float) -> tuple[float, float]:
    """Stationary mean and variance of the square-root volatility factor."""
    s22 = float(np.dot(sigma_2, sigma_2))
    return iota2, s22 * iota2 / (-2.0 * mu_22)


def binned_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of (x1, x2) from a (x1, x2, mass) table."""
    mass = rows[:, 2] / rows[:, 2].sum()
    mean = mass @ rows[:, :2]
    var = mass @ (rows[:, :2] - mean) ** 2
    return mean, var
