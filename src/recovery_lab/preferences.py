"""Structural discount-factor matrices from consumption-based preferences.

Two preference families over a trend-stationary consumption process
C_t = exp(g_c t) c(X_t) on a finite chain:

* power utility, whose marginal rate of substitution is
  s_ij = exp(-delta - gamma g_c) (c_j / c_i)^(-gamma), and

* recursive (Kreps-Porteus) utility with unitary elasticity of substitution,
  where the detrended continuation values v solve the fixed point

      v_i = (1 - e^{-delta}) log c_i
            + (e^{-delta} / (1 - gamma)) log( P_i exp[(1-gamma) v] )
            + e^{-delta} g_c

  and the discount factor picks up a forward-looking adjustment
  v*_j / (P_i v*) with v* = exp[(1-gamma) v].

Power utility always recovers the construction transition matrix; recursive
utility with gamma != 1 does not, because the continuation-value adjustment
is a nondegenerate martingale increment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .exceptions import ConvergenceError
from .markov import SdfMatrix, StochasticMatrix

__all__ = [
    "PowerUtilitySpec",
    "RecursiveUtilitySpec",
    "ValueFunction",
    "power_sdf",
    "solve_continuation_value",
    "recursive_sdf",
    "recursive_martingale",
    "spec_from_dict",
    "spec_to_dict",
]


def _validate_consumption(c) -> NDArray[np.float64]:
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(arr <= 0):
        raise ValueError("state consumptions must be strictly positive")
    return arr


@dataclass(frozen=True)
class PowerUtilitySpec:
    """delta: discount rate >= 0, gamma: risk aversion > 0, g_c: trend growth,
    c: strictly positive state consumptions."""

    delta: float
    gamma: float
    g_c: float
    c: NDArray[np.float64]

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        object.__setattr__(self, "c", _validate_consumption(self.c))


@dataclass(frozen=True)
class RecursiveUtilitySpec:
    """Like PowerUtilitySpec but delta must be strictly positive: the
    continuation-value recursion is a contraction with modulus e^{-delta}."""

    delta: float
    gamma: float
    g_c: float
    c: NDArray[np.float64]

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be strictly positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be strictly positive")
        object.__setattr__(self, "c", _validate_consumption(self.c))


@dataclass(frozen=True)
class ValueFunction:
    """Detrended continuation values v, the exponent log v* = (1-gamma) v, and
    the sup-norm residual of the fixed-point equation at v."""

    v: NDArray[np.float64]
    log_v_star: NDArray[np.float64]
    residual: float

    @property
    def v_star(self) -> NDArray[np.float64]:
        """v* = exp[(1-gamma) v]; it over- or underflows once |(1-gamma) v|
        passes about 709, so the discount factor reads ``log_v_star``."""
        return np.exp(self.log_v_star)


def power_sdf(spec: PowerUtilitySpec) -> SdfMatrix:
    """Discount factor matrix of a power-utility investor.

    s_ij = exp(-delta - gamma g_c) (c_j)^(-gamma) / (c_i)^(-gamma).
    """
    c = spec.c
    ratio = (c[None, :] / c[:, None]) ** (-spec.gamma)
    return SdfMatrix(np.exp(-spec.delta - spec.gamma * spec.g_c) * ratio)


def _recursion_rhs(
    v: NDArray[np.float64],
    spec: RecursiveUtilitySpec,
    p: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """F(v), to a few ulps of max |v|, and its Jacobian beta P_ij v*_j / (P v*)_i.
    Each row is shifted by its largest exponent on its support, so no exponential
    over- or underflows, and log1p keeps P v* - 1 accurate near gamma = 1."""
    beta = np.exp(-spec.delta)
    base = (1.0 - beta) * np.log(spec.c) + beta * spec.g_c
    if spec.gamma == 1.0:
        return base + beta * (p @ v), beta * p
    w = (1.0 - spec.gamma) * v
    top = np.max(np.where(p > 0, w, -np.inf), axis=1)
    a = np.minimum(w - top[:, None], 0.0)
    tilt = p * np.exp(a)
    pv = tilt.sum(axis=1)
    s = np.sum(p * np.expm1(a), axis=1)
    log_pv = np.where(s > -0.5, np.log1p(np.maximum(s, -0.5)), np.log(pv))
    return base + beta * (top + log_pv) / (1.0 - spec.gamma), beta * tilt / pv[:, None]


def solve_continuation_value(
    spec: RecursiveUtilitySpec,
    transition: StochasticMatrix,
    max_iter: int = 50,
) -> ValueFunction:
    """Detrended continuation values v = F(v); one linear solve at gamma = 1.

    Otherwise Newton steps (I - dF/dv) dv = v - F(v) from v = log c stop once
    the sup-norm residual is at most 4 eps max(1, |v|), the round-off floor of
    F; more than ``max_iter`` steps raise ConvergenceError."""
    p = transition.entries
    if spec.gamma == 1.0:
        base, jac = _recursion_rhs(np.zeros(transition.n), spec, p)
        v = np.linalg.solve(np.eye(transition.n) - jac, base)
    else:
        v = np.log(spec.c)
        for _ in range(max_iter):
            rhs, jac = _recursion_rhs(v, spec, p)
            if np.max(np.abs(v - rhs)) <= 4.0 * np.finfo(float).eps * max(1.0, np.max(np.abs(v))):
                break
            v = v - np.linalg.solve(np.eye(transition.n) - jac, v - rhs)
        else:
            gap = np.max(np.abs(v - _recursion_rhs(v, spec, p)[0]))
            raise ConvergenceError(f"{max_iter} Newton steps left residual {gap:.3e}")
    residual = float(np.max(np.abs(v - _recursion_rhs(v, spec, p)[0])))
    return ValueFunction(v=v, log_v_star=(1.0 - spec.gamma) * v, residual=residual)


def recursive_sdf(
    spec: RecursiveUtilitySpec,
    transition: StochasticMatrix,
    value: ValueFunction,
) -> SdfMatrix:
    """Discount factor matrix of the recursive-utility investor.

    s_ij = exp(-(delta + g_c)) (c_i / c_j) (v*_j / (P_i v*)).
    """
    c = spec.c
    s = (
        np.exp(-(spec.delta + spec.g_c))
        * (c[:, None] / c[None, :])
        * _martingale_ratio(transition.entries, value.log_v_star)
    )
    return SdfMatrix(s)


def recursive_martingale(
    transition: StochasticMatrix, value: ValueFunction
) -> NDArray[np.float64]:
    """Forward-looking martingale increments v*_j / (P_i v*).

    Each row has conditional expectation one under the transition matrix by
    construction; the increments are identically one iff v* is constant.
    """
    return _martingale_ratio(transition.entries, value.log_v_star)


def _martingale_ratio(p: NDArray[np.float64], w: NDArray[np.float64]) -> NDArray[np.float64]:
    """v*_j / (P_i v*) for v* = exp(w), computed from w: row i is shifted by the
    largest w on its support, so it stays finite where v* itself would over-
    or underflow."""
    top = np.max(np.where(p > 0, w, -np.inf), axis=1)
    a = w[None, :] - top[:, None]
    pv = np.sum(p * np.exp(np.minimum(a, 0.0)), axis=1)
    return np.exp(a) / pv[:, None]


def spec_from_dict(payload: dict):
    """Build a preference specification from its JSON form.

    Expected shape: {"type": "power"|"recursive", "delta": ..., "gamma": ...,
    "g_c": ..., "c": [...]}.
    """
    kind = payload.get("type")
    if kind not in ("power", "recursive"):
        raise ValueError(f"unknown preference type {kind!r}")
    cls = PowerUtilitySpec if kind == "power" else RecursiveUtilitySpec
    try:
        return cls(
            delta=float(payload["delta"]),
            gamma=float(payload["gamma"]),
            g_c=float(payload["g_c"]),
            c=np.asarray(payload["c"], dtype=float),
        )
    except KeyError as exc:
        raise ValueError(f"preference JSON missing field {exc}") from exc


def spec_to_dict(spec) -> dict:
    return {
        "type": "power" if isinstance(spec, PowerUtilitySpec) else "recursive",
        "delta": spec.delta,
        "gamma": spec.gamma,
        "g_c": spec.g_c,
        "c": spec.c.tolist(),
    }
