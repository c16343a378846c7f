"""Shared fixtures: canonical two-state economies and random-economy factories."""

import tracemalloc

import numpy as np
import pytest

from recovery_lab import markov as mk
from recovery_lab import preferences as pref

TWO_STATE_P = np.array([[0.9, 0.1], [0.1, 0.9]])


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls; return the record."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def traced(call):
    """Run ``call()`` under tracemalloc: its result, the bytes it allocated
    at its peak, and the bytes it left allocated (numpy's buffers included)."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def random_transition(rng, n, floor=0.02):
    """Random strictly positive transition matrix (hence primitive)."""
    raw = rng.dirichlet(np.ones(n), size=n) + floor
    return mk.StochasticMatrix(raw / raw.sum(axis=1, keepdims=True))


def random_power_economy(rng, n=None):
    """Economy generated by a random power-utility investor."""
    n = n or int(rng.integers(2, 11))
    transition = random_transition(rng, n)
    spec = pref.PowerUtilitySpec(
        delta=float(rng.uniform(0.005, 0.08)),
        gamma=float(rng.uniform(0.5, 8.0)),
        g_c=float(rng.uniform(-0.01, 0.03)),
        c=rng.uniform(0.5, 3.0, size=n),
    )
    return mk.build_economy(transition, pref.power_sdf(spec)), spec


def random_recursive_economy(rng, n):
    """Economy of a recursive-utility investor on a random transition."""
    transition = random_transition(rng, n)
    spec = pref.RecursiveUtilitySpec(
        delta=0.02, gamma=10.0, g_c=0.0, c=rng.uniform(0.5, 2.0, size=n)
    )
    value = pref.solve_continuation_value(spec, transition)
    return mk.build_economy(transition, pref.recursive_sdf(spec, transition, value))


def rouwenhorst(n, rho):
    """Rouwenhorst transition matrix of an AR(1) with persistence rho."""
    p = 0.5 * (1.0 + rho)
    mat = np.array([[p, 1.0 - p], [1.0 - p, p]])
    for m in range(3, n + 1):
        nxt = np.zeros((m, m))
        nxt[:-1, :-1] += p * mat
        nxt[:-1, 1:] += (1.0 - p) * mat
        nxt[1:, :-1] += (1.0 - p) * mat
        nxt[1:, 1:] += p * mat
        nxt[1:-1] /= 2.0
        mat = nxt
    return mat


def distorted_grid_economy(entropy):
    """36-state economy on a 6 x 6 two-factor grid with a distorted power-utility SDF.

    The grid chain has the calibration's persistences, so its stationary
    transition weights run from about 1e-24 to 1e-1.  The stream
    ``SeedSequence(entropy)`` first skips 36 draws, then draws consumption
    and the distortion exp(0.1 eps).
    """
    p = np.kron(rouwenhorst(6, np.exp(-0.021)), rouwenhorst(6, np.exp(-0.013)))
    p /= p.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    rng.normal(0.0, 0.05, size=36)
    c = np.exp(rng.normal(0.0, 0.05, size=36))
    s = np.exp(-0.002 - 10.0 * 0.001) * (c[None, :] / c[:, None]) ** -10.0
    s = s * np.exp(0.1 * rng.standard_normal((36, 36)))
    return mk.build_economy(mk.StochasticMatrix(p), mk.SdfMatrix(s))


def stagnation_grid_economy():
    """The distorted grid economy of stream (102, 1)."""
    return distorted_grid_economy((102, 1))


def random_economy(rng, n=None):
    """Economy with unstructured positive discount factors."""
    n = n or int(rng.integers(2, 8))
    transition = random_transition(rng, n)
    sdf = mk.SdfMatrix(np.exp(rng.normal(-0.03, 0.25, size=(n, n))))
    return mk.build_economy(transition, sdf)


@pytest.fixture
def two_state_transition():
    return mk.StochasticMatrix(TWO_STATE_P)


@pytest.fixture
def power_spec():
    return pref.PowerUtilitySpec(delta=0.02, gamma=2.0, g_c=0.0, c=np.array([1.0, 2.0]))


@pytest.fixture
def power_economy(two_state_transition, power_spec):
    return mk.build_economy(two_state_transition, pref.power_sdf(power_spec))


@pytest.fixture
def recursive_spec():
    return pref.RecursiveUtilitySpec(
        delta=0.02, gamma=10.0, g_c=0.0, c=np.array([1.0, 2.0])
    )


@pytest.fixture
def recursive_economy(two_state_transition, recursive_spec):
    value = pref.solve_continuation_value(recursive_spec, two_state_transition)
    sdf = pref.recursive_sdf(recursive_spec, two_state_transition, value)
    return mk.build_economy(two_state_transition, sdf)


@pytest.fixture
def recursive_value(two_state_transition, recursive_spec):
    return pref.solve_continuation_value(recursive_spec, two_state_transition)
