"""Each library module's ``__all__`` lists exactly its public functions and classes."""

import importlib
import inspect
from pathlib import Path

import pytest

import recovery_lab
import recovery_lab.cli  # noqa: F401  (the package does not import the CLI)
from recovery_lab import bounds, lrr, markov, preferences, sqroot

MODULES = [bounds, markov, lrr, sqroot, preferences]


def _public_definitions(module):
    """Functions and classes defined in ``module`` whose names have no leading underscore."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert sorted(_public_definitions(module) - set(module.__all__)) == []


@pytest.mark.parametrize(
    "owner, name",
    [
        (lrr, "ChangedMeasureParams"),
        (lrr, "affine_expectation"),
        (lrr, "default_params"),
        (lrr, "cir_stationary_moments"),
        (lrr.AffineExpectationCoeffs, "log_expectation_at"),
        (markov, "forward_measure"),
        (markov.PricingMatrix, "bond_prices"),
        (lrr.YieldCurves, "eta_hat"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    # changed_measure and risk_neutral_dynamics return StateDynamics; the
    # other callers use solve_affine_ode(...).expectation, LrrParams(),
    # stationary_moments(d) as (mean[1], cov[1, 1]),
    # forward_measures(prices, [t])[t], risk_neutral(prices)[1] and pf.eta_hat
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_benchmark_tracer_wraps_and_restores_its_bindings(monkeypatch):
    # what perfbench/worker.py does with --trace: a traced name that the
    # package no longer defines fails here, not only in the traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    modules = [recovery_lab] + [getattr(recovery_lab, name) for name in spans.MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    tracer.install(recovery_lab)
    try:
        wrapped = {(module.__name__, attr) for module, attr, _ in tracer._restore}
        homes = {(f"recovery_lab.{mod}", fn) for mod, fns in spans.TRACED.items() for fn in fns}
        homes |= {("recovery_lab.cli", handler) for handler in spans.CLI_COMMANDS.values()}
        assert homes <= wrapped
        assert all(getattr(module, attr) is not value for module, attr, value in tracer._restore)
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        assert vars(module).keys() == names.keys()
        assert all(vars(module)[name] is value for name, value in names.items())
