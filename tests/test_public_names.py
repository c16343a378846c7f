"""Each library module's ``__all__`` lists exactly its public functions and classes."""

import inspect

import pytest

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
        (lrr.AffineExpectationCoeffs, "log_expectation_at"),
        (markov, "forward_measure"),
        (markov.PricingMatrix, "bond_prices"),
        (lrr.YieldCurves, "eta_hat"),
    ],
)
def test_removed_names_stay_removed(owner, name):
    # changed_measure and risk_neutral_dynamics return StateDynamics; the
    # other callers use solve_affine_ode(...).expectation, LrrParams(),
    # forward_measures(prices, [t])[t], risk_neutral(prices)[1] and pf.eta_hat
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())
