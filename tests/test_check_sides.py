"""Each check's two sides reach no evaluator of the other.

reproducing-property measures ``reproduce``, which integrates the image's
grid form (the Clenshaw sweep of ``specfun.hermite_series_parts``), against
the direct values of ``eval_entire``, the log-domain ladder
``specfun.hermite_log_ladder``.  Each test poisons one side's evaluators,
in every module that binds them, and runs the other side, which must
complete with the values it gives unpoisoned.
"""

import numpy as np
import pytest

from mehler import specfun, spectral, suite
from mehler.semigroup import calibrate_weight, default_bergman_grid, reproduce, semigroup_handle
from mehler.spectral import HermiteBasis, eval_entire

T = 0.3
POINTS = np.array([[0.4 + 0.3j], [-1.2 + 0.9j], [0.0], [1.1 - 1.4j]])


def _poison(monkeypatch, *targets):
    def poisoned(*args, **kwargs):
        raise AssertionError("an evaluator of the other side ran")

    for module, name in targets:
        monkeypatch.setattr(module, name, poisoned)


@pytest.fixture(scope="module")
def sides():
    """(handle, direct values, reproduced values) for h_0..h_3, unpoisoned."""
    grid = default_bergman_grid(T, resolution=65)
    cal = calibrate_weight(T, 1, None, grid)
    out = []
    for k in range(4):
        handle = semigroup_handle(HermiteBasis((k,)), T, "spectral", truncation=48)
        out.append((handle, eval_entire(handle.expansion, T, POINTS),
                    reproduce(handle, T, POINTS, grid, cal.kappa)))
    return grid, cal.kappa, out


def test_reproducing_direct_side_reaches_no_grid_sweep(monkeypatch, sides):
    _, _, images = sides
    _poison(
        monkeypatch,
        (specfun, "hermite_series_parts"),
        (spectral, "hermite_series_parts"),
        (specfun, "_clenshaw"),
    )
    for handle, direct, _ in images:
        np.testing.assert_array_equal(eval_entire(handle.expansion, T, POINTS), direct)


def test_reproducing_integral_side_reaches_no_log_ladder(monkeypatch, sides):
    grid, kappa, images = sides
    _poison(monkeypatch, (specfun, "hermite_log_ladder"), (spectral, "hermite_log_ladder"))
    for handle, _, repro in images:
        np.testing.assert_array_equal(reproduce(handle, T, POINTS, grid, kappa), repro)


@pytest.mark.parametrize(
    "targets",
    [
        [(spectral, "hermite_log_ladder")],
        [(specfun, "hermite_series_parts"), (spectral, "hermite_series_parts")],
    ],
    ids=["log-ladder", "grid-sweep"],
)
def test_the_check_reaches_each_evaluator(monkeypatch, targets):
    # the check itself fails with either evaluator poisoned, so each side
    # runs its own evaluator and neither stands in for the other
    _poison(monkeypatch, *targets)
    with pytest.raises(AssertionError, match="other side"):
        suite.check_reproducing(suite.SuiteConfig())
