"""Every public ``dimension`` parameter in the package runs at n = 2.

A ``dimension`` argument whose only accepted value is 1 is an option with
one setting: it multiplies the configurations to test without adding one
that works.  This guard enumerates every public callable of every
``mehler`` module that takes ``dimension`` and requires either a smoke
call at n = 2 in ``SMOKE`` or an entry in ``ALLOWED_N1_ONLY`` that says
why the knob stays.  Record dataclasses (plain data such as
``HermiteExpansion``) are skipped: their ``dimension`` field describes
the data rather than selecting a code path.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import mehler
from mehler import (
    Dirac,
    Gaussian,
    as_point,
    bergman_weight,
    bergman_weight_dt,
    bridge_constant,
    expand,
    gauss_hermite_rule,
    integrate_rn,
    laguerre_function_entire,
    mehler_kernel,
    multi_indices,
    oscillator_eigenvalue,
    reproducing_kernel,
    semigroup_apply,
    semigroup_handle,
    special_heat_kernel,
    twisted_bergman_weight,
)
from mehler.kernels import special_heat_from_square, twisted_weight_profile
from mehler.semigroup import MehlerSliceHandle
from mehler.spectral import EntireHandle

# A point of C^2, and one pair of points with a trailing coordinate axis.
Z2 = [0.3 + 0.2j, -0.4 + 0.1j]
W2 = [0.1 - 0.3j, 0.5]
P4 = [0.3 + 0.1j, -0.2, 0.4, 0.1 - 0.2j]


SMOKE = {
    "mehler.indices.as_point": lambda: as_point(Z2, dimension=2),
    "mehler.indices.multi_indices": lambda: np.array(multi_indices(2, 3)),
    "mehler.indices.oscillator_eigenvalue": lambda: oscillator_eigenvalue((1, 2), 2),
    "mehler.kernels.mehler_kernel": lambda: mehler_kernel(0.3, Z2, W2, 2),
    "mehler.kernels.bergman_weight": lambda: bergman_weight(0.3, Z2, 2),
    "mehler.kernels.bergman_weight_dt": lambda: bergman_weight_dt(0.3, 1, Z2, 2),
    "mehler.kernels.reproducing_kernel": lambda: [
        reproducing_kernel(0.3, m, Z2, W2, 2) for m in (0, 1)
    ],
    "mehler.kernels.special_heat_kernel": lambda: special_heat_kernel(0.3, P4, 2),
    "mehler.kernels.special_heat_from_square": lambda: special_heat_from_square(
        0.3, 0.5 + 0.1j, 2
    ),
    "mehler.kernels.twisted_weight_profile": lambda: twisted_weight_profile(
        0.3, 1, 0.5, 2
    ),
    "mehler.kernels.twisted_bergman_weight": lambda: twisted_bergman_weight(
        0.3, 1, Z2, W2, 2
    ),
    "mehler.quadrature.integrate_rn": lambda: integrate_rn(
        lambda x, y: np.exp(-(x**2) - y**2), gauss_hermite_rule(16), 2
    ),
    "mehler.semigroup.semigroup_handle": lambda: [
        semigroup_handle(f, 0.3, mode, 2, truncation=6, rule=gauss_hermite_rule(16)).eval(Z2)
        for f, mode in ((Gaussian(1.0), "spectral"), (Dirac((0.5, -0.3)), "kernel"))
    ],
    "mehler.semigroup.semigroup_apply": lambda: semigroup_apply(
        Gaussian(1.0), 0.3, Z2, "spectral", 2, truncation=6, rule=gauss_hermite_rule(16)
    ),
    "mehler.semigroup.MehlerSliceHandle": lambda: MehlerSliceHandle(
        0.3, (0.5, -0.3), 2
    ).eval(Z2),
    "mehler.specfun.laguerre_function_entire": lambda: laguerre_function_entire(
        2, 1.5 + 0.5j, 2
    ),
    "mehler.spectral.expand": lambda: expand(
        Gaussian(1.0), 4, rule=gauss_hermite_rule(16), dimension=2
    ).values,
    "mehler.stft.bridge_constant": lambda: bridge_constant(2.0, 2),
}

# Knobs kept although only n = 1 runs, each with the reason it stays.
ALLOWED_N1_ONLY = {
    "mehler.semigroup.calibrate_weight": (
        "perfbench/workloads.py:214 calls calibrate_weight(t, 1, alphas, grid) "
        "positionally"
    ),
}


def _is_record(obj) -> bool:
    """A dataclass holding data only: neither callable nor an entire handle."""
    return (
        inspect.isclass(obj)
        and dataclasses.is_dataclass(obj)
        and "__call__" not in vars(obj)
        and not issubclass(obj, EntireHandle)
    )


def _dimension_knobs() -> set[str]:
    names = set()
    for info in pkgutil.iter_modules(mehler.__path__):
        module = importlib.import_module(f"mehler.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or _is_record(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "dimension" in params:
                names.add(f"{module.__name__}.{name}")
    return names


def test_every_dimension_knob_runs_at_n2_or_is_allowed():
    knobs = _dimension_knobs()
    unlisted = knobs - SMOKE.keys() - ALLOWED_N1_ONLY.keys()
    assert not unlisted, f"dimension knobs without an n = 2 smoke call: {sorted(unlisted)}"
    stale = (SMOKE.keys() | ALLOWED_N1_ONLY.keys()) - knobs
    assert not stale, f"entries for callables without a dimension knob: {sorted(stale)}"
    assert not SMOKE.keys() & ALLOWED_N1_ONLY.keys()


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_dimension_knob_smoke_at_n2(name):
    vals = np.asarray(SMOKE[name](), dtype=complex)
    assert vals.size > 0
    assert np.all(np.isfinite(vals))
