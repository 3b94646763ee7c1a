"""The benchmark tracer's targets resolve in the package.

``perfbench/tracing.py`` wraps package functions and methods by
(module, attribute path); a renamed target breaks traced benchmark runs,
so every target is resolved here.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import mehler

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)

TARGETS = [(mod, path, counter) for _, mod, path, counter in _tracing.FUNCTIONS + _tracing.EXTRA]


@pytest.mark.parametrize("mod, path, counter", TARGETS, ids=[f"{m}.{p}" for m, p, _ in TARGETS])
def test_tracer_target_resolves(mod, path, counter):
    target = getattr(mehler, mod)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
    if counter == "eval_grid":
        # the eval_grid counter reads X and Y as the first positional arguments
        params = list(inspect.signature(target).parameters)
        assert params[1:3] == ["X", "Y"]
