"""The names the benchmark reaches resolve in the package.

``perfbench/tracing.py`` wraps package functions and methods by
(module, attribute path), and ``perfbench/workloads.py`` and
``perfbench/run.py`` call the package as ``M.<name>``; a renamed or
deleted name breaks benchmark runs, so every one is resolved here.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import mehler
import mehler.suite  # perfbench imports it beside the package

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
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


def _package_references(path: Path) -> set[str]:
    """Every dotted ``M.<name>...`` attribute path in a perfbench source,
    ``M`` being the loaded package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "M":
            found.add(".".join(reversed(parts)))
    return found


REFERENCES = sorted(
    set().union(*(_package_references(PERFBENCH / name) for name in ("workloads.py", "run.py")))
)


def test_perfbench_references_are_found():
    # the walk sees the calls the workloads are built from
    assert {"suite.CHECKS", "semigroup_handle", "calibrate_weight", "pw_envelope"} <= set(REFERENCES)


@pytest.mark.parametrize("path", REFERENCES)
def test_perfbench_reference_resolves(path):
    target = mehler
    for part in path.split("."):
        target = getattr(target, part)
