"""No ``dimension`` knob in the package: n = 1 is decided where inputs are built.

The paper states its results on R^n and C^n; the package computes them at
n = 1.  A basis member, a point mass, a coefficient list and a point of
evaluation refuse a length other than 1 where they are built, so a
``dimension`` parameter, field or attribute could only select n = 1: an
option with one setting, which multiplies the configurations to test
without adding one that runs.

The rule: no function or method defined in a ``mehler`` module (module
level or in a class body, private ones too) takes a parameter named
``dimension`` or is named ``dimension``, and no class body declares or
assigns an attribute of that name.  ``ALLOWED`` lists the exceptions, each
held by a call in ``perfbench/`` (which the package's benchmark runs and
which passes the value positionally), with the call that holds it; an
entry whose call is gone, or whose knob is gone, fails as stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mehler"
PERFBENCH = ROOT / "perfbench"

# Knobs kept, each with the perfbench call that passes it positionally.
ALLOWED = {
    "semigroup.calibrate_weight(dimension)": (
        "workloads.py",
        "M.calibrate_weight(t, 1, [(k,) for k in range(5)], grid)",
    ),
    "spectral.CoefficientList.dimension": (
        "workloads.py",
        "M.CoefficientList(1, N, tuple(((k,), c) for k, c in coeffs.items()))",
    ),
}


def _arguments(fn) -> list[str]:
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a.arg for a in named]


def _class_knobs(prefix: str, cls: ast.ClassDef) -> set[str]:
    """``dimension`` declared or assigned in the body of ``cls``, directly
    (a field or class attribute) or on ``self`` inside its methods."""
    found = set()
    for node in cls.body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = []
        if any(isinstance(t, ast.Name) and t.id == "dimension" for t in targets):
            found.add(f"{prefix}{cls.name}.dimension")
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if (
                    isinstance(t, ast.Attribute)
                    and t.attr == "dimension"
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ):
                    found.add(f"{prefix}{cls.name}.dimension")
    return found


def _knobs() -> set[str]:
    """Every ``dimension`` parameter, function, method and class attribute
    in the package, as ``module.[Class.]function(dimension)`` or
    ``module.[Class.]dimension``."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(f"{path.stem}.", node) for node in tree.body]
        while stack:
            prefix, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "dimension":
                    found.add(f"{prefix}dimension")
                if "dimension" in _arguments(node):
                    found.add(f"{prefix}{node.name}(dimension)")
                stack += [(f"{prefix}{node.name}.", sub) for sub in node.body]
            elif isinstance(node, ast.ClassDef):
                found |= _class_knobs(prefix, node)
                stack += [(f"{prefix}{node.name}.", sub) for sub in node.body]
    return found


def test_no_dimension_knob_outside_the_allowlist():
    unlisted = _knobs() - ALLOWED.keys()
    assert not unlisted, f"dimension knobs, where n = 1 is decided at build: {sorted(unlisted)}"


def test_allowlisted_dimension_knobs_are_held_by_perfbench():
    stale = ALLOWED.keys() - _knobs()
    assert not stale, f"allowlisted knobs that are gone: {sorted(stale)}"
    for key, (name, call) in ALLOWED.items():
        assert call in (PERFBENCH / name).read_text(), f"{key}: perfbench no longer calls {call}"
