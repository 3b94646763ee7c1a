"""Every public function and class of the package is reached from outside tests.

A public name that only tests call is code kept alive for its own tests.
The rule: each module-level public ``def`` or ``class`` of a ``mehler``
module must be referenced by name (an AST ``Name`` or ``Attribute``)
somewhere other than its own definition and ``__init__.py``, in one of

- the package itself (``src/mehler/``),
- the non-test files of ``perfbench/``, including the tracer's
  (module, attribute path) target strings,
- the console-script entry points in ``pyproject.toml``.

A suite check registered with ``@_check(...)`` counts as reached: the
registration puts it in ``CHECKS``, which ``run_suite`` runs.  A name in
the class argument of ``isinstance`` or ``issubclass``, or in an
annotation, does not count: type dispatch and type hints on a class that
nothing builds keep its branches alive without running them.

``ALLOWED`` lists the names kept although only tests reach them, each with
its reason; an entry whose name is reached (or gone) fails as stale.

The rule is name-based, so it over-counts reach. A name that collides
with another (a module function ``power`` and a method
``TaylorScalar.power``) counts the other's references as its own, and a
class that only tests build but that other type dispatch names (a
``type(f) is`` test, a ``match`` pattern) counts as reached. Such names
have to be found by reading the code.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mehler"
PERFBENCH = ROOT / "perfbench"

# Names that only tests reach, each with the reason it stays.
ALLOWED = {
    "hermite_tensor": "test oracle: the product basis function, checked against the ladders",
    "integrate_plane": "test oracle: flattened plane integration behind the contracted sums",
    "reproducing_kernel": "to be promoted into a suite check, which moves pinned report values",
    "special_expand": "to be promoted into a suite check, which moves pinned report values",
    "laguerre_sobolev_norm": "to be promoted into a suite check, which moves pinned report values",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions() -> set[str]:
    """Public module-level function and class names of the package."""
    return {
        node.name
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _type_only(tree: ast.AST) -> set[int]:
    """ids of the nodes in ``tree`` that only name a type: the class
    argument of an ``isinstance`` or ``issubclass`` call, and annotations."""
    roots = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            roots.append(node.args[1])
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _names_in(tree: ast.AST) -> set[str]:
    """Names referenced in ``tree`` as a ``Name`` or an ``Attribute``,
    except where they only name a type (:func:`_type_only`)."""
    skip = _type_only(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _registered_check(node: ast.AST) -> bool:
    """A suite check registered by ``@_check(...)``: ``run_suite`` reaches
    it through ``CHECKS``, which holds the decorated function."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check"
        for d in node.decorator_list
    )


def _references() -> set[str]:
    """Names referenced from the places the rule counts.

    A reference inside a name's own definition (a recursive call) does not
    count as reach.
    """
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            refs |= _names_in(node) - own
            if _registered_check(node):
                refs.add(node.name)
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        tree = _parse(path)
        refs |= _names_in(tree)
        # tracer targets are (module, "Class.method") strings
        refs |= {
            part
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")
            if part.isidentifier()
        }
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    refs |= {target.rpartition(":")[2] for target in scripts.values()}
    return refs


def _unreached() -> set[str]:
    return _definitions() - _references()


def test_every_public_name_is_reached_or_allowed():
    unlisted = _unreached() - ALLOWED.keys()
    assert not unlisted, f"public names only tests reach: {sorted(unlisted)}"


def test_allowlist_has_no_stale_entries():
    stale = ALLOWED.keys() - _unreached()
    assert not stale, f"allowlisted names now reached or gone: {sorted(stale)}"

