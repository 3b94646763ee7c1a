"""Every defaulted parameter in the package is set by some caller outside tests.

An option whose default every caller keeps is a setting with one value: it
multiplies the configurations to test without adding one that runs.  The
rule: each defaulted parameter of a function or method defined in a
``mehler`` module (module level or in a class body, private ones too) must
be passed, by keyword or by position, by some call in

- the package itself (``src/mehler/``),
- the non-test files of ``perfbench/``.

A call names its target as ``f(...)`` or ``obj.f(...)``; a call of a class
``C(...)`` counts for ``C.__init__``, and ``functools.partial(f, ...)`` for
``f``.  A ``*args`` or ``**kwargs`` splat counts as passing every
parameter it could fill.  A call from inside the function's own body does
not count, and neither does an argument that is the default's own literal
(``expand(..., dimension=1)`` against ``dimension: int = 1``): it sets the
option to the one value it already has.

``ALLOWED`` lists the options kept although no caller outside tests sets
them, each with its reason; an entry that a caller reaches (or that is
gone) fails as stale.

The rule is name-based, so it over-counts reach: a call of ``to_json``
counts for every method of that name.  Options that only such a collision
keeps alive have to be found by reading the code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mehler"
PERFBENCH = ROOT / "perfbench"

# Options that no caller outside tests sets, each with the reason it stays.
ALLOWED = {
    "spectral.eval_entire(with_tail)": (
        "the truncation-tail indicator, kept for the trusted-region work on "
        "entire-function evaluation and the suite's diagnostics"
    ),
    "cli.cli_main(argv)": "test seam: tests drive the command line in process",
    "suite.SuiteReport.to_json(include_timing)": (
        "test seam: tests compare reports without their timing fields"
    ),
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


_NO_LITERAL = object()


def _literal(node: ast.AST):
    """The value of a literal expression, or ``_NO_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NO_LITERAL


def _same_literal(node: ast.AST, default) -> bool:
    """Whether ``node`` is a literal equal to ``default``, of its type."""
    value = _literal(node)
    return (
        value is not _NO_LITERAL
        and default is not _NO_LITERAL
        and type(value) is type(default)
        and value == default
    )


def _options() -> dict[str, tuple[int | None, object]]:
    """``"module.[Class.]function(param)"`` of every defaulted parameter,
    mapped to the index of its positional argument at a call (``None`` for
    a keyword-only parameter) and its default's literal value
    (``_NO_LITERAL`` when the default is not a literal)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(f"{path.stem}.{node.name}", node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (f"{path.stem}.{node.name}.{sub.name}", sub, _bound_arguments(sub))
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                ]
            else:
                continue
            for qualname, fn, bound in functions:
                args = fn.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, (arg, default) in enumerate(
                    zip(positional[first:], args.defaults), start=first
                ):
                    found[f"{qualname}({arg.arg})"] = (i - bound, _literal(default))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{qualname}({arg.arg})"] = (None, _literal(default))
    return found


def _bound_arguments(fn: ast.FunctionDef) -> int:
    """Leading parameters a call through an instance or class fills: none
    for a static method, ``self`` or ``cls`` otherwise."""
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return 0 if static else 1


def _target(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Calls(ast.NodeVisitor):
    """(callee name, positional args, keywords) of every call, outside the
    callee's own body."""

    def __init__(self, classes: set[str]):
        self.classes = classes
        self.enclosing: list[str] = []
        self.calls: list[tuple[str, list, list]] = []

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Call(self, node):
        name, args = _target(node.func), node.args
        if name == "partial" and args:
            name, args = _target(args[0]), args[1:]
        if name in self.classes:
            name = f"{name}.__init__"
        if name and name not in self.enclosing:
            self.calls.append((name, args, node.keywords))
        self.generic_visit(node)


def _calls() -> list[tuple[str, list, list]]:
    paths = sorted(PACKAGE.glob("*.py")) + [
        path for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")
    ]
    trees = [_parse(path) for path in paths]
    classes = {
        node.name for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    visitor = _Calls(classes)
    for tree in trees:
        visitor.visit(tree)
    return visitor.calls


def _unset() -> set[str]:
    calls = _calls()
    unset = set()
    for key, (index, default) in _options().items():
        qualname, _, param = key[:-1].rpartition("(")
        parts = qualname.split(".")
        name = ".".join(parts[-2:]) if parts[-1] == "__init__" else parts[-1]

        def passes(args, keywords) -> bool:
            for k in keywords:
                if k.arg is None or (k.arg == param and not _same_literal(k.value, default)):
                    return True
            if index is None:
                return False
            if any(isinstance(a, ast.Starred) for a in args):
                return True
            return len(args) > index and not _same_literal(args[index], default)

        if not any(callee == name and passes(args, kws) for callee, args, kws in calls):
            unset.add(key)
    return unset


def test_every_option_is_set_by_a_caller_or_allowed():
    unlisted = _unset() - ALLOWED.keys()
    assert not unlisted, f"options no caller outside tests sets: {sorted(unlisted)}"


def test_allowlist_has_no_stale_entries():
    stale = ALLOWED.keys() - _unset()
    assert not stale, f"allowlisted options now set by a caller or gone: {sorted(stale)}"
