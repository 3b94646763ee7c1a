"""The benchmark's adapters run the package as the package runs itself.

``perfbench/run.py`` times a suite pass by wrapping every registered check
in place (``_timed_checks``), and ``perfbench/workloads.py`` turns the
report into one record per check and builds the heat-grid jobs.  Both
modules are loaded here by path, as ``test_tracing_targets.py`` loads
``tracing.py``.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mehler
import mehler.suite  # perfbench imports it beside the package

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# workloads.py imports its sibling oracle.py by that name
_saved = sys.modules.get("oracle")
sys.modules["oracle"] = _load("oracle", "oracle.py")
try:
    _workloads = _load("perfbench_workloads", "workloads.py")
finally:
    if _saved is None:
        del sys.modules["oracle"]
    else:
        sys.modules["oracle"] = _saved
_run = _load("perfbench_run", "run.py")


def test_timed_suite_pass_records_every_check_in_registry_order():
    suite = mehler.suite
    registered = list(suite.CHECKS)
    timer: dict = {}
    original = _run._timed_checks(suite, timer, None)
    try:
        records = _workloads.suite_pass(mehler, 1, timer)
    finally:
        suite.CHECKS[:] = original
    assert suite.CHECKS == registered
    names = list(suite.DEFAULT_TOLERANCES)
    assert len(names) == 19
    assert [fn.entry.name for fn in registered] == names
    assert [r.label for r in records] == names
    assert all(r.ok for r in records), [(r.label, r.error) for r in records if not r.ok]
    assert sorted(timer) == list(range(19))


def test_check_crashing_inside_the_timer_keeps_its_tag(monkeypatch):
    suite = mehler.suite

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(suite, "special_semigroup_apply", boom)
    monkeypatch.setattr(suite, "CHECKS", [suite.check_twisted_isometry])
    timer: dict = {}
    _run._timed_checks(suite, timer, None)
    assert suite.CHECKS[0] is not suite.check_twisted_isometry
    (row,) = suite.run_suite(suite.SuiteConfig(seed=1)).checks
    assert (row.name, row.theorem, row.status) == ("twisted-isometry", "Thm 3.1", "fail")
    assert row.tol == suite.DEFAULT_TOLERANCES["twisted-isometry"]
    assert "boom" in row.details
    assert list(timer) == [0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["sobolev-embed", "schwartz-image", "tempered", "pw"])
def test_heat_grid_envelope_jobs_pass_their_oracles(kind, seed):
    # the heat-grid envelope ops, built by the benchmark's own job makers,
    # pass their off-clock oracles; each judges the report by its sup_ratio
    # alone, so a report that carries only that field passes the same check
    rng = np.random.default_rng([seed, 7])
    if kind == "pw":
        op = _workloads._pw_job(mehler, rng)
    else:
        op = _workloads._envelope_job(mehler, rng, kind)
    record = _workloads.execute(op)
    assert record.ok, (record.label, record.error)
    rep = op.run()
    bare = _workloads.judge(op, SimpleNamespace(sup_ratio=rep.sup_ratio), 0.0)
    assert bare.ok and bare.margin == record.margin
