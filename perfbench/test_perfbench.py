"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench      # from the repository root
"""

import cmath
import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mehler  # noqa: E402
import mehler.suite  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

STREAMS = {"heat-points": W.heat_points, "heat-grid": W.heat_grid}


def _first(stream, n):
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_generator_is_deterministic_per_seed(workload):
    make = STREAMS[workload]
    a = [op.inputs for op in _first(make(mehler, 7), 30)]
    b = [op.inputs for op in _first(make(mehler, 7), 30)]
    c = [op.inputs for op in _first(make(mehler, 8), 30)]
    assert a == b
    assert a != c


def _perturbed(out):
    """The op's output with its value moved well beyond every tolerance."""
    if isinstance(out, list):
        return [v * (1 + 1e-3) + 1e-3 for v in out]
    if isinstance(out, float):
        return out * (1 + 1e-4)
    if isinstance(out, mehler.CalibrationResult):
        return dataclasses.replace(out, kappa=out.kappa * (1 + 1e-4))
    if isinstance(out, mehler.EnvelopeReport):
        return dataclasses.replace(out, sup_ratio=out.sup_ratio * (1 + 1e-4))
    raise TypeError(type(out))


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_oracle_accepts_the_output_and_rejects_a_perturbed_one(workload):
    W.setup(mehler, workload)
    seen = set()
    for op in _first(STREAMS[workload](mehler, 3), 40):
        kind = op.label.split("/")[0]
        if kind in seen:
            continue
        seen.add(kind)
        out = op.run()
        assert W.judge(op, out, 0.0).ok, op.label
        bad = W.judge(op, _perturbed(out), 0.0)
        assert not bad.ok, op.label
        if isinstance(out, list):
            assert not W.judge(op, [complex("nan+nanj")] * len(out), 0.0).ok
    assert len(seen) >= 5


def test_suite_crash_is_recorded_under_its_registered_name(monkeypatch):
    suite = mehler.suite
    names = list(suite.DEFAULT_TOLERANCES)
    assert len(names) == len(suite.CHECKS)

    def passing(i):
        def check(config):
            return suite.CheckResult(names[i], "thm", "pass", 1e-3 * suite.DEFAULT_TOLERANCES[names[i]], suite.DEFAULT_TOLERANCES[names[i]])
        check.__name__ = suite.CHECKS[i].__name__
        return check

    def crashing(config):
        raise RuntimeError("boom")

    crashing.__name__ = suite.CHECKS[2].__name__
    fakes = [passing(i) for i in range(len(names))]
    fakes[2] = crashing
    monkeypatch.setattr(suite, "CHECKS", fakes)
    records = W.suite_pass(mehler, 1, {})
    assert [r.label for r in records] == names
    assert [r.ok for r in records].count(False) == 1
    assert not records[2].ok and records[2].label == "heat-isometry"
    assert "crashed" in records[2].error
    json.dumps([dataclasses.asdict(r) for r in records], allow_nan=False)


def test_metric_names_are_valid_and_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    layer = tracing.layer_metric_spec(mehler.suite.DEFAULT_TOLERANCES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer
    assert spec["paths"] == [HERE.name]
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for name in declared_e2e + declared_layer:
        assert pattern.fullmatch(name), name
    assert len(set(declared_e2e + declared_layer)) == len(declared_e2e) + len(declared_layer)


def test_traced_self_times_sum_to_at_most_the_wall_time():
    W.setup(mehler, "heat-grid")
    tracer = tracing.Tracer(mehler, list(mehler.suite.DEFAULT_TOLERANCES))
    ops = _first(W.heat_grid(mehler, 5), 12)
    busy = 0.0
    tracer.install()
    try:
        for op in ops:
            busy += W.execute(op).seconds
    finally:
        tracer.uninstall()
    _, dur, self_t = tracer.arrays()
    assert len(dur) > 0
    assert self_t.min() >= -1e-9
    assert self_t.sum() <= busy + 1e-9
    metrics = tracer.layer_metrics(busy, 0.0)
    shares = sum(metrics[f"{m}.share"] for m in tracing.MODULES)
    assert 0.0 < shares <= 1.0 + 1e-9
    assert metrics["special.special_hermite_eval.calls"] == 0
    assert metrics["specfun.hermite_eval.calls"] > 0
    assert all(math.isfinite(v) for v in metrics.values())
    # uninstall restored every binding
    assert mehler.semigroup.bergman_norm.__module__ == "mehler.semigroup"
    assert not hasattr(mehler.semigroup.bergman_norm, "__wrapped__")


def test_refuses_to_run_without_the_package_source():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_gaussian_oracle_matches_the_closed_form():
    # e^{-tH} e^{-a u^2/2}: a Gaussian integral in closed form
    t, a = 0.4, 1.3
    s, c = math.sinh(2 * t), 1 / math.tanh(2 * t)
    z = 0.7 - 1.1j
    closed = (2 * math.pi * s) ** -0.5 * (2 * math.pi / (c + a)) ** 0.5 * cmath.exp(
        -0.5 * c * z * z + z * z / (2 * s * s * (c + a))
    )
    assert abs(oracle.gaussian_image((1.0,), a, t, z) - closed) < 1e-13 * abs(closed)
