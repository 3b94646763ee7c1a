"""Tables built once per suite pass: the pass store and the batched calls."""

import pytest

from mehler import special, spectral, suite
from mehler.special import default_special_grid
from mehler.suite import SuiteConfig, run_suite

CONFIG = SuiteConfig()


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_store_is_gone_after_a_pass():
    assert suite._PASS_TABLES.get() is None
    run_suite(CONFIG)
    assert suite._PASS_TABLES.get() is None


def test_store_is_gone_after_a_check_raises(monkeypatch):
    seen = []

    def crashing(config):
        seen.append(suite._PASS_TABLES.get())
        raise RuntimeError("boom")

    monkeypatch.setattr(suite, "CHECKS", [suite.CHECKS[0], crashing])
    report = run_suite(CONFIG)
    assert report.checks[1].status == "fail"
    assert isinstance(seen[0], dict)
    assert suite._PASS_TABLES.get() is None

    class Stop(BaseException):
        pass

    def stopping(config):
        raise Stop

    # an exception that leaves the pass takes the store with it
    monkeypatch.setattr(suite, "CHECKS", [stopping])
    with pytest.raises(Stop):
        run_suite(CONFIG)
    assert suite._PASS_TABLES.get() is None


def test_a_build_that_raises_stores_nothing():
    with suite._pass_tables({}):
        with pytest.raises(ZeroDivisionError):
            suite._table("key", lambda: 1 / 0)
        assert suite._table("key", lambda: "built") == "built"
        assert suite._table("key", lambda: "again") == "built"
    # outside a pass every call builds afresh
    assert suite._table("key", lambda: "alone") == "alone"


def test_determinism_runs_never_read_the_store(monkeypatch):
    seen = []
    inner = suite.check_mehler_spectral

    def recording(config):
        seen.append(suite._PASS_TABLES.get())
        return inner(config)

    monkeypatch.setattr(suite, "check_mehler_spectral", recording)
    monkeypatch.setattr(suite, "CHECKS", [suite.check_determinism])
    report = run_suite(CONFIG)
    assert report.checks[0].status == "pass"
    assert seen == [None, None]


def test_each_pass_builds_its_own_tables(monkeypatch):
    calls = _counting(monkeypatch, suite, "calibrate_weight_special")
    run_suite(CONFIG)
    assert len(calls) == 1
    run_suite(CONFIG)
    assert len(calls) == 2


def test_a_check_run_alone_builds_its_tables(monkeypatch):
    calls = _counting(monkeypatch, suite, "calibrate_weight_special")
    assert suite.check_twisted_sobolev(CONFIG).status == "pass"
    assert suite.check_twisted_isometry(CONFIG).status == "pass"
    assert len(calls) == 2
    grid = default_special_grid(0.4, resolution=CONFIG.special_res)
    assert [args[0] for args in calls] == [0.4, 0.4]
    assert all(args[2] == grid for args in calls)


def test_shared_calibrations_are_built_once_per_pass(monkeypatch):
    plain = _counting(monkeypatch, suite, "calibrate_weight")
    twisted = _counting(monkeypatch, suite, "calibrate_weight_special")
    run_suite(CONFIG)
    keys = [(args[0], args[3]) for args in plain]
    assert len(keys) == len(set(keys))
    # heat-isometry at t = 0.25, 0.3, 0.5, complex-orthogonality,
    # derivative-weight-identity and sobolev-image-isometry; reproducing-
    # property reads heat-isometry's t = 0.3 table
    assert len(plain) == 6
    assert len(twisted) == 1


@pytest.mark.parametrize(
    "check, module, name, count",
    [
        (suite.check_reproducing, spectral, "hermite_log_ladder", 4),
        (suite.check_derivative_weight_identity, spectral.SpectralHandle, "eval_grid_parts", 4),
        # five single projections at two ladders each (input and profile),
        # and one for all 13 reconstruction terms
        (suite.check_projection_algebra, special, "hermite_eval", 11),
    ],
    ids=["reproducing-ladders", "derivative-weight-images", "projection-ladders"],
)
def test_call_counts_show_the_sharing(monkeypatch, check, module, name, count):
    # before the batched calls: 40 ladders, 12 image tables, 10 + 13 ladders
    calls = _counting(monkeypatch, module, name)
    assert check(CONFIG).status == "pass"
    assert len(calls) == count

