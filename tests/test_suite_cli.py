"""Verification-suite harness and command-line interface."""

import csv
import functools
import json
import math
import os

import numpy as np
import pytest

from mehler import cli
from mehler.cli import cli_main, parse_test_function
from mehler.kernels import special_schwartz_bound
from mehler.semigroup import bergman_norm, semigroup_handle
from mehler.special import SpecialHermiteBasis, special_envelope, special_hermite_eval
from mehler.spectral import Dirac, Gaussian, HermiteBasis, PolyGaussian, SpectralHandle
from mehler.stft import _StftHandle, gauss_stft
from mehler.suite import (
    CHECKS,
    REQUIRED_THEOREMS,
    ConfigError,
    SuiteConfig,
    _special_envelope_grid,
    check_determinism,
    check_mehler_spectral,
    run_suite,
)


@pytest.fixture(scope="module")
def default_report():
    return run_suite(SuiteConfig())


def test_default_suite_all_pass(default_report):
    assert default_report.summary["fail"] == 0
    assert default_report.summary["pass"] == len(CHECKS)


def test_theorem_tag_completeness(default_report):
    tags = {c.theorem for c in default_report.checks if c.theorem and c.theorem != "harness"}
    assert tags == REQUIRED_THEOREMS


def test_every_check_appears_once(default_report):
    names = [c.name for c in default_report.checks]
    assert len(names) == len(set(names))
    assert len(names) == len(CHECKS)


def test_statuses_from_enumerated_set(default_report):
    assert {c.status for c in default_report.checks} <= {"pass", "fail", "skipped"}


# The default report: name, theorem tag, tolerance, status and metric of
# each check, in order, compared exactly: the suite is deterministic, so a
# metric that moves in its last bit is a change of arithmetic, and a pinned
# value changes only with a stated reason.
PINNED_REPORT = [
    ("hermite-orthonormality", "eq. (2.1)", 1e-10, "pass", 1.5543122344752192e-15),
    ("mehler-spectral-bridge", "Thm 2.1", 1e-08, "pass", 3.444384363444445e-12),
    ("heat-isometry", "Thm 2.1", 1e-05, "pass", 1.5543122344752192e-15),
    ("complex-orthogonality", "eq. (2.1)", 1e-09, "pass", 1.0539296868636101e-14),
    ("derivative-weight-identity", "Prop 2.2", 0.0001, "pass", 1.5987211554602254e-14),
    ("reproducing-property", "Thm 4.1", 1e-05, "pass", 4.1335580751915945e-16),
    ("sobolev-embedding-envelopes", "Thm 4.1", 0.05, "pass", 0.013465995903670428),
    ("schwartz-image-envelopes", "Thm 4.2", 0.01, "pass", 2.220446049250313e-16),
    ("intertwining-relations", "Lemma 4.3", 1e-06, "pass", 1.4075101525848022e-16),
    ("twisted-isometry", "Thm 3.1", 0.0001, "pass", 1.9539925233402755e-14),
    ("twisted-sobolev-identity", "Thm 3.2", 0.001, "pass", 7.837681121398216e-13),
    ("projection-algebra", "Thm 3.1", 1e-06, "pass", 1.1763281482641116e-12),
    ("tempered-envelope", "Thm 5.1", 0.01, "pass", 1.1324274851176597e-14),
    ("stft-bridge", "Thm 5.3", 1e-06, "pass", 2.6447321447912096e-16),
    ("compact-support", "Thm 5.4", 0.01, "pass", 3.419486915845482e-14),
    ("sobolev-image-isometry", "Thm 2.3", 0.0001, "pass", 1.845822116546649e-15),
    ("twisted-schwartz-envelope", "Thm 4.4", 0.05, "pass", 0.01201902196759779),
    ("twisted-plain-envelope", "eq. (4.7)", 0.05, "pass", 0.0),
    ("determinism", "harness", 0.0, "pass", 0.0),
]


def test_default_report_matches_pinned_values(default_report):
    got = [(c.name, c.theorem, c.tol, c.status, c.metric) for c in default_report.checks]
    assert got == PINNED_REPORT


def test_determinism_byte_identical():
    a = run_suite(SuiteConfig()).to_json(include_timing=False)
    b = run_suite(SuiteConfig()).to_json(include_timing=False)
    assert a == b


@pytest.mark.parametrize("quad", [384, 512])
def test_largest_quadrature_orders_pass(quad):
    # the outer Gauss-Hermite weights underflow at these orders; the rule's
    # compensated weights keep every weighted sum finite
    report = run_suite(SuiteConfig(quad=quad))
    failed = [(c.name, c.metric, c.details) for c in report.checks if c.status != "pass"]
    assert not failed


def test_under_truncation_fails_with_diagnostics():
    report = run_suite(SuiteConfig(N=4))
    by_name = {c.name: c for c in report.checks}
    bridge = by_name["mehler-spectral-bridge"]
    assert bridge.status == "fail"
    assert "N=4" in bridge.details
    assert report.failed


def test_zero_tolerance_fails_floating_checks():
    from mehler.suite import DEFAULT_TOLERANCES

    zero_tol = {k: 0.0 for k in DEFAULT_TOLERANCES}
    report = run_suite(SuiteConfig(tol=zero_tol))
    by_name = {c.name: c for c in report.checks}
    for name, check in by_name.items():
        if name in ("determinism", "twisted-plain-envelope"):
            continue  # its metric is exactly zero by construction
        assert check.status == "fail", name
    assert report.failed


def test_twisted_plain_sup_is_the_closed_form_at_the_origin():
    # the sup of |e^{-tL} Phi_00|^2 / (1 + y^2 + v^2) is |Phi_00(0, 0)|^2
    # e^{-2t} = e^{-1} / (2 pi) at t = 0.5, at the origin, which the suite's
    # odd trapezoid grid and its refinement both hold as a node: the
    # refinement change reads exactly 0
    rep = special_envelope(
        SpecialHermiteBasis((0,), (0,)), 0.5, 0, _special_envelope_grid(), kind="special-plain"
    )
    expected = math.exp(-1.0) / (2.0 * math.pi)
    assert rep.sup_ratio == pytest.approx(expected, rel=1e-14)
    assert rep.sup_coarse == rep.sup_ratio
    assert rep.argmax == (0.0, 0.0, 0.0, 0.0)


def test_config_round_trip():
    config = SuiteConfig(N=32, quad=96, t=(0.4,), seed=777, tol={"stft-bridge": 1e-5})
    again = SuiteConfig.from_json(config.to_json())
    assert again == config


def test_config_json_schema_shape():
    data = SuiteConfig().to_dict()
    assert data["schema"] == "1"
    assert set(data) == {"schema", "N", "quad", "t", "m", "grid", "tol", "seed"}
    assert set(data["grid"]) == {"box", "res"}


def test_config_carrying_n_is_rejected(tmp_path, capsys):
    # the suite runs at n = 1 only, so the config has no dimension key, and
    # one that still carries it (even at its one old value) is an error
    with pytest.raises(ConfigError, match="'n'"):
        SuiteConfig.from_json('{"n": 1}')
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SuiteConfig().to_dict(), "n": 1}))
    assert cli_main(["suite", "--config", str(cfg_path)]) == 2
    assert "config error: unknown config keys ['n']" in capsys.readouterr().err


def test_config_from_dict_keeps_the_defaults_of_absent_keys():
    assert SuiteConfig.from_dict({}) == SuiteConfig()
    assert SuiteConfig.from_dict({"grid": {"res": 64}}) == SuiteConfig(grid_res=64)


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(quad=0)
    with pytest.raises(ConfigError):
        SuiteConfig(t=())
    with pytest.raises(ConfigError):
        SuiteConfig(grid_box=(1.0, -1.0, 0.0, 1.0))
    with pytest.raises(ConfigError):
        SuiteConfig.from_json('{"schema": "2"}')
    with pytest.raises(ConfigError):
        SuiteConfig.from_json('{"unknown_key": 1}')
    with pytest.raises(ConfigError):
        SuiteConfig.from_json("not json")
    with pytest.raises(ConfigError):
        SuiteConfig(tol={"no-such-check": 1.0})
    with pytest.raises(ConfigError):
        SuiteConfig(tol={"determinism": math.inf})
    with pytest.raises(ConfigError):
        SuiteConfig(t=(0.3, math.nan))


@pytest.mark.parametrize(
    "data",
    [
        {"grid": {"resolution": 64}},
        {"grid": [1, 2]},
        {"tol": []},
        {"N": 4.5},
        {"seed": 1.5},
        {"grid": {"res": 64.5}},
        {"m": [0, 1.5]},
        {"m": []},
        {"m": [-1]},
    ],
    ids=["grid-key", "grid-list", "tol-list", "N", "seed", "res", "m", "m-empty", "m-negative"],
)
def test_config_refuses_what_the_checks_would_ignore(data):
    # each of these used to run at a default or a truncated value, or
    # escape as AttributeError
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict(data)


def test_config_accepts_whole_floats():
    config = SuiteConfig.from_dict({"N": 32.0, "m": [0, 1.0], "grid": {"res": 64.0}})
    assert (config.N, config.m, config.grid_res) == (32, (0, 1), 64)
    assert isinstance(config.N, int) and isinstance(config.grid_res, int)


def test_report_json_shape(default_report):
    data = json.loads(default_report.to_json())
    assert data["schema"] == "1"
    assert set(data) == {"schema", "config", "checks", "summary", "environment"}
    assert data["summary"]["pass"] == len(CHECKS)
    for check in data["checks"]:
        assert set(check) == {
            "name", "theorem", "status", "metric", "tol", "details", "seconds",
        }


def test_report_environment_block_comes_with_the_timings(default_report):
    data = json.loads(default_report.to_json(), parse_constant=pytest.fail)
    env = data["environment"]
    assert set(env) == {"python", "numpy", "blas", "blas_version", "cpu_count"}
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert all(isinstance(env[k], str) and env[k] for k in ("python", "blas", "blas_version"))
    bare = json.loads(default_report.to_json(include_timing=False))
    assert "environment" not in bare
    assert all("seconds" not in c for c in bare["checks"])


def test_crashed_check_keeps_registered_name_and_strict_json(monkeypatch):
    from mehler import suite

    # stand-ins wrap the registered checks as the benchmark's timers do,
    # which carries each one's registry entry over
    def crashing(original):
        def crash(config):
            raise RuntimeError("boom")

        return functools.wraps(original)(crash)

    def stubbing(original):
        def stub(config):
            return suite.CheckResult("stub", "", "pass", 0.5, 1.0)

        return functools.wraps(original)(stub)

    checks = [stubbing(fn) for fn in CHECKS]
    checks[0], checks[-1] = crashing(CHECKS[0]), crashing(CHECKS[-1])
    monkeypatch.setattr(suite, "CHECKS", checks)
    report = run_suite(SuiteConfig())
    raise_line = checks[0].__code__.co_firstlineno + 1
    for res in (report.checks[0], report.checks[-1]):
        assert res.status == "fail"
        assert isinstance(res.metric, float) and res.metric == math.inf
        assert "boom" in res.details
        assert res.details.endswith(f" at test_suite_cli.py:{raise_line}")
    assert report.checks[0].name == "hermite-orthonormality"
    assert report.checks[0].theorem == "eq. (2.1)"
    assert report.checks[-1].name == "determinism"
    assert report.checks[-1].theorem == "harness"
    assert report.checks[0].tol == CHECKS[0].entry.tolerance(SuiteConfig())
    data = json.loads(report.to_json(), parse_constant=pytest.fail)
    assert data["checks"][0]["metric"] is None
    assert data["checks"][1]["metric"] == 0.5
    assert data["summary"]["fail"] == 2


def test_derivative_weight_check_runs_exactly_the_configured_orders(monkeypatch):
    from mehler import suite

    orders = []

    def recording(handle, t, m, grid, kappa=1.0):
        orders.append(m)
        return bergman_norm(handle, t, m, grid, kappa)

    monkeypatch.setattr(suite, "bergman_norm", recording)
    res = suite.check_derivative_weight_identity(SuiteConfig(m=(0,)))
    assert res.status == "pass"
    # one multi-order call per image, each naming exactly the configured orders
    assert orders == [(0,)] * 4


def test_single_check_determinism():
    config = SuiteConfig()
    res = check_determinism(config)
    assert res.status == "pass"
    r1 = check_mehler_spectral(config)
    r2 = check_mehler_spectral(config)
    assert r1.to_dict(include_timing=False) == r2.to_dict(include_timing=False)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parse_test_function_dsl():
    assert parse_test_function("h3") == HermiteBasis((3,))
    assert parse_test_function("gaussian:2.0") == Gaussian(2.0)
    assert parse_test_function("dirac:0.5") == Dirac(0.5)
    assert parse_test_function("polygaussian:1,0,0.5:2") == PolyGaussian(
        (1.0, 0.0, 0.5), 2.0
    )
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_test_function("nonsense")


@pytest.mark.parametrize(
    "spec, word",
    [("gaussian:nan", "width parameter a"), ("bump:-1", "radius"), ("dirac:inf", "point")],
)
def test_cli_keeps_the_refusal_of_a_test_function(spec, word, capsys):
    # argparse once replaced the build's refusal with its generic
    # "invalid parse_test_function value"
    assert cli_main(["transform", "--f", spec]) == 2
    err = capsys.readouterr().err
    assert word in err
    assert "invalid parse_test_function value" not in err


def test_negative_seed_is_a_config_error(capsys):
    # the check streams seed default_rng(seed ^ crc32(name)), which refuses
    # a negative value: at seed -1 four checks once failed with numpy's
    # "expected non-negative integer" and the suite exited 1
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        SuiteConfig(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        SuiteConfig.from_dict({"seed": -1})
    assert cli_main(["suite", "--seed", "-1"]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_cli_unknown_flag_exits_2(capsys):
    assert cli_main(["bridge", "--no-such-flag"]) == 2
    assert cli_main(["no-such-command"]) == 2


def test_cli_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["suite", "--help"]) == 0


def test_cli_bridge(capsys):
    code = cli_main(["bridge", "--t", "0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max residual" in out
    assert "c=" in out


def test_cli_transform(capsys):
    code = cli_main(["transform", "--f", "h0", "--t", "0.3", "--z", "0"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"][0] == pytest.approx(math.exp(-0.3) * math.pi**-0.25, rel=1e-9)


def test_cli_transform_overflow_exits_1(capsys):
    code = cli_main(["transform", "--f", "h3", "--z", "0.5,40"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_transform_kernel_overflow_exits_1(capsys):
    code = cli_main(["transform", "--f", "h3", "--z", "0.5,40", "--mode", "kernel"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_calibrate(capsys):
    code = cli_main(["calibrate", "--t", "0.25", "--res", "96"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kappa"] == pytest.approx((2 * math.pi) ** -0.5, rel=1e-5)


def test_cli_calibrate_on_a_coarse_grid_exits_1(capsys):
    # the weighted sums check their own step: a named error, not a traceback
    assert cli_main(["calibrate", "--t", "0.25", "--res", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "twice the step" in captured.err


def test_cli_envelope_csv(tmp_path):
    out = tmp_path / "env.csv"
    code = cli_main(
        ["envelope", "--t", "0.3", "--m", "2", "--out", str(out), "--res", "24"]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "absF2", "bound", "ratio"]
    assert len(rows) == 1 + 24 * 24
    x, y, a2, b, r = (float(v) for v in rows[1])
    assert r == pytest.approx(a2 / b, rel=1e-12)
    # IEEE round-trip formatting: parsing the text reproduces the float
    assert repr(float(rows[1][2])) == rows[1][2]


def _record_eval_grid(monkeypatch, cls, method="eval_grid"):
    """Wrap a grid method of cls to record the number of points of each call."""
    sizes = []
    inner = getattr(cls, method)

    def recording(self, *coords):
        sizes.append(np.broadcast(*coords).size)
        return inner(self, *coords)

    monkeypatch.setattr(cls, method, recording)
    return sizes


def test_cli_envelope_evaluates_the_coarse_grid_once(tmp_path, monkeypatch):
    # the envelope's one scan takes the split form P e^E of the spectral
    # image, real on R, on the y <= 0 half of the refined grid (24 of its 47
    # rows of y) and keeps no values of F; the CSV then evaluates the image
    # once more, at the 24 x 24 nodes of its own grid
    sizes = _record_eval_grid(monkeypatch, SpectralHandle, "eval_grid_parts")
    out = tmp_path / "env.csv"
    code = cli_main(
        ["envelope", "--t", "0.3", "--m", "2", "--out", str(out), "--res", "24"]
    )
    assert code == 0
    assert sizes == [47 * 24, 24 * 24]
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    # each row tables |F|^2 at its own node (the default f is h_0)
    handle = semigroup_handle(HermiteBasis((0,)), 0.3, "spectral", truncation=48)
    for row in rows[::97]:
        x, y, a2 = (float(v) for v in row[:3])
        assert a2 == pytest.approx(abs(handle.eval(complex(x, y))) ** 2, rel=1e-12)


def test_cli_envelope_csv_overflow_is_named(tmp_path, capsys):
    # the scan's sup stays finite at |y| = 40, but |F|^2 of the h_0 image
    # (about e^{1600}) does not fit the CSV: the command fails by name and
    # writes nothing
    out = tmp_path / "env.csv"
    code = cli_main(
        ["envelope", "--t", "0.3", "--out", str(out), "--res", "16",
         "--box", "-6", "6", "-40", "40"]
    )
    assert code == 1 and not out.exists()
    assert "largest double" in capsys.readouterr().err


def test_cli_stft_evaluates_the_coarse_grid_once(tmp_path, monkeypatch):
    # the envelope's one scan is the open-mesh product over the whole
    # refined grid (a windowed transform is not folded); the CSV then makes
    # one gauss_stft call at the 16 x 16 nodes of its own grid
    sizes = _record_eval_grid(monkeypatch, _StftHandle)
    points = []
    inner = cli.gauss_stft

    def recording(f, a, z, **kwargs):
        points.append(np.size(z))
        return inner(f, a, z, **kwargs)

    monkeypatch.setattr(cli, "gauss_stft", recording)
    out = tmp_path / "stft.csv"
    code = cli_main(
        ["stft", "--f", "h0", "--a", "2.0", "--out", str(out), "--res", "16",
         "--box", "-4", "4", "-3", "3"]
    )
    assert code == 0
    assert sizes == [31 * 31]
    assert points == [16 * 16]


def test_cli_kernels_csv(tmp_path):
    out = tmp_path / "kern.csv"
    code = cli_main(
        ["kernels", "--kind", "mehler", "--t", "0.5", "--out", str(out), "--res", "16"]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 1 + 16 * 16


def test_cli_special_eigen(capsys):
    code = cli_main(["special", "--action", "eigen", "--t", "0.4", "--beta", "1"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["residual"] < 1e-6
    assert data["eigenvalue"] == 3


def test_cli_special_intertwine(capsys):
    code = cli_main(["special", "--action", "intertwine", "--t", "0.5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["validated"] == "+coth(t)/2"


def test_cli_special_rejects_unused_flags(capsys):
    for flag in ("--quad", "--N", "--n", "--seed"):
        assert cli_main(["special", "--action", "eigen", flag, "64"]) == 2


# flags each subcommand does not read; argparse rejects them before any work
UNUSED_FLAGS = {
    "calibrate": ("--N", "--quad", "--seed", "--n", "--format"),
    "transform": ("--seed", "--n", "--format"),
    "kernels": ("--N", "--quad", "--seed", "--n", "--format"),
    "envelope": ("--seed", "--n", "--format"),
    "stft": ("--N", "--seed", "--n", "--t", "--format"),
    "bridge": ("--seed", "--n", "--out", "--format"),
}


@pytest.mark.parametrize("command", sorted(UNUSED_FLAGS))
def test_cli_rejects_unused_flags(command, capsys):
    for flag in UNUSED_FLAGS[command]:
        assert cli_main([command, flag, "2"]) == 2, flag


def test_cli_special_envelope_csv(tmp_path):
    out = tmp_path / "slice.csv"
    code = cli_main(
        ["special", "--action", "envelope", "--t", "0.5", "--res", "8",
         "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y", "v", "absF2", "bound", "ratio"]
    assert len(rows) == 1 + 8 * 8


def test_cli_special_envelope_csv_matches_pointwise_values(tmp_path):
    t, m, x, u = 0.5, 1, 0.3, -0.2
    out = tmp_path / "slice.csv"
    code = cli_main(
        ["special", "--action", "envelope", "--t", str(t), "--m", str(m),
         "--alpha", "1", "--beta", "2", "--x", str(x), "--u", str(u), "--res", "7",
         "--box", "-4", "3", "-2", "5", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    ys, vs = np.linspace(-4, 3, 7), np.linspace(-2, 5, 7)
    assert [(r[0], r[1]) for r in rows] == [(y, v) for y in ys for v in vs]
    bound = special_schwartz_bound(t, m)
    damp = math.exp(-5 * t)
    for y, v, absF2, b, ratio in rows:
        assert b == float(bound.eval(x, y, u, v))
        ref = abs(damp * special_hermite_eval((1,), (2,), x + 1j * y, u + 1j * v)) ** 2
        assert absF2 == pytest.approx(ref, rel=1e-13)
        assert ratio == absF2 / b


def test_cli_transform_point_mass_kernel_overflow_exits_1(capsys):
    code = cli_main(["transform", "--f", "dirac:0.5", "--z", "0.5,40", "--mode", "kernel"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "exceeds the largest double" in captured.err


def test_cli_stft_csv(tmp_path):
    out = tmp_path / "stft.csv"
    code = cli_main(
        ["stft", "--f", "h0", "--a", "2.0", "--out", str(out), "--res", "16",
         "--box", "-4", "4", "-3", "3"]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "absF2", "bound", "ratio"]
    assert len(rows) == 1 + 16 * 16
    # each row tables |T_a f|^2 at its own node, against the squared bound
    for row in rows[1:]:
        x, y, a2, b, r = (float(v) for v in row)
        assert a2 == pytest.approx(abs(gauss_stft(HermiteBasis((0,)), 2.0, complex(x, y))) ** 2, rel=1e-12)
        assert r == pytest.approx(a2 / b, rel=1e-12)


def test_cli_suite_reduced(tmp_path, capsys):
    # a reduced-accuracy run exercises report writing and the exit status
    config = {
        "schema": "1",
        "N": 48,
        "quad": 128,
        "t": [0.3, 0.5],
        "m": [0, 1, 2],
        "grid": {"box": [-8, 8, -6, 6], "res": 96},
        "tol": {},
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    code = cli_main(["suite", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["fail"] == 0
    assert report["config"]["seed"] == 7


def test_cli_suite_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    # a non-object grid used to escape as AttributeError
    for text in ('{"n": 3}', '{"grid": [1, 2]}', '{"m": []}'):
        cfg_path.write_text(text)
        code = cli_main(["suite", "--config", str(cfg_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err


def test_cli_suite_overrides_replace_only_their_fields(tmp_path, monkeypatch):
    from mehler import cli
    from mehler.suite import SuiteReport

    seen = []

    def recording(config):
        seen.append(config)
        return SuiteReport(config=config, checks=[])

    monkeypatch.setattr(cli, "run_suite", recording)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid": {"res": 96}, "seed": 7}))
    argv = ["suite", "--config", str(cfg_path), "--N", "32", "--t", "0.4", "--t", "0.6"]
    assert cli_main(argv) == 0
    assert seen == [SuiteConfig(N=32, t=(0.4, 0.6), grid_res=96, seed=7)]
    # an override out of range is a config error, as in the file
    assert cli_main(["suite", "--config", str(cfg_path), "--quad", "0"]) == 2
    assert len(seen) == 1
