"""Verification-suite harness and command-line interface."""

import csv
import json
import math

import numpy as np
import pytest

from mehler.cli import cli_main, parse_test_function
from mehler.kernels import special_schwartz_bound
from mehler.special import special_hermite_eval
from mehler.spectral import Dirac, Gaussian, HermiteBasis, PolyGaussian
from mehler.suite import (
    CHECKS,
    REQUIRED_THEOREMS,
    ConfigError,
    SuiteConfig,
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


def test_determinism_byte_identical():
    a = run_suite(SuiteConfig()).to_json(include_timing=False)
    b = run_suite(SuiteConfig()).to_json(include_timing=False)
    assert a == b


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
        if name == "determinism":
            continue  # its metric is exactly zero by construction
        assert check.status == "fail", name
    assert report.failed


def test_config_round_trip():
    config = SuiteConfig(N=32, quad=96, t=(0.4,), seed=777, tol={"stft-bridge": 1e-5})
    again = SuiteConfig.from_json(config.to_json())
    assert again == config


def test_config_json_schema_shape():
    data = SuiteConfig().to_dict()
    assert data["schema"] == "1"
    assert set(data) == {"schema", "n", "N", "quad", "t", "m", "grid", "tol", "seed"}
    assert set(data["grid"]) == {"box", "res"}


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(n=2)
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


def test_report_json_shape(default_report):
    data = json.loads(default_report.to_json())
    assert data["schema"] == "1"
    assert set(data) == {"schema", "config", "checks", "summary"}
    assert data["summary"]["pass"] == len(CHECKS)
    for check in data["checks"]:
        assert set(check) == {
            "name", "theorem", "status", "metric", "tol", "details", "seconds",
        }


def test_crashed_check_keeps_registered_name_and_strict_json(monkeypatch):
    from mehler import suite

    def crash(config):
        raise RuntimeError("boom")

    def stub(config):
        return suite.CheckResult("stub", "", "pass", 0.5, 1.0)

    checks = [stub] * len(CHECKS)
    checks[0] = checks[-1] = crash
    monkeypatch.setattr(suite, "CHECKS", checks)
    report = run_suite(SuiteConfig())
    raise_line = crash.__code__.co_firstlineno + 1
    for res in (report.checks[0], report.checks[-1]):
        assert res.status == "fail"
        assert isinstance(res.metric, float) and res.metric == math.inf
        assert "boom" in res.details
        assert res.details.endswith(f" at test_suite_cli.py:{raise_line}")
    assert report.checks[0].name == "hermite-orthonormality"
    assert report.checks[-1].name == "determinism"
    assert report.checks[0].tol == SuiteConfig().tolerance("hermite-orthonormality")
    data = json.loads(report.to_json(), parse_constant=pytest.fail)
    assert data["checks"][0]["metric"] is None
    assert data["checks"][1]["metric"] == 0.5
    assert data["summary"]["fail"] == 2


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


def test_cli_suite_reduced(tmp_path, capsys):
    # a reduced-accuracy run exercises report writing and the exit status
    config = {
        "schema": "1",
        "n": 1,
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
    cfg_path.write_text('{"n": 3}')
    code = cli_main(["suite", "--config", str(cfg_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
