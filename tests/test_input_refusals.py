"""Every numeric parameter of the public API refuses a value outside its
domain by name.

The paper's statements take a time t > 0, whole orders m >= 0, window
widths a > 0 and points of C.  The rule: each export of ``mehler`` that
takes a numeric parameter has an entry in ``TABLE``, which gives valid
base arguments and the kind of each numeric parameter:

- ``whole``: NaN, +inf, -inf, ``True``, 1.5 and -1 are refused;
- ``real``: NaN, +inf, -inf, ``True`` and -1 are refused;
- ``point``: NaN, +inf and -inf are refused; ``True`` and -1 are points
  of C, and may give a value.

A refusal is a ``ValueError`` or ``TypeError`` raised by the package (not
from inside numpy) whose message names the parameter as a word; a kind
may name the word instead (``whole:multi-index``: ``as_index`` names the
multi-index it was handed).  Any call that is not refused must return a
finite result: no NaN or inf in a number, an array, a tuple or the fields
of a returned object.  An ``HermiteOverflowError`` is never a refusal.

A numeric parameter is one annotated ``int``, ``float`` or ``complex``
(alone or in a union); an export with one that ``TABLE`` does not cover
fails.  ``ALLOWED`` holds the exceptions, keyed ``"name"`` for a whole
export or ``"name(param)"`` for a parameter that takes -1, each with its
reason; an entry that is not used fails as stale.
"""

import dataclasses
import inspect
import math
import numbers
import re
import traceback
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import mehler
from mehler.suite import SuiteConfig

PACKAGE = Path(mehler.__file__).resolve().parent

# Exceptions to the rule, each with its reason.
ALLOWED = {
    "BridgeReport": "a result record, built by bridge_residual from its checked inputs",
    "CalibrationResult": "a result record, built by the calibrations from checked sums",
    "EnvelopeReport": "a result record, built by the envelope scan from checked inputs",
    "sobolev_norm(m)": "negative orders are the distribution scales (eigenvalues >= 1)",
    "gauss_legendre_rule(a)": "an interval end: -1 is the left end of the default [-1, 1]",
}

_VALUES = {
    "whole": (math.nan, math.inf, -math.inf, True, 1.5, -1),
    "real": (math.nan, math.inf, -math.inf, True, -1),
    "point": (math.nan, math.inf, -math.inf, True, -1),
}
_REFUSED = {"whole": _VALUES["whole"], "real": _VALUES["real"], "point": _VALUES["point"][:3]}


def _grid(*boxes, resolution):
    return mehler.PlaneGrid(boxes=boxes, resolution=resolution)


def _bases() -> dict:
    """Export name -> list of (base keyword arguments, {param: kind})."""
    t = 0.3
    gh, gh128 = mehler.gauss_hermite_rule(32), mehler.gauss_hermite_rule(128)
    plane = _grid((-4.0, 4.0, -3.0, 3.0), resolution=9)
    bergman = mehler.default_bergman_grid(t, resolution=65)
    special = mehler.default_special_grid(0.4, resolution=32)
    small4 = _grid((-3.0, 3.0, -2.0, 2.0), (-3.0, 3.0, -2.0, 2.0), resolution=5)
    twisted = mehler.default_twisted_grid(0.4)
    h1 = mehler.HermiteBasis((1,))
    handle = mehler.semigroup_handle(h1, t, truncation=8)
    expansion = mehler.expand(h1, 4)
    g2 = mehler.Gaussian2n(1.0)
    eigen = mehler.special.SpecialEigenHandle((0,), (1,), 0.4)
    tm = {"t": "real", "m": "whole"}
    bound = ({"t": t, "m": 1}, tm)
    return {
        "as_index": [({"alpha": 2}, {"alpha": "whole:multi-index"})],
        "as_point": [({"z": 0.5}, {"z": "point"})],
        "oscillator_eigenvalue": [({"alpha": 2}, {"alpha": "whole:multi-index"})],
        "BoundSpec": [
            ({"kind": "tempered", "t": t, "m": 1}, tm),
            ({"kind": "pw-stft", "a": 2.0, "m": 1}, {"a": "real"}),
            ({"kind": "compact", "t": t, "radius": 0.5}, {"radius": "real"}),
        ],
        "bergman_weight": [({"t": t, "z": 0.5 + 0.2j}, {"t": "real", "z": "point"})],
        "bergman_weight_dt": [({"t": t, "m": 1, "z": 0.5}, {**tm, "z": "point"})],
        "compact_bound": [({"t": t, "radius": 0.5}, {"t": "real", "radius": "real"})],
        "mehler_kernel": [
            ({"t": t, "z": 0.1, "w": 0.2}, {"t": "real", "z": "point", "w": "point"})
        ],
        "mehler_spectral": [
            (
                {"t": t, "z": 0.1, "w": 0.2, "truncation": 8},
                {"t": "real", "z": "point", "w": "point", "truncation": "whole"},
            )
        ],
        "schwartz_image_bound": [bound],
        "sobolev_embed_bound": [bound],
        "special_plain_bound": [bound],
        "special_schwartz_bound": [bound],
        "tempered_bound": [bound],
        "stft_bound": [({"a": 2.0, "m": 1}, {"a": "real", "m": "whole"})],
        "special_heat_kernel": [({"t": t, "p": [0.1, 0.2]}, {"t": "real", "p": "point"})],
        "twisted_bergman_weight": [
            (
                {"t": t, "m": 1, "z": 0.1 + 0.2j, "w": 0.3 - 0.1j},
                {**tm, "z": "point", "w": "point"},
            )
        ],
        "PlaneGrid": [
            ({"boxes": ((-1.0, 1.0, -1.0, 1.0),), "resolution": 5}, {"resolution": "whole"})
        ],
        "gauss_hermite_rule": [({"q": 8}, {"q": "whole"})],
        "gauss_legendre_rule": [
            ({"q": 8, "a": -1.0, "b": 1.0}, {"q": "whole", "a": "real", "b": "real"})
        ],
        "gaussian_box": [
            (
                {"gamma_x": 0.5, "gamma_y": 0.5, "drop": 1e-18, "degree": 0},
                {"gamma_x": "real", "gamma_y": "real", "drop": "real", "degree": "whole"},
            )
        ],
        "bergman_norm": [
            (
                {"handle": handle, "t": t, "m": 1, "grid": bergman, "kappa": 0.4},
                {"t": "real", "m": "whole", "kappa": "real"},
            )
        ],
        "calibrate_weight": [
            (
                {"t": t, "dimension": 1, "alphas": None, "grid": bergman},
                {"t": "real", "dimension": "whole"},
            )
        ],
        "default_bergman_grid": [
            (
                {"t": t, "resolution": 17, "degree_margin": 10},
                {"t": "real", "resolution": "whole", "degree_margin": "whole"},
            )
        ],
        "reproduce": [
            (
                {"handle": handle, "t": t, "z": 0.5, "grid": bergman, "kappa": 0.4},
                {"t": "real", "z": "point", "kappa": "real"},
            )
        ],
        "schwartz_image_check": [
            (
                {"f": h1, "t": t, "m_list": [1], "grid": plane, "truncation": 8},
                {"t": "real", "truncation": "whole"},
            )
        ],
        "semigroup_apply": [
            (
                {"f": h1, "t": t, "z": 0.5, "truncation": 8},
                {"t": "real", "z": "point", "truncation": "whole"},
            )
        ],
        "semigroup_handle": [
            ({"f": h1, "t": t, "truncation": 8}, {"t": "real", "truncation": "whole"})
        ],
        "Gaussian2n": [({"a": 1.0}, {"a": "real"})],
        "SpecialHermiteBasis": [
            (
                {"alpha": (0,), "beta": (1,)},
                {"alpha": "whole:multi-index", "beta": "whole:multi-index"},
            )
        ],
        "bergman_norm_special": [
            (
                {"handle": eigen, "t": 0.4, "m": 1, "grid": special, "kappa_star": 0.5},
                {"t": "real", "m": "whole", "kappa_star": "real"},
            )
        ],
        "calibrate_weight_special": [({"t": 0.4, "pairs": None, "grid": special}, {"t": "real"})],
        "composed_intertwine_residual": [({"f": g2, "t": 0.4}, {"t": "real"})],
        "intertwine_check": [({"f": g2, "t": 0.4}, {"t": "real"})],
        "default_special_grid": [
            ({"t": 0.4, "resolution": 16}, {"t": "real", "resolution": "whole"})
        ],
        "default_twisted_grid": [({"t": 0.4}, {"t": "real"})],
        "heat_profile": [({"t": 0.4}, {"t": "real"})],
        "laguerre_profile": [({"k": 1}, {"k": "whole"})],
        "laguerre_project": [
            (
                {"f": g2, "k": 1, "z": 0.1, "w": 0.2, "grid": twisted},
                {"k": "whole", "z": "point", "w": "point"},
            )
        ],
        "special_envelope": [
            (
                {"f": mehler.SpecialHermiteBasis((0,), (0,)), "t": 0.5, "m": 1, "grid": small4},
                tm,
            )
        ],
        "special_hermite_eval": [
            (
                {"alpha": (1,), "beta": (0,), "z": 0.1, "w": 0.2},
                {
                    "alpha": "whole:multi-index",
                    "beta": "whole:multi-index",
                    "z": "point",
                    "w": "point",
                },
            )
        ],
        "special_semigroup_apply": [
            ({"f": g2, "t": 0.4, "z": 0.1, "w": 0.2}, {"t": "real", "z": "point", "w": "point"})
        ],
        "twisted_conv": [
            (
                {"f": g2, "g": mehler.heat_profile(0.4), "z": 0.1, "w": 0.2, "grid": twisted},
                {"z": "point", "w": "point"},
            )
        ],
        "hermite_eval": [({"k_max": 4, "z": 0.5}, {"k_max": "whole", "z": "point"})],
        "hermite_log_eval": [({"k": 4, "z": 0.5}, {"k": "whole", "z": "point"})],
        "hermite_log_ladder": [({"k_max": 4, "z": 0.5}, {"k_max": "whole", "z": "point"})],
        "laguerre_function_entire": [({"k": 2, "s": 0.5}, {"k": "whole", "s": "point"})],
        "Bump": [({"radius": 1.0}, {"radius": "real"})],
        "Gaussian": [({"a": 1.0}, {"a": "real"})],
        "PolyGaussian": [({"coeffs": (1.0, 0.5), "a": 1.0}, {"a": "real"})],
        "CoefficientList": [
            (
                {"dimension": 1, "truncation": 4, "entries": (((1,), 1.0),)},
                {"dimension": "whole", "truncation": "whole"},
            )
        ],
        "Dirac": [({"point": 0.5}, {"point": "point"})],
        "HermiteBasis": [({"alpha": 2}, {"alpha": "whole:multi-index"})],
        "HermiteExpansion": [
            (
                {"truncation": 2, "indices": ((0,), (1,), (2,)), "values": [1.0, 0.0, 0.0]},
                {"truncation": "whole"},
            )
        ],
        "SpectralHandle": [({"expansion": expansion, "time": t}, {"time": "real"})],
        "eval_entire": [({"e": expansion, "t": t, "z": 0.5}, {"t": "real", "z": "point"})],
        "expand": [({"f": h1, "truncation": 4}, {"truncation": "whole"})],
        "sobolev_norm": [({"e": expansion, "m": 1}, {"m": "whole"})],
        "bridge_constant": [({"a": 2.0}, {"a": "real"})],
        "bridge_residual": [
            (
                {"f": mehler.Gaussian(1.0), "t": t, "rule": gh, "truncation": 16},
                {"t": "real", "truncation": "whole"},
            )
        ],
        "compact_growth_check": [
            (
                {"f": mehler.Bump(1.0), "t": 0.5, "grid": plane, "radius": 1.0},
                {"t": "real", "radius": "real"},
            )
        ],
        "gauss_stft": [
            (
                {"f": mehler.Gaussian(1.0), "a": 0.5, "z": 0.3, "c": 1.0, "rule": gh},
                {"a": "real", "z": "point", "c": "real"},
            )
        ],
        "pw_envelope": [
            (
                {"f": mehler.Gaussian(1.0), "a": 0.5, "m": 1, "grid": plane, "rule": gh128},
                {"a": "real", "m": "whole"},
            )
        ],
    }


_BASES = None


def _table() -> dict:
    global _BASES
    if _BASES is None:
        _BASES = _bases()
    return _BASES


def _numeric(annotation) -> bool:
    if annotation in (int, float, complex):
        return True
    if isinstance(annotation, types.UnionType) or typing.get_origin(annotation) is typing.Union:
        return any(_numeric(a) for a in typing.get_args(annotation))
    return False


def _exports() -> dict:
    """Export name -> its numeric parameters, for every callable export of
    ``mehler`` that is not an exception class."""
    found = {}
    for name in dir(mehler):
        obj = getattr(mehler, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):  # a type alias such as MultiIndex
            continue
        found[name] = {p.name for p in params if _numeric(p.annotation)}
    return found


def _finite(value, depth: int = 0) -> bool:
    """Whether every number held by ``value`` is finite."""
    if depth > 4 or value is None or isinstance(value, (str, bool, types.FunctionType)):
        return True
    if isinstance(value, numbers.Number):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.all(np.isfinite(value)))
    if isinstance(value, (tuple, list)):
        return all(_finite(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return all(_finite(v, depth + 1) for v in value.values())
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name), depth + 1) for f in dataclasses.fields(value))
    if hasattr(value, "__dict__"):
        return all(_finite(v, depth + 1) for v in vars(value).values())
    return True


def _raised_by_package(exc: BaseException) -> bool:
    frames = traceback.extract_tb(exc.__traceback__)
    return bool(frames) and Path(frames[-1].filename).resolve().is_relative_to(PACKAGE)


def _violations(name: str) -> list[str]:
    """The (parameter, value, outcome) cases of one export that break the
    rule; the base arguments themselves must give a finite result."""
    fn = getattr(mehler, name)
    bad = []
    for base, kinds in _table()[name]:
        result = fn(**base)
        if not _finite(result):
            bad.append(f"base arguments: non-finite result {result!r:.80}")
        for param, kind in kinds.items():
            kind, _, word = kind.partition(":")
            word = word or param
            takes_minus_one = f"{name}({param})" in ALLOWED
            for value in _VALUES[kind]:
                must_refuse = value in _REFUSED[kind] and not (value == -1 and takes_minus_one)
                try:
                    result = fn(**{**base, param: value})
                except (ValueError, TypeError) as exc:
                    named = re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", str(exc))
                    if not (named and _raised_by_package(exc)):
                        bad.append(f"{param}={value!r}: {type(exc).__name__}: {exc}")
                    continue
                except Exception as exc:  # an overflow, or a crash inside the ladder
                    bad.append(f"{param}={value!r}: {type(exc).__name__}: {exc}")
                    continue
                if must_refuse:
                    bad.append(f"{param}={value!r}: accepted, returned {result!r:.80}")
                elif not _finite(result):
                    bad.append(f"{param}={value!r}: non-finite result {result!r:.80}")
    return bad


def test_every_numeric_export_has_a_table_entry():
    table = _table()
    missing = []
    for name, params in _exports().items():
        if name in ALLOWED:
            continue
        covered = {p for _, kinds in table.get(name, []) for p in kinds}
        missing += [f"{name}({p})" for p in sorted(params - covered)]
    assert not missing, f"numeric parameters with no guard entry: {missing}"


@pytest.mark.parametrize("name", sorted(_table()))
def test_numeric_parameters_are_refused_by_name(name):
    bad = _violations(name)
    assert not bad, f"{name}: " + "; ".join(bad)


def test_allowlist_has_no_stale_entries():
    exports, table = _exports(), _table()
    stale = []
    for key in ALLOWED:
        name, _, param = key.partition("(")
        if param:
            used = any(param[:-1] in kinds for _, kinds in table.get(name, []))
        else:
            used = bool(exports.get(name)) and name not in table
        if not used:
            stale.append(key)
    assert not stale, f"allowlisted entries that nothing uses: {stale}"


@pytest.mark.parametrize(
    "call, message",
    [
        # once ZeroDivisionError from coth(0)
        (lambda: mehler.default_twisted_grid(0), "t must be positive, got 0"),
        # once returned a value at a negative time
        (lambda: mehler.kernels.twisted_weight_profile(-1, 0, 1), "t must be positive, got -1"),
        # once returned nan+nanj
        (lambda: mehler.mehler_kernel(math.inf, 0.1, 0.2), "t must be positive, got inf"),
        # once an overflow error that named neither
        (lambda: mehler.special.GaussianImage(math.nan, 0.4), "width parameter a must be"),
        # each once built
        (lambda: mehler.PlaneGrid(((-1.0, 1.0, -1.0, 1.0),), 2.5), "resolution must be an"),
        (lambda: mehler.Gaussian(math.inf), "width parameter a must be positive, got inf"),
        # once read as h_1
        (lambda: mehler.HermiteBasis(True), "whole numbers, got True"),
        (lambda: mehler.tempered_bound(0.3, 1.5), "m must be an integer, got 1.5"),
        # once a bare TypeError from inside the Taylor jets
        (lambda: mehler.bergman_weight_dt(0.3, 1.5, 0.5), "m must be an integer, got 1.5"),
        # once a bare TypeError from range()
        (
            lambda: mehler.semigroup_apply(mehler.Gaussian(1.0), 0.3, 0.2, truncation=1.5),
            "truncation must be an integer, got 1.5",
        ),
    ],
    ids=[
        "twisted-grid-t0", "twisted-profile-t<0", "kernel-t-inf", "gaussian-image-nan",
        "grid-resolution-2.5", "gaussian-inf", "basis-bool", "bound-m-1.5", "weight-dt-m-1.5",
        "truncation-1.5",
    ],
)
def test_inputs_once_accepted_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_numbers_follow_one_rule():
    # the package once had four rules that disagreed on True and 2.0; a
    # whole float is an order everywhere now, a bool nowhere
    t = 0.3
    grid = mehler.default_bergman_grid(t, resolution=65)
    handle = mehler.semigroup_handle(mehler.HermiteBasis((1,)), t)
    assert mehler.bergman_norm(handle, t, 1.0, grid) == mehler.bergman_norm(handle, t, 1, grid)
    assert mehler.gauss_hermite_rule(8.0).order == 8
    assert mehler.HermiteBasis(2.0) == mehler.HermiteBasis((2,))
    for build in (
        lambda v: mehler.bergman_norm(handle, t, v, grid),
        lambda v: mehler.gauss_hermite_rule(v),
        lambda v: mehler.HermiteBasis(v),
        lambda v: SuiteConfig(N=v),
    ):
        with pytest.raises(ValueError, match="True"):
            build(True)
