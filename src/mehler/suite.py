"""End-to-end verification suite: every identity, isometry, and envelope.

``run_suite`` executes a fixed registry of checks against a
:class:`SuiteConfig` and returns a :class:`SuiteReport`.  Each check is
declared once, by ``@_check(name, theorem, tol)`` over its body: the
registration appends it to ``CHECKS`` and its default tolerance to
``DEFAULT_TOLERANCES`` in definition order, which is the report order, and
attaches the entry to the check as ``entry``.  A body returns only its
measurement, and the registered callable builds the :class:`CheckResult`.
Each check is isolated (one failure never aborts the rest, and reports
under its entry's name, theorem tag and tolerance), deterministic given the
config seed, and carries a theorem tag so the report doubles as a coverage
map of the verified statements.  Reports serialize to JSON with stable key
order; two runs with the same config produce byte-identical output apart
from the timing fields and the ``environment`` block (Python, numpy and
BLAS versions, CPU count), which are written only with the timings.

The checks run at n = 1 only, so the config has no dimension field, and a
config key that is absent keeps its field's default.  The intertwining
check reads both sign conventions from one twisted image per input
(:func:`mehler.special.intertwine_check`).

A pass builds each shared table once: ``run_suite`` opens a store
(:func:`_table`) for the pass and drops it when the pass returns or
raises, and the checks fetch the weight calibrations they share by (t,
grid) through it.  It holds only builds that returned.  A check run on its
own finds no store and builds its tables itself, and determinism's two
inner runs hide the store, so each builds its own.
"""

import contextlib
import contextvars
import functools
import json
import math
import os
import platform
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .indices import as_real, as_whole, oscillator_eigenvalue
from .kernels import (
    compact_bound,
    mehler_kernel,
    mehler_spectral,
    schwartz_image_bound,
    sobolev_embed_bound,
    tempered_bound,
)
from .quadrature import PlaneGrid, gauss_hermite_rule
from .semigroup import (
    MehlerSliceHandle,
    bergman_norm,
    calibrate_weight,
    default_bergman_grid,
    envelope,
    envelopes,
    reproduce,
    schwartz_image_check,
    semigroup_handle,
)
from .special import (
    Gaussian2n,
    SpecialEigenHandle,
    SpecialHermiteBasis,
    bergman_norm_special,
    calibrate_weight_special,
    composed_intertwine_residual,
    default_special_grid,
    default_twisted_grid,
    intertwine_check,
    laguerre_profile,
    laguerre_project,
    special_envelope,
    special_hermite_eval,
    special_semigroup_apply,
)
from .specfun import hermite_eval, laguerre_function_entire
from .spectral import (
    CoefficientList,
    Dirac,
    Gaussian,
    HermiteBasis,
    PolyGaussian,
    SpectralHandle,
    eval_entire,
    expand,
    sobolev_norm,
)
from .stft import bridge_residual, compact_growth_check, pw_envelope

SCHEMA = "1"


class ConfigError(ValueError):
    """Raised on structurally invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    """Serializable configuration of the verification suite."""

    N: int = 48
    quad: int = 128
    t: tuple[float, ...] = (0.3, 0.5)
    m: tuple[int, ...] = (0, 1, 2)
    grid_box: tuple[float, float, float, float] = (-8.0, 8.0, -6.0, 6.0)
    grid_res: int = 128
    tol: dict = field(default_factory=dict)
    seed: int = 12345

    def __post_init__(self):
        # the seed is mixed into each check's non-negative stream seed
        # (_Entry.rng); reports are strict JSON, which has no inf or nan
        try:
            for name, low in (("N", 0), ("quad", 1), ("grid_res", 2), ("seed", 0)):
                object.__setattr__(self, name, as_whole(name, getattr(self, name), low))
            object.__setattr__(self, "t", tuple(as_real("t", v, 0.0) for v in self.t))
            object.__setattr__(self, "m", tuple(as_whole("m", v) for v in self.m))
            box = tuple(as_real("grid box", v) for v in self.grid_box)
            object.__setattr__(self, "grid_box", box)
            for value in self.tol.values():
                as_real("tolerance", value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.validate()

    def validate(self) -> None:
        if self.N > 128:
            raise ConfigError("N must be in [0, 128]")
        if self.quad > 512:
            raise ConfigError("quad must be in [1, 512]")
        if not self.m:
            raise ConfigError("m must be a non-empty list of orders >= 0")
        if not self.t:
            raise ConfigError("t must be a non-empty list of positive reals")
        b = self.grid_box
        if len(b) != 4 or b[0] >= b[1] or b[2] >= b[3]:
            raise ConfigError(f"degenerate grid box {b}")
        for key in self.tol:
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance key {key!r}")

    @property
    def special_res(self) -> int:
        """Nodes per axis of the C^2 weighted-norm grids (32 at least)."""
        return max(32, self.grid_res // 4)

    @property
    def bergman_res(self) -> int:
        """Nodes per axis of the C weighted-norm grids: the trapezoid rule
        converges geometrically on their Gaussian-decay integrands, so half
        of ``grid_res`` intervals suffice (65 nodes at the default 128)."""
        return self.grid_res // 2 + 1

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "N": self.N,
            "quad": self.quad,
            "t": list(self.t),
            "m": list(self.m),
            "grid": {"box": list(self.grid_box), "res": self.grid_res},
            "tol": dict(sorted(self.tol.items())),
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if str(data.get("schema", SCHEMA)) != SCHEMA:
            raise ConfigError(f"unsupported schema {data.get('schema')!r}")
        top = ("N", "quad", "t", "m", "seed")
        unknown = set(data) - {"schema", "grid", "tol", *top}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        grid, tol = data.get("grid", {}), data.get("tol", {})
        if not (isinstance(grid, dict) and isinstance(tol, dict)):
            raise ConfigError("config 'grid' and 'tol' must be JSON objects")
        unknown = set(grid) - {"box", "res"}
        if unknown:
            raise ConfigError(f"unknown grid keys {sorted(unknown)}")
        # an absent key keeps the field's default
        present = {key: data[key] for key in top if key in data}
        present.update({f"grid_{key}": value for key, value in grid.items()})
        try:
            return cls(**present, tol={str(k): float(v) for k, v in tol.items()})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SuiteConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    theorem: str
    status: str  # pass | fail | skipped
    metric: float
    tol: float
    details: str = ""
    seconds: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "name": self.name,
            "theorem": self.theorem,
            "status": self.status,
            # a crashed check has no finite metric; strict JSON has no inf
            "metric": self.metric if math.isfinite(self.metric) else None,
            "tol": self.tol,
            "details": self.details,
        }
        if include_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


def _environment() -> dict:
    """What the timings ran on: Python, numpy and BLAS versions and the
    CPU count.  numpy before 1.26 has no dict form of its build
    configuration, so its BLAS reads "unknown"."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class SuiteReport:
    config: SuiteConfig
    checks: list[CheckResult]

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts

    @property
    def failed(self) -> bool:
        return self.summary["fail"] > 0

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": SCHEMA,
            "config": self.config.to_dict(),
            "checks": [c.to_dict(include_timing) for c in self.checks],
            "summary": self.summary,
        }
        if include_timing:
            out["environment"] = _environment()
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(
            self.to_dict(include_timing), indent=2, sort_keys=True, allow_nan=False
        )

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(
                f"[{c.status.upper():7s}] {c.name} ({c.theorem}): "
                f"metric={c.metric:.3e} tol={c.tol:.1e} {c.details}"
            )
        s = self.summary
        out.append(f"summary: {s['pass']} pass, {s['fail']} fail, {s['skipped']} skipped")
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# Filled by ``_check`` in definition order, which is the report order.
CHECKS: list = []
DEFAULT_TOLERANCES: dict[str, float] = {}


@dataclass(frozen=True)
class _Entry:
    """A registered check: its name, the statement it checks and its
    default tolerance."""

    name: str
    theorem: str
    tol: float

    def tolerance(self, config: SuiteConfig) -> float:
        return float(config.tol.get(self.name, self.tol))

    def rng(self, config: SuiteConfig) -> np.random.Generator:
        """The check's own stream: the config seed mixed with its name."""
        return np.random.default_rng(config.seed ^ zlib.crc32(self.name.encode()))


class _Measured(NamedTuple):
    """What a check body returns: its metric, any further pass condition
    and the details line."""

    metric: float
    ok: bool = True
    details: str = ""


def _check(name: str, theorem: str, tol: float):
    """Register a check body under its name, theorem tag and default
    tolerance.  The body maps (config, entry) to a :class:`_Measured`; the
    registered callable maps a config to its :class:`CheckResult` and
    carries the entry as ``entry``."""
    entry = _Entry(name, theorem, tol)

    def register(body):
        @functools.wraps(body)
        def check(config: SuiteConfig) -> CheckResult:
            metric, ok, details = body(config, entry)
            limit = entry.tolerance(config)
            status = "pass" if (metric <= limit and ok) else "fail"
            return CheckResult(name, theorem, status, float(metric), limit, details)

        check.entry = entry
        CHECKS.append(check)
        DEFAULT_TOLERANCES[name] = tol
        return check

    return register


# ---------------------------------------------------------------------------
# Tables shared within one suite pass
# ---------------------------------------------------------------------------


# The store of the pass in progress, a dict of the tables it has built by
# key, or None outside ``run_suite`` and inside determinism's runs; a
# context variable, so no pass sees another's store.
_PASS_TABLES: contextvars.ContextVar = contextvars.ContextVar("pass_tables", default=None)


@contextlib.contextmanager
def _pass_tables(store):
    """Make ``store`` the pass store for the body, and restore the previous
    one on leaving, also when the body raises."""
    token = _PASS_TABLES.set(store)
    try:
        yield
    finally:
        _PASS_TABLES.reset(token)


def _table(key, build):
    """``build()``, built once per pass: the pass store's table under
    ``key``, or a fresh build for a check run on its own.  A table enters
    the store only when its build has returned, so a build that raises
    stores nothing and the next check that asks builds it afresh."""
    store = _PASS_TABLES.get()
    if store is None:
        return build()
    if key not in store:
        store[key] = build()
    return store[key]


def _bergman_calibration(t: float, grid: PlaneGrid):
    """``calibrate_weight(t, 1, None, grid)``, shared by (t, grid)."""
    return _table(("calibrate_weight", t, grid), lambda: calibrate_weight(t, 1, None, grid))


def _special_calibration(t: float, grid: PlaneGrid):
    """``calibrate_weight_special(t, None, grid)``, shared by (t, grid)."""
    return _table(
        ("calibrate_weight_special", t, grid), lambda: calibrate_weight_special(t, None, grid)
    )


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


@_check("hermite-orthonormality", "eq. (2.1)", 1e-10)
def check_orthonormality(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Gram matrix of h_0..h_30 under a 64-point rule vs the identity."""
    rule = gauss_hermite_rule(64)
    ladder = hermite_eval(30, rule.nodes)
    w = rule.plain_weights
    gram = (ladder * w) @ ladder.T
    metric = float(np.max(np.abs(gram - np.eye(31))))
    return _Measured(metric)


@_check("mehler-spectral-bridge", "Thm 2.1", 1e-8)
def check_mehler_spectral(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Closed-form heat kernel vs the truncated spectral sum.

    The sampling box shrinks with t: the truncated sum carries a tail of
    size ~ e^{(|Im z|+|Im w|) sqrt(2N) - 2Nt}, which must stay below 1e-8
    relative to the smallest kernel value over the box.
    """
    rng = entry.rng(config)
    worst = 0.0
    for t in config.t:
        re_box, im_box = (1.0, 0.3) if t < 0.4 else (2.0, 1.0)
        z = rng.uniform(-re_box, re_box, 20) + 1j * rng.uniform(-im_box, im_box, 20)
        w = rng.uniform(-re_box, re_box, 20) + 1j * rng.uniform(-im_box, im_box, 20)
        closed = mehler_kernel(t, z, w)
        spectral = mehler_spectral(t, z, w, truncation=config.N)
        worst = max(worst, float(np.max(np.abs(closed - spectral) / np.abs(closed))))
    return _Measured(worst, details=f"N={config.N}")


def _isometry_test_functions():
    return [
        HermiteBasis((0,)),
        HermiteBasis((1,)),
        HermiteBasis((2,)),
        HermiteBasis((3,)),
        Gaussian(1.0),
        PolyGaussian((1.0, 0.0, 0.5), 1.0),
    ]


def _l2_norm_squared(f, rule) -> float:
    from .quadrature import integrate_rn
    from .spectral import eval_test_function

    return float(
        integrate_rn(lambda x: np.abs(eval_test_function(f, x)) ** 2, rule)
    )


@_check("heat-isometry", "Thm 2.1", 1e-5)
def check_isometry(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Calibrated Bergman norm of the image vs the L^2 norm of the input."""
    rule = gauss_hermite_rule(config.quad)
    times = [0.25] + [t for t in config.t if t != 0.25]
    # neither the expansions nor the L^2 norms depend on t
    inputs = [
        (expand(f, config.N, rule=rule), _l2_norm_squared(f, rule))
        for f in _isometry_test_functions()
    ]
    kappas = []
    worst = 0.0
    for t in times:
        grid = default_bergman_grid(t, resolution=config.bergman_res)
        cal = _bergman_calibration(t, grid)
        kappas.append(cal.kappa)
        for e, ref in inputs:
            img = bergman_norm(SpectralHandle(e, t), t, 0, grid, kappa=cal.kappa)
            worst = max(worst, abs(img - ref))
    kappa_spread = max(kappas) / min(kappas) - 1.0
    expected = (2 * math.pi) ** -0.5
    kappa_dev = abs(kappas[0] / expected - 1.0)
    details = f"kappa={kappas[0]:.8f} spread={kappa_spread:.2e} res={grid.resolution}"
    ok = kappa_spread <= 1e-5 and kappa_dev <= 1e-5
    return _Measured(worst, ok, details)


@_check("complex-orthogonality", "eq. (2.1)", 1e-9)
def check_complex_orthogonality(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Weighted orthogonality of the complexified basis: flat diagonal
    ratios over |alpha| <= 4 and vanishing off-diagonals."""
    t = config.t[0]
    grid = default_bergman_grid(t, resolution=max(config.bergman_res, 81))
    cal = _bergman_calibration(t, grid)
    ok = cal.spread <= 1e-5
    details = f"diag spread={cal.spread:.2e} res={grid.resolution}"
    return _Measured(cal.max_offdiagonal, ok, details)


@_check("derivative-weight-identity", "Prop 2.2", 1e-4)
def check_derivative_weight_identity(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Derivative-weight norms vs the spectral form with the 2^{2m} factor."""
    t = config.t[0]
    rule = gauss_hermite_rule(config.quad)
    grid = default_bergman_grid(t, resolution=config.bergman_res, degree_margin=14)
    cal = _bergman_calibration(t, grid)
    worst = 0.0
    for k in range(4):
        handle = semigroup_handle(
            HermiteBasis((k,)), t, "spectral", truncation=config.N, rule=rule
        )
        # one table of the image serves every order
        vals = bergman_norm(handle, t, config.m, grid, kappa=cal.kappa)
        lam = 2 * k + 1
        for m, val in zip(config.m, vals):
            ref = 2.0 ** (2 * m) * lam ** (2 * m)
            worst = max(worst, abs(val - ref) / ref)
    return _Measured(worst, details=f"res={grid.resolution}")


@_check("reproducing-property", "Thm 4.1", 1e-5)
def check_reproducing(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Reproducing identity on heat images of the first basis functions."""
    t = config.t[0]
    rng = entry.rng(config)
    rule = gauss_hermite_rule(config.quad)
    grid = default_bergman_grid(t, resolution=config.bergman_res)
    cal = _bergman_calibration(t, grid)
    pts = rng.uniform(-1.5, 1.5, (10, 2))
    zs = (pts[:, 0] + 1j * pts[:, 1])[:, None]
    worst = 0.0
    for k in range(4):
        handle = semigroup_handle(
            HermiteBasis((k,)), t, "spectral", truncation=config.N, rule=rule
        )
        # the direct side is the log-domain ladder of eval_entire, one call
        # for all points; it reaches none of the grid sweep (the Clenshaw
        # sum of hermite_series_parts) that reproduce integrates
        direct = eval_entire(handle.expansion, t, zs)
        repro = reproduce(handle, t, zs, grid, kappa=cal.kappa)
        worst = max(worst, float(np.max(np.abs(repro - direct) / (1.0 + np.abs(direct)))))
    return _Measured(worst, details=f"res={grid.resolution}")


def _envelope_grid(config: SuiteConfig) -> PlaneGrid:
    """Sup-hunting grid: uniform nodes, odd count, so symmetric boxes hit
    their midpoint (where several closed-form suprema sit) exactly."""
    res = max(48, config.grid_res // 2)
    if res % 2 == 0:
        res += 1
    return PlaneGrid(boxes=(config.grid_box,), resolution=res)


@_check("sobolev-embedding-envelopes", "Thm 4.1", 0.05)
def check_sobolev_envelopes(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Finite, refinement-stable envelopes of basis images, orders <= 3."""
    t = config.t[0]
    rule = gauss_hermite_rule(config.quad)
    grid = _envelope_grid(config)
    worst_change = 0.0
    all_finite = True
    for k in range(4):
        handle = semigroup_handle(
            HermiteBasis((k,)), t, "spectral", truncation=config.N, rule=rule
        )
        for rep in envelopes(handle, [sobolev_embed_bound(t, m) for m in range(4)], grid):
            all_finite &= math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
            worst_change = max(worst_change, rep.refinement_change)
    return _Measured(
        worst_change, all_finite, "max refinement change of sup over f=h0..h3, m<=3"
    )


@_check("schwartz-image-envelopes", "Thm 4.2", 0.01)
def check_schwartz_envelopes(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Rapid-decrease image envelopes plus the closed-form spot value
    sup = e^{-2t} / sqrt(pi) for the ground state at order 0, t = 0.3."""
    rule = gauss_hermite_rule(config.quad)
    grid = _envelope_grid(config)
    reports = schwartz_image_check(
        Gaussian(1.0), 0.4, range(4), grid, truncation=config.N, rule=rule
    )
    stable = all(rep.stable and math.isfinite(rep.sup_ratio) for rep in reports)
    handle0 = semigroup_handle(
        HermiteBasis((0,)), 0.3, "spectral", truncation=config.N, rule=rule
    )
    rep0 = envelope(handle0, schwartz_image_bound(0.3, 0), grid)
    expected = math.exp(-0.6) / math.sqrt(math.pi)
    spot_dev = abs(rep0.sup_ratio / expected - 1.0)
    details = f"spot sup={rep0.sup_ratio:.6f} expected={expected:.6f}"
    return _Measured(spot_dev, stable, details)


@_check("intertwining-relations", "Lemma 4.3", 1e-6)
def check_intertwine(config: SuiteConfig, entry: _Entry) -> _Measured:
    """First-order intertwining relations: exactly one sign convention
    passes, both read against one image per input, and the composed
    coordinate-product relation holds."""
    tol = entry.tolerance(config)
    times = (0.4, 0.5)
    worst_valid = 0.0
    other_min = math.inf
    composed = 0.0
    for t in times:
        fns = [Gaussian2n(1.0 / math.tanh(t)), Gaussian2n(1.0), SpecialHermiteBasis((0,), (0,))]
        for f in fns:
            rep_p, rep_m = intertwine_check(f, t)
            worst_valid = max(worst_valid, rep_p.residual)
            other_min = min(other_min, rep_m.residual)
        composed = max(composed, composed_intertwine_residual(Gaussian2n(1.0), t))
    exactly_one = other_min > max(100 * tol, 1e-3) and composed <= 1e-5
    details = (
        f"validated a=+coth(t)/2; other-sign min residual={other_min:.2e}; "
        f"composed={composed:.2e}"
    )
    return _Measured(worst_valid, exactly_one, details)


@_check("twisted-isometry", "Thm 3.1", 1e-4)
def check_twisted_isometry(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Calibrated twisted isometry plus the eigen-relation pointwise."""
    t = 0.4
    grid4 = default_special_grid(t, resolution=config.special_res)
    cal = _special_calibration(t, grid4)
    handle = SpecialEigenHandle((0,), (0,), t)
    iso = bergman_norm_special(handle, t, 0, grid4, kappa_star=cal.kappa)
    metric = abs(iso - 1.0)

    rng = entry.rng(config)
    pts_real = rng.uniform(-1.5, 1.5, (10, 2))
    pts_cplx = rng.uniform(-1.0, 1.0, (5, 4))
    eigen_worst = 0.0
    points = [
        (pts_real[:, 0], pts_real[:, 1]),
        (pts_cplx[:, 0] + 1j * pts_cplx[:, 1], pts_cplx[:, 2] + 1j * pts_cplx[:, 3]),
    ]
    for ab in [((0,), (0,)), ((0,), (1,))]:
        f = SpecialHermiteBasis(*ab)
        lam = oscillator_eigenvalue(ab[1])
        for z, w in points:
            got = special_semigroup_apply(f, t, z, w)
            ref = math.exp(-lam * t) * special_hermite_eval(*ab, z, w)
            eigen_worst = max(
                eigen_worst, float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
            )
    ok = eigen_worst <= 1e-6 and cal.spread <= 1e-3
    details = f"kappa*={cal.kappa:.6f} eigen residual={eigen_worst:.2e}"
    return _Measured(metric, ok, details)


@_check("twisted-sobolev-identity", "Thm 3.2", 1e-3)
def check_twisted_sobolev(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Order-1 twisted Sobolev identity on an eigenfunction image."""
    t = 0.4
    grid4 = default_special_grid(t, resolution=config.special_res)
    cal = _special_calibration(t, grid4)
    handle = SpecialEigenHandle((0,), (1,), t)
    val = bergman_norm_special(handle, t, 1, grid4, kappa_star=cal.kappa)
    ref = 4.0 * 9.0
    return _Measured(abs(val - ref) / ref, details=f"value={val:.6f} expected={ref}")


@_check("projection-algebra", "Thm 3.1", 1e-6)
def check_projection_algebra(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Twisted projection algebra and eigenspace reconstruction."""
    grid = default_twisted_grid(0.4)
    x = np.array([0.0, 0.4, 1.0, -0.6, 0.8])
    u = np.array([0.0, -0.7, 0.3, -0.2, 0.9])
    worst = 0.0
    for k, j in [(0, 0), (1, 1), (0, 1), (2, 1), (2, 2)]:
        got = laguerre_project(laguerre_profile(k), j, x, u, grid)
        ref = laguerre_function_entire(k, x * x + u * u) if k == j else 0.0
        worst = max(worst, float(np.max(np.abs(got - ref))))
    # one ladder and one pair of moment tables for all 13 projections
    recon = sum(laguerre_project(Gaussian2n(1.0), range(13), 0.0, 0.0, grid))
    recon_err = abs(recon - 1.0)
    ok = recon_err <= 1e-4
    details = f"reconstruction error at origin={recon_err:.2e}"
    return _Measured(worst, ok, details)


@_check("tempered-envelope", "Thm 5.1", 0.01)
def check_tempered_envelope(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Point-mass image against the tempered bound: closed-form sup
    (2 pi sinh 2t)^{-1}; polynomially growing coefficients against the
    bound one order up."""
    rule = gauss_hermite_rule(config.quad)
    worst_dev = 0.0
    for t in config.t:
        handle = semigroup_handle(Dirac(0.0), t, "kernel")
        grid = _envelope_grid(config)
        rep = envelope(handle, tempered_bound(t, 0), grid)
        expected = 1.0 / (2 * math.pi * math.sinh(2 * t))
        worst_dev = max(worst_dev, abs(rep.sup_ratio / expected - 1.0))
    stable = True
    t0 = config.t[0]
    grow_grid = PlaneGrid(boxes=((-8.0, 8.0, -5.0, 5.0),), resolution=65)
    for p in (1, 2):
        entries = tuple(
            (((k,)), float((2 * k + 1) ** p)) for k in range(config.N + 1)
        )
        f = CoefficientList(1, config.N, entries)
        handle = semigroup_handle(f, t0, "spectral", truncation=config.N, rule=rule)
        rep = envelope(handle, tempered_bound(t0, p + 1), grow_grid)
        stable &= rep.stable and math.isfinite(rep.sup_ratio)
    return _Measured(worst_dev, stable)


@_check("stft-bridge", "Thm 5.3", 1e-6)
def check_bridge(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Heat-transform / windowed-transform bridge and the transform's
    growth envelopes on both sides of the window-width threshold."""
    rule = gauss_hermite_rule(config.quad)
    fns = [
        HermiteBasis((0,)),
        HermiteBasis((1,)),
        HermiteBasis((2,)),
        Gaussian(1.0),
        Dirac(0.3),
    ]
    worst = 0.0
    for t in config.t:
        for f in fns:
            rep = bridge_residual(f, t, rule=rule, truncation=config.N)
            worst = max(worst, rep.max_residual)
    grid = PlaneGrid(boxes=((-6.0, 6.0, -4.0, 4.0),), resolution=49)
    stable = True
    for a in (0.5, 2.0):
        rep = pw_envelope(HermiteBasis((0,)), a, 0, grid, rule=rule)
        stable &= rep.stable and math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    return _Measured(worst, stable)


@_check("compact-support", "Thm 5.4", 0.01)
def check_compact_support(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Point-mass compact-support envelope: exact radius passes with the
    closed-form sup; an understated radius blows up under box growth."""
    t = 0.5
    grid = PlaneGrid(boxes=((-14.0, 14.0, -6.0, 6.0),), resolution=97)
    # the exact radius and the understated one share one scan of the grid
    good, bad = envelopes(
        MehlerSliceHandle(t, 0.5), [compact_bound(t, 0.5), compact_bound(t, 0.3)], grid
    )
    expected = (2 * math.pi * math.sinh(1.0)) ** -0.5 * math.exp(
        -0.25 / (2 * math.tanh(1.0))
    )
    metric = abs(good.sup_ratio / expected - 1.0)
    bad_wide = compact_growth_check(Dirac(0.5), t, grid.widen(2.0), radius=0.3)
    growth = bad_wide.sup_ratio / bad.sup_ratio
    ok = good.stable and growth >= 10.0
    details = f"sup={good.sup_ratio:.6f} violation growth x{growth:.1f}"
    return _Measured(metric, ok, details)


@_check("sobolev-image-isometry", "Thm 2.3", 1e-4)
def check_sobolev_image_isometry(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Order-m image isometry for a non-eigenfunction input: the
    calibrated derivative-weight norm equals 2^{2m} times the squared
    oscillator Sobolev norm."""
    t, m = 0.25, 1
    rule = gauss_hermite_rule(config.quad)
    grid = default_bergman_grid(t, resolution=config.bergman_res, degree_margin=14)
    cal = _bergman_calibration(t, grid)
    f = Gaussian(2.0)
    e = expand(f, config.N, rule=rule)
    val = bergman_norm(SpectralHandle(e, t), t, m, grid, kappa=cal.kappa)
    ref = 2.0 ** (2 * m) * sobolev_norm(e, m) ** 2
    details = f"value={val:.8f} expected={ref:.8f} res={grid.resolution}"
    return _Measured(abs(val - ref) / ref, details=details)


def _special_envelope_grid() -> PlaneGrid:
    """Uniform nodes on a box symmetric about 0, odd count, so every axis
    has a centre node and the envelope scan walks the quarter x <= 0,
    y <= 0 of the refined grid (Phi_00's sup against the m = 1 bound is
    not at the origin)."""
    box = (-6.0, 6.0, -6.0, 6.0)
    return PlaneGrid(boxes=(box, box), resolution=17)


@_check("twisted-schwartz-envelope", "Thm 4.4", 0.05)
def check_special_schwartz_envelope(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Twisted rapid-decrease envelope with the full polynomial denominator."""
    rep = special_envelope(
        SpecialHermiteBasis((0,), (0,)), 0.5, 1, _special_envelope_grid(),
        kind="special-schwartz",
    )
    ok = math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0 and rep.stable
    return _Measured(rep.refinement_change, ok, f"sup={rep.sup_ratio:.6e}")


@_check("twisted-plain-envelope", "eq. (4.7)", 0.05)
def check_special_plain_envelope(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Twisted image envelope with the (1 + y^2 + v^2) denominator."""
    rep = special_envelope(
        SpecialHermiteBasis((0,), (0,)), 0.5, 0, _special_envelope_grid(),
        kind="special-plain",
    )
    ok = math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0 and rep.stable
    return _Measured(rep.refinement_change, ok, f"sup={rep.sup_ratio:.6e}")


@_check("determinism", "harness", 0.0)
def check_determinism(config: SuiteConfig, entry: _Entry) -> _Measured:
    """Identical seeds reproduce a representative check byte-for-byte.
    Both runs build their own tables: neither reads the pass store."""
    with _pass_tables(None):
        a = check_mehler_spectral(config).to_dict(include_timing=False)
        b = check_mehler_spectral(config).to_dict(include_timing=False)
    sa = json.dumps(a, sort_keys=True)
    sb = json.dumps(b, sort_keys=True)
    metric = 0.0 if sa == sb else 1.0
    return _Measured(metric)


REQUIRED_THEOREMS = frozenset(
    {
        "Thm 2.1",
        "Thm 2.3",
        "Thm 3.1",
        "Thm 3.2",
        "Thm 4.1",
        "Thm 4.2",
        "Thm 4.4",
        "Thm 5.1",
        "Thm 5.3",
        "Thm 5.4",
        "Prop 2.2",
        "Lemma 4.3",
        "eq. (2.1)",
        "eq. (4.7)",
    }
)


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run every registered check under the config, in registry order.
    Checks are isolated: one that raises is a failed row under the name,
    theorem tag and tolerance of its entry.  The pass opens a store of
    shared tables (see :func:`_table`) that lives until it returns or
    raises, so no table outlives the pass."""
    config = config or SuiteConfig()
    config.validate()
    results: list[CheckResult] = []
    with _pass_tables({}):
        for fn in CHECKS:
            start = time.perf_counter()
            try:
                res = fn(config)
            except Exception as exc:  # isolation: a crash is a failed check
                # a stand-in that was never registered reports untagged
                entry = getattr(fn, "entry", None) or _Entry(fn.__name__, "", 0.0)
                doc = (fn.__doc__ or fn.__name__).strip().splitlines()[0]
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
                res = CheckResult(
                    name=entry.name,
                    theorem=entry.theorem,
                    status="fail",
                    metric=float("inf"),
                    tol=entry.tolerance(config),
                    details=f"error: {exc!r} ({doc}) at {where}",
                )
            res.seconds = time.perf_counter() - start
            results.append(res)
    return SuiteReport(config=config, checks=results)
