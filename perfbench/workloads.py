"""The three workloads: seeded op streams and the checks on their outputs.

Each workload is one closed-loop client: the next op starts when the
previous one has returned.  Ops call the package's public functions
through the ``mehler`` namespace at call time, so the span wrappers of a
traced run see every call.  Inputs come only from the seed; reference
values are computed here, off the clock, by :mod:`oracle`.

* ``suite``: ``run_suite`` back to back; each registered check is one op.
  Its time is in the twisted layer (``special``) and plane quadrature.
* ``heat-points``: spectral ``semigroup_handle`` builds evaluated at 1-16
  scalar points.  It loads ``spectral.expand`` and the log-domain scalar
  path and never touches ``special`` or plane grids.
* ``heat-grid``: 1-D plane-grid jobs (calibration, weighted norms,
  reproducing identity, envelopes).  It loads ``hermite_eval`` over grids,
  ``PlaneGrid.nodes``, Legendre roots and the jet-derivative weights, and
  bypasses ``special``.
"""

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

import oracle

KAPPA = (2 * math.pi) ** -0.5
TINY = 1e-300


@dataclass
class Op:
    """One request: ``run`` calls the package, ``check`` judges its output.

    ``check`` returns (error, tolerance); the op passes when the output is
    finite and error <= tolerance.
    """

    label: str
    run: object
    check: object
    inputs: tuple = ()  # the generated inputs, for determinism checks


@dataclass
class OpRecord:
    label: str
    seconds: float
    ok: bool
    margin: float | None = None  # log10(tolerance / error)
    error: str = ""


def judge(op: Op, out, seconds: float) -> OpRecord:
    """Turn an op's output into a record; a non-finite value, a mismatch or
    an exception raised by the check all fail the op."""
    try:
        err, tol = op.check(out)
    except Exception as exc:  # the oracle rejected the output's shape or type
        return OpRecord(op.label, seconds, False, error=f"check: {exc!r}")
    if not math.isfinite(err):
        return OpRecord(op.label, seconds, False, error="non-finite output")
    margin = math.log10(tol / max(err, TINY * tol))
    ok = err <= tol
    return OpRecord(op.label, seconds, ok, margin, "" if ok else f"error {err:.3e} > tol {tol:.1e}")


def execute(op: Op) -> OpRecord:
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crash
        return OpRecord(op.label, time.perf_counter() - start, False, error=repr(exc))
    return judge(op, out, time.perf_counter() - start)


def _rel(got, ref) -> float:
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))


# ---------------------------------------------------------------------------
# Set-up: first-call lazy state each workload relies on
# ---------------------------------------------------------------------------


def setup(M, workload: str) -> None:
    """Fill the Gauss-Hermite node cache for the orders the workload uses
    and make the first Gauss-Legendre call."""
    orders = {"suite": (64, 128), "heat-points": (128, 129), "heat-grid": (128,)}[workload]
    for q in orders:
        M.gauss_hermite_rule(q)
    M.gauss_legendre_rule(8)


# ---------------------------------------------------------------------------
# heat-points
# ---------------------------------------------------------------------------

POINT_TRUNCATIONS = (48, 96, 128)
POINT_COUNTS = tuple(range(1, 17))
POINT_KINDS = ("basis", "coeffs", "gaussian", "polygauss", "dirac")
POINT_TOLS = (1e-6, 1e-8)
FINITE_TOL = 1e-10
LOG_DOUBLE_MAX = 700.0  # keep the exact terms of a finite sum below e^700


def _strip_halfwidth(N: int, t: float, tol: float) -> float:
    """|Im z| below which the README tail bound e^{|Im z| sqrt(2N) - 2Nt}
    stays under ``tol``."""
    return (2 * N * t + math.log(tol)) / math.sqrt(2 * N)


def _finite_points(rng, coeffs: dict, t: float, n: int):
    """Points out to the |Im z| where the exact terms still fit a double,
    with their mpmath values and term-modulus scales."""
    pts, refs, scales = [], [], []
    for _ in range(n):
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0) * math.sqrt(2 * LOG_DOUBLE_MAX))
        while True:
            while oracle.log_scale_estimate(coeffs, t, z) > LOG_DOUBLE_MAX:
                z = complex(z.real, 0.9 * z.imag)
            val, log_scale = oracle.finite_expansion_mp(coeffs, t, z)
            if log_scale <= LOG_DOUBLE_MAX:
                break
            z = complex(z.real, 0.9 * z.imag)
        pts.append(z)
        refs.append(val)
        scales.append(math.exp(log_scale))
    return pts, np.array(refs), np.array(scales)


def _point_request(M, rng, N: int, npts: int, kind: str) -> Op:
    t = float(rng.uniform(0.25, 0.6))
    label = f"{kind}/N{N}/p{npts}"
    if kind in ("basis", "coeffs"):
        if kind == "basis":
            k = int(rng.integers(0, N + 1))
            f = M.HermiteBasis((k,))
            coeffs = {k: 1.0}
        else:
            p = int(rng.integers(1, 3))
            phases = np.exp(2j * math.pi * rng.uniform(size=N + 1))
            coeffs = {k: complex((2 * k + 1) ** p * phases[k]) for k in range(N + 1)}
            f = M.CoefficientList(1, N, tuple(((k,), c) for k, c in coeffs.items()))
        pts, refs, scales = _finite_points(rng, coeffs, t, npts)

        def check(out):
            got = np.asarray(out, dtype=complex)
            if not np.all(np.isfinite(got)):
                return math.inf, FINITE_TOL
            return float(np.max(np.abs(got - refs) / scales)), FINITE_TOL

    else:
        tol = float(rng.choice(POINT_TOLS))
        ymax = _strip_halfwidth(N, t, tol)
        pts = list(rng.uniform(-3.0, 3.0, npts) + 1j * rng.uniform(-ymax, ymax, npts))
        if kind == "dirac":
            x0 = float(rng.uniform(-2.0, 2.0))
            f = M.Dirac((x0,))
            refs = oracle.mehler_closed(t, np.array(pts), x0)
        else:
            a = float(rng.uniform(0.5, 2.0))
            poly = (1.0,) if kind == "gaussian" else tuple(rng.normal(size=3))
            f = M.Gaussian(a) if kind == "gaussian" else M.PolyGaussian(poly, a)
            refs = oracle.gaussian_image(poly, a, t, np.array(pts))

        def check(out):
            return _rel(out, refs), tol

    def run():
        handle = M.semigroup_handle(f, t, "spectral", truncation=N)
        return [handle.eval([z]) for z in pts]

    return Op(label, run, check, (label, t, repr(f), tuple(pts)))


def heat_points(M, seed: int):
    """Endless seeded request stream in blocks of 240: every combination of
    truncation, point count and input kind once per block, shuffled, so
    the mix is the same for every seed and only the values differ."""
    combos = list(product(POINT_TRUNCATIONS, POINT_COUNTS, POINT_KINDS))
    block = 0
    while True:
        rng = np.random.default_rng([seed, block])
        for i in rng.permutation(len(combos)):
            yield _point_request(M, rng, *combos[i])
        block += 1


# ---------------------------------------------------------------------------
# heat-grid
# ---------------------------------------------------------------------------

GRID_RESOLUTIONS = (96, 112, 128, 144, 160)
ENVELOPE_RESOLUTIONS = (49, 65, 81)
ENVELOPE_BOX = (-8.0, 8.0, -6.0, 6.0)
PW_BOX = (-6.0, 6.0, -4.0, 4.0)
GRID_TOL = 1e-6
SUP_TOL = 1e-8


def _calibrate_job(M, rng, res=None) -> Op:
    t = float(rng.uniform(0.25, 0.6))
    res = res or int(rng.choice(GRID_RESOLUTIONS))

    def run():
        grid = M.default_bergman_grid(t, resolution=res)
        return M.calibrate_weight(t, 1, [(k,) for k in range(5)], grid)

    def check(cal):
        return max(abs(cal.kappa / KAPPA - 1.0), cal.spread, cal.max_offdiagonal), GRID_TOL

    return Op(f"calibrate/r{res}", run, check, (t, res))


def _norm_job(M, rng, m: int, res=None) -> Op:
    t = float(rng.uniform(0.25, 0.6))
    res = res or int(rng.choice(GRID_RESOLUTIONS))
    ks = sorted(int(k) for k in rng.choice(6, size=2, replace=False))
    coeffs = {k: complex(*rng.normal(size=2)) for k in ks}
    f = M.CoefficientList(1, max(ks), tuple(((k,), c) for k, c in coeffs.items()))
    ref = oracle.sobolev_image_norm(coeffs, m)
    margin = 2 * max(ks) + 4 * m + 4

    def run():
        grid = M.default_bergman_grid(t, resolution=res, degree_margin=margin)
        handle = M.semigroup_handle(f, t, "spectral", truncation=48)
        return M.bergman_norm(handle, t, m, grid, kappa=KAPPA)

    def check(val):
        return abs(val - ref) / ref, GRID_TOL

    return Op(f"bergman-norm/m{m}/r{res}", run, check, (t, res, repr(f)))


def _reproduce_job(M, rng, res=None) -> Op:
    t = float(rng.uniform(0.25, 0.6))
    res = res or int(rng.choice(GRID_RESOLUTIONS))
    pts = list(rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3))
    if rng.uniform() < 0.5:
        k = int(rng.integers(0, 5))
        f = M.HermiteBasis((k,))
        refs = oracle.basis_image(k, t, np.array(pts))
    else:
        a = float(rng.uniform(0.6, 1.6))
        f = M.Gaussian(a)
        refs = oracle.gaussian_image((1.0,), a, t, np.array(pts))

    def run():
        grid = M.default_bergman_grid(t, resolution=res)
        handle = M.semigroup_handle(f, t, "spectral", truncation=48)
        return [M.reproduce(handle, t, [z], grid, KAPPA) for z in pts]

    def check(out):
        return _rel(out, refs), GRID_TOL

    return Op(f"reproduce/r{res}", run, check, (t, res, repr(f), tuple(pts)))


def _envelope_job(M, rng, kind: str) -> Op:
    t = float(rng.uniform(0.25, 0.6))
    res = int(rng.choice(ENVELOPE_RESOLUTIONS))
    X, Y = oracle.trapezoid_nodes(ENVELOPE_BOX, 2 * (res - 1) + 1)
    Z = X + 1j * Y
    if kind == "tempered":
        m = int(rng.integers(0, 2))
        x0 = float(rng.uniform(-1.0, 1.0))
        f, mode = M.Dirac((x0,)), "kernel"
        F = oracle.mehler_closed(t, Z, x0)
        bound = M.tempered_bound(t, m)
    else:
        m = int(rng.integers(0, 4))
        k = int(rng.integers(0, 4))
        f, mode = M.HermiteBasis((k,)), "spectral"
        F = oracle.basis_image(k, t, Z)
        make = M.sobolev_embed_bound if kind == "sobolev-embed" else M.schwartz_image_bound
        bound = make(t, m)
    with np.errstate(divide="ignore"):
        ref = oracle.grid_sup(2 * np.log(np.abs(F)), oracle.log_bound(kind, t, m, X, Y))

    def run():
        grid = M.PlaneGrid(boxes=(ENVELOPE_BOX,), resolution=res, kind="trapezoid")
        handle = M.semigroup_handle(f, t, mode, truncation=48)
        return M.envelope_ratio(handle, bound, grid)

    def check(rep):
        return abs(rep.sup_ratio - ref) / ref, SUP_TOL

    return Op(f"envelope/{kind}/m{m}/r{res}", run, check, (t, res, repr(f), repr(bound)))


def _pw_job(M, rng) -> Op:
    # (a + b)/2 >= 0.75 keeps the frequencies of PW_BOX within what the
    # default 128-point rule accepts (the suite's h_0, a = 0.5 case)
    b = float(rng.uniform(1.0, 2.0))
    a = float(rng.uniform(0.5, 0.9) if rng.uniform() < 0.5 else rng.uniform(1.2, 3.0))
    m = int(rng.integers(0, 2))
    res = 25
    X, Y = oracle.trapezoid_nodes(PW_BOX, 2 * (res - 1) + 1)
    T = oracle.stft_gaussian(b, a, 1.0, X + 1j * Y)
    ref = oracle.grid_sup(np.log(np.abs(T)), oracle.log_bound("pw-stft", 0.0, m, X, Y, a=a))

    def run():
        grid = M.PlaneGrid(boxes=(PW_BOX,), resolution=res, kind="trapezoid")
        return M.pw_envelope(M.Gaussian(b), a, m, grid)

    def check(rep):
        return abs(rep.sup_ratio - ref) / ref, SUP_TOL

    return Op(f"pw-envelope/m{m}", run, check, (a, b, m))


def warm_up(M, workload: str) -> None:
    """Run the largest heat-grid jobs once before timing.  The heap then
    reaches its working-set size first, so the peak RSS of a run does not
    depend on the order in which a seed's jobs happen to fragment it."""
    if workload != "heat-grid":
        return
    rng = np.random.default_rng(0)
    res = max(GRID_RESOLUTIONS)
    for op in (_norm_job(M, rng, 3, res), _reproduce_job(M, rng, res), _calibrate_job(M, rng, res)):
        execute(op)


def heat_grid(M, seed: int):
    """Endless seeded job stream in rounds of 12 shuffled jobs with a fixed
    mix: two calibrations, a weighted norm for each m in 0..3, two
    reproducing-identity jobs, one envelope per bound family and one
    windowed-transform envelope."""
    makers = (
        [_calibrate_job] * 2
        + [lambda M, rng, m=m: _norm_job(M, rng, m) for m in range(4)]
        + [_reproduce_job] * 2
        + [
            lambda M, rng, k=k: _envelope_job(M, rng, k)
            for k in ("sobolev-embed", "schwartz-image", "tempered")
        ]
        + [_pw_job]
    )
    rnd = 0
    while True:
        rng = np.random.default_rng([seed, rnd])
        for i in rng.permutation(len(makers)):
            yield makers[i](M, rng)
        rnd += 1


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def suite_pass(M, seed: int, timer: dict) -> list[OpRecord]:
    """One ``run_suite`` pass; each registered check becomes one record.

    ``timer`` maps check position to the seconds measured by the wrapper
    the caller installed in ``suite.CHECKS``.  A crashed check comes back
    under a name derived from its function with an empty theorem tag and a
    metric of inf; it is recorded as a failed op under its registered
    name, taken by position because ``CHECKS`` and ``DEFAULT_TOLERANCES``
    are in the same order.
    """
    suite = M.suite
    names = list(suite.DEFAULT_TOLERANCES)
    report = suite.run_suite(suite.SuiteConfig(seed=seed))
    records = []
    for i, res in enumerate(report.checks):
        name = names[i] if i < len(names) else res.name
        seconds = timer.get(i, res.seconds)
        if res.name != name or not res.theorem:
            records.append(OpRecord(name, seconds, False, error=f"crashed: {res.details}"))
            continue
        if not math.isfinite(res.metric):
            records.append(OpRecord(name, seconds, False, error="non-finite metric"))
            continue
        margin = None
        if res.tol > 0:
            margin = math.log10(res.tol / max(res.metric, TINY * res.tol))
        ok = res.status == "pass"
        records.append(OpRecord(name, seconds, ok, margin, "" if ok else res.details))
    if len(report.checks) != len(names):
        records.append(
            OpRecord("registry", 0.0, False, error="report and registry lengths differ")
        )
    return records
