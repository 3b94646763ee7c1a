"""The oscillator heat transform onto weighted Bergman spaces.

``semigroup_apply`` maps a test function forward, either spectrally
(diagonal damping of Hermite coefficients) or through the closed-form heat
kernel; both routes give the same entire function, which is the basic
internal consistency check.  ``calibrate_weight`` determines the constant
kappa that makes the weighted basis orthogonality an exact isometry (the
raw weight normalization is off by a dimension-dependent factor; for n = 1
kappa comes out at (2 pi)^{-1/2}, independent of t).  With kappa in hand,
``bergman_norm`` evaluates the weighted squared norms of any integer
Sobolev order, and ``reproduce`` runs the reproducing identity at one
point or a batch of points: its kernel K_{2t}(z, conj w) factors over the
real axes of the grid, so the integral is a z-side table on x, one (x, y)
table and a z-side table on y joined by one matrix product.
``envelope`` is the package's one growth-envelope scan: the sup of
|F|^2 / bound (or |F| / bound) on a trapezoid plane grid and at twice its
resolution, over x-slices of one open mesh of the grid's real axes (x, y on
C; x, y, u, v on C^2) fed to ``handle.eval_grid_parts`` and
``bound.log_parts``, so images on C and on C^2 share it and no flattened
nodes are built.  Both logs come in pieces that each lie on the axes they
depend on, and the scan joins them per bound in one reused block buffer.
The refined grid keeps every node of the grid, so one scan of it gives
both sups; ``envelopes`` runs several bounds on that one scan.

An image that is real on R (``EntireHandle.real_on_real_axis``) satisfies
F(conj z) = conj F(z), and the weight U_t, its t-derivatives, the kernel's
cross table and every growth bound on C depend on y through y^2 alone.  So
on a grid symmetric in y, ``bergman_norm``, ``reproduce`` and the envelope
scan evaluate F on the half y <= 0 only, and ``calibrate_weight`` sums its
real probes there, at the folded weights of
:meth:`mehler.quadrature.PlaneGrid.y_axis`.  On C^2, the modulus of a
special Hermite function or of a Gaussian's twisted heat image
(``EntireHandle.reflection_invariant``) and every growth bound there are unchanged by rho_1: (x, v) -> (-x, -v) and
rho_2: (y, u) -> (-y, -u), so on a grid symmetric about 0 the envelope scan
walks the quarter x <= 0, y <= 0.

Every grid job here walks the open mesh of the grid's axes and takes F in
split form P e^E (``EntireHandle.eval_grid_parts``; for a spectral image
E = log h_0(z), whose real part (y^2 - x^2)/2 separates over the axes; for
the image K_t(z, x0) of a point mass, P is the prefactor
(2 pi sinh 2t)^{-1/2} and E the kernel's exponent, and the handle raises
:class:`~mehler.specfun.HermiteOverflowError` where max Re E + log P passes
the log of the largest double, since no consumer of the split form would).
Each job joins E with its own Gaussians before exponentiating: the
envelope scans log|P| + Re E and never exponentiates; ``bergman_norm``
forms |P|^2 e^{2 Re E + tanh(2t) x^2 - coth(2t) y^2} in one real exp and
contracts it with per-axis jet tables of the weight's time derivatives;
``calibrate_weight`` contracts the probes' polynomial parts with the
separable table |h_0|^2 U_t; ``reproduce`` puts E inside its table's one
complex exp, the only one per node, since its phase e^{icxy} does not
factor over the axes.  No array holds |F|^2, U_t or e^{y^2} alone, so wide
boxes do not overflow where the weighted quantities are finite.  These
sums and their C^2 forms (:mod:`mehler.special`) keep their own arithmetic
but share their argument checks and their finish: on the trapezoid grids
each norm and diagonal calibration integral also sums the nested rule of
twice the step, and one that moves there by more than 1e-2 of its terms'
moduli raises :class:`mehler.quadrature.QuadratureError`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .indices import MultiIndex, as_index, as_point, oscillator_eigenvalue
from .kernels import (
    BoundSpec,
    _mehler_parts,
    _weight_jets,
    mehler_kernel,
    schwartz_image_bound,
)
from .quadrature import (
    PlaneGrid,
    QuadRule,
    _check_half_step,
    gauss_hermite_rule,
    gauss_legendre_rule,
    gaussian_box,
    real_matmul,
)
from .spectral import (
    Bump,
    Dirac,
    EntireHandle,
    SpectralHandle,
    TestFunction,
    eval_test_function,
    expand,
    gaussian_decay_rate,
)
from .specfun import LOG_DBL_MAX, HermiteOverflowError, _finite, _poly_parts


@dataclass(frozen=True)
class CalibrationResult:
    """Weight correction kappa with per-index diagnostics.

    ``ratios`` maps each probed multi-index to
    e^{2(2|alpha|+n)t} / integral(|Phi_alpha|^2 U_t); kappa is their
    geometric mean and must be flat across indices.
    """

    kappa: float
    ratios: dict[MultiIndex, float]
    max_offdiagonal: float
    t: float
    dimension: int

    @property
    def spread(self) -> float:
        vals = np.array(list(self.ratios.values()))
        return float(vals.max() / vals.min() - 1.0)

    @classmethod
    def from_ratios(
        cls, ratios: dict, max_off: float, t: float, dimension: int, flatness: float
    ) -> "CalibrationResult":
        """kappa as the geometric mean of ``ratios``; RuntimeError when one
        is non-finite or not positive, or when their spread exceeds
        ``flatness``."""
        vals = np.array(list(ratios.values()))
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise RuntimeError(
                "calibration ratio is non-finite or not positive: the probe "
                "integrals overflowed or vanished"
            )
        if vals.max() / vals.min() - 1.0 > flatness:
            raise RuntimeError(
                f"calibration ratios vary beyond {flatness:g} across indices: "
                "quadrature or weight-formula defect"
            )
        kappa = float(np.exp(np.mean(np.log(vals))))
        return cls(kappa, ratios, float(max_off), t, dimension)


@dataclass(frozen=True)
class EnvelopeReport:
    """Measured sup of |F|^2 (or |F|) against a growth bound on a grid.

    ``sup_ratio`` is the sup over the nodes of ``grid.refine(2)``, attained
    at ``argmax``; ``sup_coarse`` the sup over the nodes of ``grid``
    itself, which the refined grid nests; ``stable`` whether the two differ
    by less than 5% of ``sup_ratio``.  The report holds no values of F: a
    caller that tables F on the grid evaluates it there.
    """

    sup_ratio: float
    argmax: tuple[float, ...]
    bound: BoundSpec
    grid: PlaneGrid
    stable: bool
    sup_coarse: float

    @property
    def refinement_change(self) -> float:
        if self.sup_ratio == 0:
            return 0.0
        return abs(self.sup_ratio - self.sup_coarse) / self.sup_ratio


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------


class MehlerSliceHandle(EntireHandle):
    """Heat-transform image of a point mass: z -> K_t(z, source), real on
    R^n for a real source."""

    real_on_real_axis = True

    def __init__(self, time: float, source, dimension: int = 1):
        if time <= 0:
            raise ValueError("time must be positive")
        self.time = time
        self.dimension = dimension
        self.source = np.atleast_1d(np.asarray(source, dtype=float))
        if len(self.source) != dimension:
            raise ValueError(
                f"dimension mismatch: point mass in R^{len(self.source)}, "
                f"dimension {dimension}"
            )

    def eval(self, z) -> complex:
        """K_t(z, source) at a point of C^n.  It stays beside the grid
        evaluator, which is one-dimensional, as the only evaluator for
        n > 1."""
        z = as_point(z, dimension=self.dimension)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.dimension == 1:
                val = mehler_kernel(self.time, z[0], self.source[0])
            else:
                val = mehler_kernel(self.time, z, self.source, self.dimension)
        return complex(_finite(val, "kernel-mode image"))

    def eval_grid_parts(self, X, Y):
        """K_t(z, x0) in split form: P the prefactor (2 pi sinh 2t)^{-1/2}
        on the broadcast shape, E = -coth(2t)(z^2 + x0^2)/2 + z x0 / sinh 2t,
        both as :func:`mehler.kernels.mehler_kernel` forms them.

        Raises :class:`HermiteOverflowError` where |K_t| would pass the
        largest double, as the kernel's own values would, although the
        split form itself stays finite there."""
        if self.dimension != 1:
            raise ValueError("grid evaluation is one-dimensional")
        Z = np.asarray(X) + 1j * np.asarray(Y)
        pref, E = _mehler_parts(self.time, Z, self.source[0])
        if E.size and not float(np.max(E.real)) + math.log(pref) <= LOG_DBL_MAX:
            raise HermiteOverflowError("kernel-mode image exceeds the largest double on this grid")
        return np.broadcast_to(pref, E.shape), E


class KernelImageHandle(EntireHandle):
    """Heat-transform image computed by quadrature against the heat kernel.

    Bumps integrate over their support with Gauss-Legendre; Gaussian-decay
    members use a scaled Gauss-Hermite rule.
    """

    def __init__(self, f: TestFunction, time: float, rule: QuadRule):
        if time <= 0:
            raise ValueError("time must be positive")
        self.f = f
        self.time = time
        if isinstance(f, Bump):
            leg = gauss_legendre_rule(max(rule.order, 64), -f.radius, f.radius)
            self._nodes = leg.nodes
            self._weights = leg.weights
        else:
            gamma = gaussian_decay_rate(f)
            if gamma is None:
                raise ValueError(f"{type(f).__name__} has no kernel-mode image")
            scale = 1.0 / math.sqrt(gamma + 0.5 / math.tanh(2 * time))
            self._nodes = scale * rule.nodes
            self._weights = scale * rule.plain_weights
        self._samples = self._weights * eval_test_function(self.f, self._nodes)
        self.real_on_real_axis = not np.any(np.imag(self._samples))

    def eval_grid(self, X, Y) -> np.ndarray:
        Z = np.asarray(X) + 1j * np.asarray(Y)
        with np.errstate(over="ignore", invalid="ignore"):
            ker = mehler_kernel(self.time, Z[..., None], self._nodes)
            vals = ker @ self._samples
        return _finite(vals, "kernel-mode image")


def semigroup_handle(
    f: TestFunction,
    t: float,
    mode: str = "spectral",
    dimension: int = 1,
    truncation: int = 48,
    rule: QuadRule | None = None,
) -> EntireHandle:
    """The heat-transform image of ``f`` as an evaluable entire function.

    Kernel mode runs on R^n, n > 1, for point masses only.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if isinstance(f, Dirac) and mode == "kernel":
        return MehlerSliceHandle(t, f.point, dimension)
    if mode == "kernel":
        if dimension != 1:
            raise ValueError(
                f"mode 'kernel' needs dimension 1 for {type(f).__name__} "
                f"(got {dimension}); only point masses run it on R^n"
            )
        return KernelImageHandle(f, t, rule or gauss_hermite_rule(128))
    if mode != "spectral":
        raise ValueError(f"unknown mode {mode!r}")
    rule = rule or gauss_hermite_rule(max(128, truncation + 1))
    e = expand(f, truncation, rule=rule, dimension=dimension)
    return SpectralHandle(e, t)


def semigroup_apply(
    f: TestFunction,
    t: float,
    z,
    mode: str = "spectral",
    dimension: int = 1,
    truncation: int = 48,
    rule: QuadRule | None = None,
) -> complex:
    """Entire extension of the heat transform of ``f`` evaluated at z."""
    handle = semigroup_handle(f, t, mode, dimension, truncation, rule)
    return handle.eval(z)


# ---------------------------------------------------------------------------
# Weighted norms and calibration
# ---------------------------------------------------------------------------


def default_bergman_grid(
    t: float,
    resolution: int = 128,
    degree_margin: int = 10,
) -> PlaneGrid:
    """Trapezoid grid sized so poly * Gaussian integrands against U_t are
    contained: they fall below 1e-15 at the box's edges.

    Decay rates of |F|^2 U_t for F in the image of L^2:
    1 - tanh(2t) along x, coth(2t) - 1 along y.  An even ``resolution`` is
    rounded up to odd, so every second node of each axis is the rule of
    twice the step, which the weighted sums check themselves against.
    """
    gx = 1.0 - math.tanh(2 * t)
    gy = 1.0 / math.tanh(2 * t) - 1.0
    return PlaneGrid(
        boxes=(gaussian_box(gx, gy, drop=1e-15, degree=degree_margin),),
        resolution=resolution + 1 - resolution % 2,
    )


def _check_grid(grid: PlaneGrid, ncoords: int) -> None:
    """A ValueError naming ``grid`` unless it spans ``ncoords`` complex
    coordinates: the jobs on C take grids over one, those on C^2 over two."""
    if grid.ncoords != ncoords:
        planes = {1: "one-coordinate grid over C", 2: "two-coordinate grid over C^2"}
        raise ValueError(f"grid must be a {planes[ncoords]}, not a {planes[grid.ncoords]}")


def _check_order(m) -> int:
    """``m`` as an int: a weighted-norm order, a whole number >= 0; a
    ValueError that names it otherwise."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"weighted-norm order m must be an integer, got {m!r}")
    if m < 0:
        raise ValueError(f"weighted-norm order m must be >= 0, got {m!r}")
    return int(m)


def bergman_norm(
    handle: EntireHandle,
    t: float,
    m,
    grid: PlaneGrid,
    kappa: float = 1.0,
):
    """Weighted squared norm kappa * int |F|^2 d^{2m}/dt^{2m} U_t dz.

    m = 0 is the plain Bergman squared norm; higher m weights with the
    (signed) derivative of the weight, which the spectral identity
    guarantees to be a positive quadratic form on the image space.  ``m``
    is one order, giving a float, or a sequence of orders, giving a list
    with one norm per order: F, its exponential and |P|^2 are then formed
    once, and each order's norm is bit for bit the one a call at that order
    alone gives.  Every order must be an integer >= 0.

    The sum runs over the open mesh of the grid's axes.  With F = P e^E
    (``handle.eval_grid_parts``), |F|^2 and the weight's Gaussian
    e^{tanh(2t) x^2 - coth(2t) y^2} are joined in one real exponential, and
    the rest of the weight is the per-axis jet tables of
    :func:`mehler.kernels._weight_jets`, joined by their Hankel matrix in
    one matrix product into the (x, y) table of the weight's derivative, so
    no Taylor arithmetic runs on the mesh.  The same table on every second
    node of each axis, at twice its weight, sums the nested rule of twice
    the step, and :func:`_finish_norm` raises where the total is not
    finite or the grid is too coarse for the integrand.

    The integrand is even in y when F is real on R, so on a grid symmetric
    in y the table covers the half y <= 0 alone, at the folded weights of
    :meth:`~mehler.quadrature.PlaneGrid.y_axis`; every second node of that
    half, at twice its weight, is still the rule of twice the step.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    _check_grid(grid, 1)
    single = np.ndim(m) == 0
    orders = [_check_order(m)] if single else [_check_order(k) for k in m]
    if not orders:
        raise ValueError("m must name at least one order")
    x, wx = grid.axis(0)
    y, wy, _ = grid.y_axis(handle.real_on_real_axis)
    P, E = handle.eval_grid_parts(x[:, None], y[None, :])
    # |F|^2 U_t / (jets) = |P|^2 e^{2 Re E + tanh(2t) x^2 - coth(2t) y^2}
    expo = np.add.outer(
        0.5 * math.tanh(2 * t) * x * x, -0.5 / math.tanh(2 * t) * y * y
    )
    expo += np.real(E)
    del E
    expo *= 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(expo, out=expo)
        abs_P = np.abs(P)
        del P
        abs_P *= abs_P
        expo *= abs_P
        del abs_P
        norms = []
        for order in orders:
            H, jx, jy = _weight_jets(t, order, x * x, y * y)
            # the quadrature terms: node weights times |F|^2 d^{2m}/dt^{2m} U_t
            terms = (jx * wx).T @ H @ (jy * wy)
            terms *= expo
            total = kappa * float(np.sum(terms))
            half = 4.0 * kappa * float(np.sum(terms[::2, ::2]))
            size = abs(kappa) * float(np.sum(np.abs(terms, out=terms)))
            norms.append(_finish_norm(total, half, size, grid))
    return norms[0] if single else norms


def _check_probes(name: str, probes: list, dimension: int) -> list:
    """``probes``, each a multi-index or a tuple of them, or a ValueError
    naming the argument ``name``: when it is empty, or at the first probe
    with a multi-index of length other than ``dimension``, or that repeats
    (it would be summed as an off-diagonal pair with itself)."""
    if not probes:
        raise ValueError(f"{name} must name at least one calibration probe")
    seen = set()
    for probe in probes:
        indices = probe if probe and isinstance(probe[0], tuple) else (probe,)
        if any(len(a) != dimension for a in indices):
            raise ValueError(f"{name}: calibration probe {probe} is not of dimension {dimension}")
        if probe in seen:
            raise ValueError(f"{name}: calibration probe {probe} is repeated")
        seen.add(probe)
    return probes


def _finish_norm(total: float, half: float, size: float, grid: PlaneGrid) -> float:
    """``total``, a weighted norm's plane sum, once it is finite and agrees
    with ``half``, the nested rule's (:func:`_check_half_step`)."""
    _finite(total, "the weighted integrand", "on this grid")
    _check_half_step(total, half, size, grid.resolution, "weighted norm")
    return total


def _finish_calibration(
    probes, eigenvalues, diagonals, off_diagonals, t, dimension, grid, flatness
) -> CalibrationResult:
    """The calibration from its plane sums: each probe's diagonal (total,
    half-step sum, sum of moduli) passes :func:`_check_half_step` and gives
    e^{2 lambda t} / total, lambda its eigenvalue; the off-diagonals, read
    after those checks, give their largest modulus."""
    ratios: dict = {}
    for probe, lam, (total, half, size) in zip(probes, eigenvalues, diagonals):
        _check_half_step(total, half, size, grid.resolution, "calibration integral")
        ratios[probe] = math.exp(2 * lam * t) / total
    max_off = max((abs(v) for v in off_diagonals), default=0.0)
    return CalibrationResult.from_ratios(ratios, max_off, t, dimension, flatness)


def calibrate_weight(
    t: float,
    dimension: int,
    alphas: list | None,
    grid: PlaneGrid,
) -> CalibrationResult:
    """Determine the weight constant from the basis orthogonality integrals.

    For each probe index, integrate |Phi_alpha|^2 U_t over the grid and
    form e^{2(2|alpha|+n)t} / integral.  Constancy across indices validates
    the weight shape; the geometric mean is kappa.  Off-diagonal integrals
    Phi_alpha conj(Phi_beta) U_t over every pair of probes must vanish to
    quadrature accuracy.

    The probes are h_k = h_0 P_k, and |h_0|^2 U_t = 2 (pi sinh 4t)^{-1/2}
    e^{-(1 - tanh 2t) x^2 - (coth 2t - 1) y^2} separates over the grid's
    axes, so each integral is P_k conj(P_l) (the ladder of
    :func:`mehler.specfun._poly_parts` on the open mesh) contracted with
    two per-axis tables, both Gaussians bounded by 1.  Each diagonal
    integral, a sum of positive terms, also sums the nested rule of twice
    the step (every second node of each axis at twice its weight), which
    :func:`_finish_calibration` checks; the off-diagonal integrals must
    vanish, which checks the rule on them.

    The probes are real on R, so on a grid symmetric in y every integrand
    is summed over the half y <= 0 at the folded weights of
    :meth:`~mehler.quadrature.PlaneGrid.y_axis`: |P_k|^2 and Re P_k
    conj(P_l) are even in y, and Im P_k conj(P_l) is odd, so an
    off-diagonal integral is real there and its imaginary part is exactly
    0, not summed from roundoff.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if dimension != 1:
        raise ValueError("calibration grids are one-dimensional at desk scale")
    _check_grid(grid, 1)
    if alphas is None:
        alphas = [(k,) for k in range(5)]
    alphas = _check_probes("alphas", [as_index(a) for a in alphas], dimension)
    pairs = [(a, b) for i, a in enumerate(alphas) for b in alphas[i + 1 :]]
    kmax = max(sum(a) for a in alphas)

    x, wx = grid.axis(0)
    y, wy, folded = grid.y_axis(True)
    ladder = np.empty((kmax + 1, len(x), len(y)), dtype=complex)
    for k, (p, scale) in enumerate(_poly_parts(kmax, x[:, None] + 1j * y[None, :])):
        if scale is not None:
            raise HermiteOverflowError("probe ladder leaves the doubles on this grid")
        ladder[k] = p
    tx = wx * np.exp(-(1.0 - math.tanh(2 * t)) * x * x)
    ty = wy * np.exp(-(1.0 / math.tanh(2 * t) - 1.0) * y * y)
    tx2, ty2 = 2.0 * tx[::2], 2.0 * ty[::2]
    pref = 2.0 / math.sqrt(math.pi * math.sinh(4 * t))

    # real products only: a complex matrix-vector product at this size
    # already wakes the BLAS thread pool (see quadrature.real_matmul)
    def integral(a, b):
        prod = ladder[sum(a)] * np.conj(ladder[sum(b)])
        imag = 0.0 if folded else tx @ prod.imag @ ty
        return pref * complex(tx @ prod.real @ ty, imag)

    diagonals = []
    for a in alphas:
        p = ladder[sum(a)]
        square = p.real * p.real
        square += p.imag * p.imag
        total = pref * float(tx @ square @ ty)
        diagonals.append((total, pref * float(tx2 @ square[::2, ::2] @ ty2), total))
    return _finish_calibration(
        alphas, [oscillator_eigenvalue(a, dimension) for a in alphas], diagonals,
        (integral(a, b) for a, b in pairs), t, dimension, grid, 1e-3,
    )


def reproduce(
    handle: EntireHandle,
    t: float,
    z,
    grid: PlaneGrid,
    kappa: float,
):
    """Right-hand side of the reproducing identity:
    int F(w) conj(K(z, w)) kappa U_t(w) dw, which must return F(z).

    ``z`` is one point of C (a complex, or a sequence of length 1), giving a
    complex, or P points shaped (P, 1), giving an array of P values.  The
    conjugated order-0 kernel is K_{2t}(z, conj w) on the tensor grid's
    nodes w = x + iy, and it factors over the real axes:

        K_{2t}(z, x - iy) = pref A(z, x) T(x, y) B(z, y),

    with A = e^{-c(z^2 + x^2)/2 + zx/s - icab} (z = a + ib), the x-part with
    every Gaussian in z that goes with the z-linear term, so |A| <= 1;
    B = e^{cb^2/2 - izy/s}; and one cross table T = e^{cy^2/2 + icxy}, where
    s = sinh 4t and c = coth 4t.  T joins F = P e^E (``eval_grid_parts``),
    the weight U_t and the node weights in one (x, y) table, with E, the
    Gaussian of U_t and the exponent of T in one complex exp, and all
    points cost the four real products of A by the table.

    When F is real on R and the grid is symmetric in y, the table covers the
    half y <= 0 alone, at the folded weights of
    :meth:`~mehler.quadrature.PlaneGrid.y_axis`: the table at x - iy is the
    conjugate of the one at x + iy, so the same four products give A T and
    A conj(T), which meet B at y and at -y.  Halving their sum undoes the
    folded weights, which count each mirrored node twice and the centre
    once (where the table is real).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    _check_grid(grid, 1)
    zs = np.asarray(z, dtype=complex)
    single = zs.ndim < 2
    if single:
        zs = as_point(zs, dimension=1)
    elif zs.ndim != 2 or zs.shape[1] != 1:
        raise ValueError(f"points must be shaped (P, 1), got {zs.shape}")
    elif not np.all(np.isfinite(zs)):
        raise ValueError("point coordinates must be finite")
    zs = zs.reshape(-1)
    x, wx = grid.axis(0)
    y, wy, folded = grid.y_axis(handle.real_on_real_axis)
    X, Y = x[:, None], y[None, :]
    P, E = handle.eval_grid_parts(X, Y)
    s = math.sinh(4 * t)
    c = math.cosh(4 * t) / s
    # U_t(x + iy) = 2 (sinh 4t)^{-1/2} e^{tanh(2t) x^2 - coth(2t) y^2}, in one
    # exponent with the kernel's w-only part and the exponent E of F
    expo = 1j * c * X * Y
    expo += math.tanh(2 * t) * X * X + (0.5 * c - 1.0 / math.tanh(2 * t)) * Y * Y
    expo += E
    del E
    table = np.exp(expo, out=expo)
    table *= P
    table *= (2.0 / math.sqrt(s)) * np.multiply.outer(wx, wy)
    a, b = zs.real[:, None], zs.imag[:, None]
    zc = zs[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.exp(-0.5 * c * (a * a + x * x) + zc * x / s - 1j * c * a * b)
        # log B = gauss - izy; its mirror at -y is gauss + izy
        gauss, izy = 0.5 * c * b * b, 1j * zc * y / s
        # A T as real products (quadrature.real_matmul), kept for A conj(T)
        rr, ii = real_matmul(A.real, table.real), real_matmul(A.imag, table.imag)
        ri, ir = real_matmul(A.real, table.imag), real_matmul(A.imag, table.real)
        vals = np.sum(((rr - ii) + 1j * (ri + ir)) * np.exp(gauss - izy), axis=1)
        if folded:
            vals += np.sum(((rr + ii) + 1j * (ir - ri)) * np.exp(gauss + izy), axis=1)
            vals *= 0.5
        vals *= (2.0 * math.pi * s) ** -0.5 * kappa
    _finite(vals, "reproducing integral")
    return complex(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


# Most entries (x-nodes times the nodes of every other axis) one block holds.
_BLOCK_ENTRIES = 1 << 18

# Relative move of the sup under refinement below which an envelope is stable.
_STABILITY = 0.05


def _mesh_blocks(axes):
    """(x-slice, coordinates) pairs walking every node of the open mesh of
    ``axes``, the node arrays of a grid's real axes (x first).

    The coordinates are the open mesh (``np.ix_``) of all axes, one complex
    coordinate or two alike, cut along x into blocks of at most
    _BLOCK_ENTRIES entries (one x-node at least), so no flattened nodes are
    built.  A last row of its own joins the block before it, so a block of
    one row comes only with blocks of one row (see :func:`_span`).
    Row-major order matches ``grid.nodes()``.
    """
    x, *rest = axes
    step = max(1, _BLOCK_ENTRIES // math.prod(map(len, rest)))
    starts = list(range(0, len(x), step))
    if len(starts) > 1 and len(x) - starts[-1] == 1:
        del starts[-1]
    for x0, x1 in zip(starts, starts[1:] + [len(x)]):
        yield slice(x0, x1), np.ix_(x[x0:x1], *rest)


def _scan_axes(handle: EntireHandle, fine: PlaneGrid):
    """The node arrays of the refined grid's real axes that the scan walks,
    after folding by the reflections that leave |F| and every bound
    unchanged.

    A reflection is a tuple of axes whose nodes it negates.  An image real
    on R is even in y on C: ((1,),).  A handle on C^2 that is
    ``reflection_invariant`` has rho_1 = (x, v) and rho_2 = (y, u):
    ((0, 3), (1, 2)).  Every bound is invariant under them as well: on C it
    depends on y through y^2, and on C^2 through squares, V X and U Y.  A
    reflection folds where every axis it negates is mirrored
    (:meth:`~mehler.quadrature.PlaneGrid.mirrored`), and the scan then walks
    only the half <= 0 of its first axis, centre node included.
    """
    if fine.ncoords == 1:
        reflections = ((1,),) if handle.real_on_real_axis else ()
    else:
        reflections = ((0, 3), (1, 2)) if handle.reflection_invariant else ()
    halved = {r[0] for r in reflections if all(fine.mirrored(k) for k in r)}
    h = (fine.resolution + 1) // 2
    axes = [fine.axis(k)[0] for k in range(2 * fine.ncoords)]
    return [a[:h] if k in halved else a for k, a in enumerate(axes)]


def _span(piece, nominal: tuple) -> tuple:
    """The shape ``piece`` would have in a block shaped ``nominal``, with
    as many axes: the nominal length on each axis it spans (has more than
    one entry on), its shape aligned to the trailing axes."""
    shape = (1,) * (len(nominal) - np.ndim(piece)) + np.shape(piece)
    return tuple(m if k > 1 else 1 for k, m in zip(shape, nominal))


def _sum_into(out: np.ndarray, pieces, spans, full: int, add: bool = False) -> None:
    """Write the sum of ``pieces`` to ``out``, or add it there with ``add``.

    Each piece lies on its own axes and broadcasts to ``out``; ``spans``
    holds its shape in the nominal block (:func:`_span`), of ``full``
    entries.  The pair whose sum spans the fewest nominal entries is joined
    first, for as long as that sum is smaller than the nominal block; only
    the joins left over pass over all of ``out``, in place.  The order, and
    so every rounding, is that of the nominal block whatever the shape of
    ``out``.
    """
    pieces, spans = list(pieces), list(spans)
    while len(pieces) > 1:
        size, i, j = min(
            (math.prod(map(max, a, b)), i, j)
            for i, a in enumerate(spans) for j, b in enumerate(spans) if i < j
        )
        if size >= full:
            break
        pieces[i] = pieces[i] + pieces.pop(j)
        spans[i] = tuple(map(max, spans[i], spans.pop(j)))
    if not add and pieces:
        first = pieces.pop(0)
        if pieces:
            np.add(first, pieces.pop(0), out=out)
        else:
            out[...] = first
    for piece in pieces:
        out += piece


def _scan(handle: EntireHandle, bounds, grid: PlaneGrid):
    """One scan of the nodes of ``grid.refine(2)`` against every bound of
    ``bounds``.

    The scan folds by the reflections of :func:`_scan_axes`: the half
    y <= 0 when F is real on R and the refined grid is symmetric in y, the
    quarter x <= 0, y <= 0 when F on C^2 is ``reflection_invariant`` and the
    refined grid is symmetric about 0 in every coordinate (by rho_2 alone,
    the half y <= 0, when only y and u are).  Every node skipped has a
    mirror that was walked, with the same |F| and the same bounds, bit for
    bit, so the sups are those of the whole grid, and so is the argmax: the
    first row-major maximum lies in the walked part, since each reflection
    maps a node with a positive halved coordinate to an earlier one.  Every
    block joins its pieces in the order of a whole block of the unfolded
    refined grid (:func:`_sum_into`), so the walked nodes read what the
    whole scan reads there.

    Returns (sups, argmaxes, coarse sups): per bound, the sup of
    |F|^p / bound over the refined nodes and the node attaining it (p = 1
    for bounds on the modulus, 2 otherwise), and the sup over the nodes of
    ``grid`` itself, every second node on each refined axis counted from
    the first.  F is evaluated once per block, whatever the number of
    bounds.

    log|F| = log|P| + Re E and the log of each bound
    (:meth:`~mehler.kernels.BoundSpec.log_parts`) are sums of pieces that
    each lie on the axes they depend on, and they stay there until one
    joined sum per bound is written to a block buffer.  A scalar exponent
    of 0 (the default split form's) adds nothing and is dropped.  The scan
    holds two block-sized arrays at most, allocated once: that buffer, and
    a second one for a log|P| that spans the block (with any part of Re E
    that does too), formed once per block.  The log ratio is summed divided
    by p, which is exact for p = 2, and its maxima are scaled back.
    """
    fine = grid.refine(2)
    axes = _scan_axes(handle, fine)
    sups = [-math.inf] * len(bounds)
    args: list = [None] * len(bounds)
    coarse_sups = [-math.inf] * len(bounds)
    # every block joins its pieces in the order they take in a whole block
    # of the refined grid walked unfolded, so a node's value does not depend
    # on the block, or the fold, that reaches it
    n_fine, d = fine.resolution, len(axes)
    nominal = (min(n_fine, max(1, _BLOCK_ENTRIES // n_fine ** (d - 1))),) + (n_fine,) * (d - 1)
    full = math.prod(nominal)
    blocks = list(_mesh_blocks(axes))
    buf = np.empty((max(rows.stop - rows.start for rows, _ in blocks), *map(len, axes[1:])))
    tmp = None
    for rows, block in blocks:
        shape = np.broadcast_shapes(*(c.shape for c in block))
        out = buf[: shape[0]]
        P, E = handle.eval_grid_parts(*block)
        pieces = [np.real(e) for e in (E if isinstance(E, tuple) else (E,)) if np.ndim(e) or e != 0]
        with np.errstate(divide="ignore"):
            if np.shape(P) == shape:
                if tmp is None:
                    tmp = np.empty_like(buf)
                log_P = np.abs(P, out=tmp[: shape[0]])
                np.log(log_P, out=log_P)
                for e in pieces:
                    if np.shape(e) == shape:
                        log_P += e
                pieces = [e for e in pieces if np.shape(e) != shape]
            else:
                log_P = np.log(np.abs(P))
        pieces.insert(0, log_P)
        spans = [_span(e, nominal) for e in pieces]
        del P, E
        # the grid's nodes in the block: blocks may start at any row of the
        # refined grid
        coarse = (slice(rows.start % 2, None, 2),) + (slice(None, None, 2),) * (len(shape) - 1)
        for j, bound in enumerate(bounds):
            p = 1 if bound.on_modulus else 2
            terms, power, squares = bound.log_parts(*block)
            # log ratio / p = log|F| - terms / p - (power / p) log1p(squares);
            # a term that spans the block is subtracted in place, not negated
            spanning = [term for term in terms if np.size(term) == out.size]
            negated = [term * (-1.0 / p) for term in terms if np.size(term) < out.size]
            joined = spans + [_span(term, nominal) for term in negated]
            if power:
                _sum_into(out, squares, [_span(sq, nominal) for sq in squares], full)
                np.log1p(out, out=out)
                if power != -p:
                    out *= -power / p
                _sum_into(out, pieces + negated, joined, full, add=True)
            else:
                _sum_into(out, pieces + negated, joined, full)
            for term in spanning:
                out -= term if p == 1 else term / p
            # argmax lands on the first NaN if there is one
            i = np.unravel_index(int(np.argmax(out)), shape)
            if not out[i] < math.inf:
                raise HermiteOverflowError("envelope ratio is NaN or infinite at a grid node")
            if args[j] is None or p * float(out[i]) > sups[j]:
                sups[j] = p * float(out[i])
                args[j] = tuple(float(np.broadcast_to(c, shape)[i]) for c in block)
            if out[coarse].size:
                coarse_sups[j] = max(coarse_sups[j], p * float(np.max(out[coarse])))
    return [_exp_sup(s) for s in sups], args, [_exp_sup(s) for s in coarse_sups]


def _exp_sup(log_sup: float) -> float:
    return float(np.exp(log_sup)) if log_sup > -math.inf else 0.0


def envelopes(handle: EntireHandle, bounds, grid: PlaneGrid) -> list[EnvelopeReport]:
    """:func:`envelope` against each bound of ``bounds``, in order, from
    one evaluation of F per node: the scan forms log|F| once per block and
    each bound subtracts its own log from it.  For F real on R on a grid
    symmetric in y, the nodes evaluated are those of the half y <= 0, and
    for a special Hermite image on a grid over C^2 symmetric about 0 those
    of the quarter x <= 0, y <= 0 (see :func:`envelope`)."""
    bounds = tuple(bounds)
    sups, argmaxes, coarse_sups = _scan(handle, bounds, grid)
    reports = []
    for bound, sup_fine, argmax, sup_coarse in zip(bounds, sups, argmaxes, coarse_sups):
        if sup_fine == 0.0:
            stable = sup_coarse == 0.0
        else:
            stable = abs(sup_fine - sup_coarse) / sup_fine < _STABILITY
        reports.append(EnvelopeReport(sup_fine, argmax, bound, grid, stable, sup_coarse))
    return reports


def envelope(handle: EntireHandle, bound: BoundSpec, grid: PlaneGrid) -> EnvelopeReport:
    """Sup over the grid of |F|^2 / bound (or |F| / bound for bounds stated
    on the modulus), with the argmax and a refinement-stability flag.

    The sup is recomputed at doubled resolution; ``stable`` records whether
    it moved by less than 5% relatively.  A plane grid refines by halving
    its step, so the refined grid keeps every node of the grid (the nested
    trapezoid rule) and one scan of it gives both the refined sup and the
    grid's sup over the nested nodes.  Grids over one complex coordinate and
    over two (with ``handle.eval_grid(X, Y, U, V)``) scan alike.  The scan
    works in logs and keeps no values of F, so a caller that tables F on
    the grid evaluates it there.  :func:`envelopes` runs several bounds on
    one scan.

    When F is real on R (``handle.real_on_real_axis``) and the grid is
    symmetric in y, the scan evaluates the half y <= 0 of the refined grid
    alone: there |F| and every bound on C are even in y.  When F on C^2 is
    ``handle.reflection_invariant`` (the twisted heat images) and the
    grid is symmetric about 0 in x, y, u and v, it evaluates the quarter
    x <= 0, y <= 0: |F| and every bound on C^2 are unchanged by
    rho_1: (x, v) -> (-x, -v) and rho_2: (y, u) -> (-y, -u).  Either way the
    sups and the argmax (the first row-major maximum, which lies in the
    walked part) are the whole grid's, bit for bit.
    """
    return envelopes(handle, (bound,), grid)[0]


def envelope_ratio(handle: EntireHandle, bound: BoundSpec, grid: PlaneGrid) -> EnvelopeReport:
    """:func:`envelope`, which the package calls; only the benchmark in
    ``perfbench/`` keeps this second name (ROADMAP item 1, part B)."""
    return envelope(handle, bound, grid)


def schwartz_image_check(
    f: TestFunction,
    t: float,
    m_list: list[int],
    grid: PlaneGrid,
    truncation: int = 48,
    rule: QuadRule | None = None,
) -> list[EnvelopeReport]:
    """Envelope reports for the rapid-decrease image bounds, one per order.

    For a test function of rapid decrease every report must come back
    finite and refinement-stable.
    """
    handle = semigroup_handle(f, t, "spectral", truncation=truncation, rule=rule)
    return envelopes(handle, [schwartz_image_bound(t, m) for m in m_list], grid)
