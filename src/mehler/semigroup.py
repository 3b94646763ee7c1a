"""The oscillator heat transform onto weighted Bergman spaces.

``semigroup_apply`` maps a test function forward, either spectrally
(diagonal damping of Hermite coefficients) or through the closed-form heat
kernel; both routes give the same entire function, which is the basic
internal consistency check.  ``calibrate_weight`` determines the constant
kappa that makes the weighted basis orthogonality an exact isometry (the
raw weight normalization is off by a dimension-dependent factor; for n = 1
kappa comes out at (2 pi)^{-1/2}, independent of t).  With kappa in hand,
``bergman_norm`` evaluates the weighted squared norms of any integer
Sobolev order, and ``reproduce`` runs the reproducing identity.
``envelope`` is the package's one growth-envelope scan: the sup of
|F|^2 / bound (or |F| / bound) on a plane grid and at twice its resolution,
over blocks of broadcastable real coordinates fed to ``handle.eval_grid``
and ``bound.log_eval``, so images on C and on C^2 share it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .indices import MultiIndex, as_index, as_point, multi_indices, oscillator_eigenvalue
from .kernels import (
    BoundSpec,
    bergman_weight,
    bergman_weight_dt,
    mehler_kernel,
)
from .quadrature import (
    PlaneGrid,
    QuadRule,
    gauss_hermite_rule,
    gauss_legendre_rule,
    gaussian_box,
)
from .spectral import (
    Bump,
    Dirac,
    EntireHandle,
    HermiteExpansion,
    SpectralHandle,
    TestFunction,
    eval_test_function,
    expand,
    gaussian_decay_rate,
)
from .specfun import HermiteOverflowError, hermite_eval


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


@dataclass(frozen=True)
class EnvelopeReport:
    """Measured sup of |F|^2 (or |F|) against a growth bound on a grid."""

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
    """Heat-transform image of a point mass: z -> K_t(z, source)."""

    def __init__(self, time: float, source, dimension: int = 1):
        if time <= 0:
            raise ValueError("time must be positive")
        self.time = time
        self.dimension = dimension
        self.source = np.atleast_1d(np.asarray(source, dtype=float))

    def eval(self, z) -> complex:
        z = as_point(z, dimension=self.dimension)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.dimension == 1:
                val = mehler_kernel(self.time, z[0], self.source[0])
            else:
                val = mehler_kernel(self.time, z, self.source, self.dimension)
        return complex(_finite_kernel_sum(val))

    def eval_grid(self, X, Y) -> np.ndarray:
        Z = np.asarray(X) + 1j * np.asarray(Y)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = mehler_kernel(self.time, Z, self.source[0])
        return _finite_kernel_sum(vals)


class KernelImageHandle(EntireHandle):
    """Heat-transform image computed by quadrature against the heat kernel.

    Bumps integrate over their support with Gauss-Legendre; Gaussian-decay
    members use a scaled Gauss-Hermite rule.
    """

    def __init__(self, f: TestFunction, time: float, rule: QuadRule, dimension: int = 1):
        if dimension != 1:
            raise ValueError("kernel-mode images are one-dimensional at desk scale")
        if time <= 0:
            raise ValueError("time must be positive")
        self.f = f
        self.time = time
        self.dimension = 1
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
            self._weights = scale * rule.weights * np.exp(rule.nodes**2)
        self._samples = self._weights * eval_test_function(self.f, self._nodes)

    def eval(self, z) -> complex:
        z = as_point(z, dimension=1)
        with np.errstate(over="ignore", invalid="ignore"):
            ker = mehler_kernel(self.time, z[0], self._nodes)
            val = np.sum(self._samples * ker)
        return complex(_finite_kernel_sum(val))

    def eval_grid(self, X, Y) -> np.ndarray:
        Z = (np.asarray(X) + 1j * np.asarray(Y)).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            ker = mehler_kernel(self.time, Z[:, None], self._nodes[None, :])
            vals = ker @ self._samples
        return _finite_kernel_sum(vals)


def _finite_kernel_sum(vals):
    """``vals``, or HermiteOverflowError where a kernel sum left the doubles."""
    if not np.all(np.isfinite(vals)):
        raise HermiteOverflowError(
            "kernel-mode image exceeds the largest double at a requested point"
        )
    return vals


def semigroup_handle(
    f: TestFunction,
    t: float,
    mode: str = "spectral",
    dimension: int = 1,
    truncation: int = 48,
    rule: QuadRule | None = None,
) -> EntireHandle:
    """The heat-transform image of ``f`` as an evaluable entire function."""
    if t <= 0:
        raise ValueError("t must be positive")
    if isinstance(f, Dirac) and mode == "kernel":
        return MehlerSliceHandle(t, f.point, dimension)
    if mode == "kernel":
        return KernelImageHandle(f, t, rule or gauss_hermite_rule(128), dimension)
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
    dimension: int = 1,
    resolution: int = 128,
    degree_margin: int = 10,
    drop: float = 1e-15,
) -> PlaneGrid:
    """Grid sized so poly * Gaussian integrands against U_t are contained.

    Decay rates of |F|^2 U_t for F in the image of L^2:
    1 - tanh(2t) along x, coth(2t) - 1 along y.
    """
    if dimension != 1:
        raise ValueError("plane grids are one-dimensional at desk scale")
    gx = 1.0 - math.tanh(2 * t)
    gy = 1.0 / math.tanh(2 * t) - 1.0
    return PlaneGrid(
        boxes=(gaussian_box(gx, gy, drop=drop, degree=degree_margin),),
        resolution=resolution,
    )


def bergman_norm(
    handle: EntireHandle,
    t: float,
    m: int,
    grid: PlaneGrid,
    kappa: float = 1.0,
) -> float:
    """Weighted squared norm kappa * int |F|^2 d^{2m}/dt^{2m} U_t dz.

    m = 0 is the plain Bergman squared norm; higher m weights with the
    (signed) derivative of the weight, which the spectral identity
    guarantees to be a positive quadratic form on the image space.
    """
    X, Y, W = grid.nodes()
    F = handle.eval_grid(X, Y)
    weight = bergman_weight_dt(t, m, X + 1j * Y)
    val = np.sum(W * np.abs(F) ** 2 * weight)
    return float(kappa * val.real)


def calibrate_weight(
    t: float,
    dimension: int,
    alphas: list | None,
    grid: PlaneGrid,
    offdiag_pairs: list[tuple] | None = None,
) -> CalibrationResult:
    """Determine the weight constant from the basis orthogonality integrals.

    For each probe index, integrate |Phi_alpha|^2 U_t over the grid and
    form e^{2(2|alpha|+n)t} / integral.  Constancy across indices validates
    the weight shape; the geometric mean is kappa.  Off-diagonal integrals
    Phi_alpha conj(Phi_beta) U_t must vanish to quadrature accuracy.
    """
    if dimension != 1:
        raise ValueError("calibration grids are one-dimensional at desk scale")
    if alphas is None:
        alphas = [(k,) for k in range(5)]
    alphas = [as_index(a) for a in alphas]
    kmax = max(sum(a) for a in alphas)
    pairs = offdiag_pairs or [
        (a, b) for i, a in enumerate(alphas) for b in alphas[i + 1 :]
    ]

    X, Y, W = grid.nodes()
    Z = X + 1j * Y
    ladder = hermite_eval(max(kmax, max(max(sum(a), sum(b)) for a, b in pairs)), Z)
    U = bergman_weight(t, Z)
    WU = W * U

    ratios: dict[MultiIndex, float] = {}
    for a in alphas:
        k = sum(a)
        diag = float(np.sum(WU * np.abs(ladder[k]) ** 2).real)
        lam = oscillator_eigenvalue(a, dimension)
        ratios[a] = math.exp(2 * lam * t) / diag
    max_off = 0.0
    for a, b in pairs:
        val = np.sum(WU * ladder[sum(a)] * np.conj(ladder[sum(b)]))
        max_off = max(max_off, float(abs(val)))

    vals = np.array(list(ratios.values()))
    if vals.max() / vals.min() - 1.0 > 1e-3:
        raise RuntimeError(
            "calibration ratios vary beyond 1e-3 across indices: "
            "quadrature or weight-formula defect"
        )
    kappa = float(np.exp(np.mean(np.log(vals))))
    return CalibrationResult(
        kappa=kappa, ratios=ratios, max_offdiagonal=max_off, t=t, dimension=dimension
    )


def reproduce(
    handle: EntireHandle,
    t: float,
    z,
    grid: PlaneGrid,
    kappa: float,
) -> complex:
    """Right-hand side of the reproducing identity:
    int F(w) conj(K(z, w)) kappa U_t(w) dw, which must return F(z)."""
    z = as_point(z, dimension=1)
    X, Y, W = grid.nodes()
    Wc = X + 1j * Y
    F = handle.eval_grid(X, Y)
    # conj of the order-0 reproducing kernel in its second argument:
    # sum e^{-2 lam t} Phi(z) Phi(conj w) = K^(0) evaluated at (conj z, w) conjugated
    ker = mehler_kernel(2 * t, z[0], np.conj(Wc))
    U = bergman_weight(t, Wc)
    return complex(np.sum(W * F * ker * U) * kappa)


def recover_coefficients(
    handle: EntireHandle,
    t: float,
    truncation: int,
    rule: QuadRule,
    dimension: int = 1,
) -> HermiteExpansion:
    """Round-trip recovery: read Hermite coefficients of the original
    function from the restriction of its image to R^n,
    c_alpha = e^{(2|alpha|+n) t} * int F(x) Phi_alpha(x) dx."""
    if dimension != 1:
        raise ValueError("round-trips are one-dimensional at desk scale")
    nodes, weights = rule.nodes, rule.weights
    comp = weights * np.exp(nodes**2)
    F = handle.eval_grid(nodes, np.zeros_like(nodes))
    ladder = hermite_eval(truncation, nodes)
    raw = ladder @ (comp * F)
    idx = tuple(multi_indices(1, truncation))
    lam = np.array([2 * sum(a) + 1 for a in idx], dtype=float)
    values = raw * np.exp(lam * t)
    return HermiteExpansion(1, truncation, idx, values, source="roundtrip")


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


# Most 4-D entries (z-plane rows x the whole w-plane) one scan block holds.
_BLOCK_ENTRIES = 1 << 18

# Relative move of the sup under refinement below which an envelope is stable.
_STABILITY = 0.05


def _plane_nodes(grid: PlaneGrid, which: int):
    """Flattened (x, y) nodes of one complex coordinate, x-major."""
    x, _ = grid.axis(2 * which)
    y, _ = grid.axis(2 * which + 1)
    return np.repeat(x, len(y)), np.tile(y, len(x))


def _z_row_slices(grid: PlaneGrid):
    """Slices of the flattened z-plane, each covering whole x-rows and,
    against the whole w-plane, at most _BLOCK_ENTRIES entries (one x-row
    at least)."""
    n = grid.resolution
    rows = max(1, _BLOCK_ENTRIES // n**3)
    for x0 in range(0, n, rows):
        yield slice(x0 * n, min(x0 + rows, n) * n)


def _coordinate_blocks(grid: PlaneGrid):
    """Broadcastable real coordinate arrays covering the grid's nodes: one
    block (X, Y) for one coordinate; for two, z-row slices (X, Y) shaped
    (rows, 1) against the whole w-plane (U, V) shaped (1, w-plane)."""
    if grid.ncoords == 1:
        X, Y, _ = grid.nodes()
        yield X, Y
        return
    X, Y = _plane_nodes(grid, 0)
    U, V = _plane_nodes(grid, 1)
    for rows in _z_row_slices(grid):
        yield X[rows, None], Y[rows, None], U[None, :], V[None, :]


def _sup_ratio_on(handle: EntireHandle, bound: BoundSpec, grid: PlaneGrid):
    """Sup of |F|^p / bound over the grid's nodes and the node attaining it
    (p = 1 for bounds on the modulus, 2 otherwise)."""
    best, arg = -math.inf, None
    for block in _coordinate_blocks(grid):
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(handle.eval_grid(*block)))
        log_ratio = (log_abs if bound.on_modulus else 2.0 * log_abs) - bound.log_eval(*block)
        # argmax lands on the first NaN if there is one
        i = np.unravel_index(int(np.argmax(log_ratio)), log_ratio.shape)
        if not log_ratio[i] < math.inf:
            raise HermiteOverflowError("envelope ratio is NaN or infinite at a grid node")
        if arg is None or log_ratio[i] > best:
            best = float(log_ratio[i])
            arg = tuple(float(np.broadcast_to(c, log_ratio.shape)[i]) for c in block)
    return (float(np.exp(best)) if best > -math.inf else 0.0), arg


def envelope(handle: EntireHandle, bound: BoundSpec, grid: PlaneGrid) -> EnvelopeReport:
    """Sup over the grid of |F|^2 / bound (or |F| / bound for bounds stated
    on the modulus), with the argmax and a refinement-stability flag.

    The sup is recomputed at doubled resolution; ``stable`` records whether
    it moved by less than 5% relatively.  Grids over one complex coordinate
    and over two (with ``handle.eval_grid(X, Y, U, V)``) scan alike.
    """
    sup_coarse, _ = _sup_ratio_on(handle, bound, grid)
    sup_fine, argmax = _sup_ratio_on(handle, bound, grid.refine(2))
    if sup_fine == 0.0:
        stable = sup_coarse == 0.0
    else:
        stable = abs(sup_fine - sup_coarse) / sup_fine < _STABILITY
    return EnvelopeReport(sup_fine, argmax, bound, grid, stable, sup_coarse)


def envelope_ratio(handle: EntireHandle, bound: BoundSpec, grid: PlaneGrid) -> EnvelopeReport:
    """The growth envelope of a heat-transform image; see :func:`envelope`."""
    return envelope(handle, bound, grid)


def schwartz_image_check(
    f: TestFunction,
    t: float,
    m_list: list[int],
    grid: PlaneGrid,
    dimension: int = 1,
    truncation: int = 48,
    rule: QuadRule | None = None,
) -> list[EnvelopeReport]:
    """Envelope reports for the rapid-decrease image bounds, one per order.

    For a test function of rapid decrease every report must come back
    finite and refinement-stable.
    """
    from .kernels import schwartz_image_bound

    handle = semigroup_handle(f, t, "spectral", dimension, truncation, rule)
    return [envelope_ratio(handle, schwartz_image_bound(t, m), grid) for m in m_list]
