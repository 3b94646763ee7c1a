"""Special Hermite functions, twisted convolution, and the twisted semigroup.

The special Hermite functions are defined from the Hermite basis by the
oscillatory integral

    Phi_{ab}(x, u) = (2 pi)^{-n/2} int e^{i x.xi}
                     Phi_a(xi + u/2) Phi_b(xi - u/2) dxi,

an orthonormal basis of L^2(C^n) and eigenfunctions of the twisted
Laplacian with eigenvalue 2|b| + n.  They are evaluated by the classical
Laguerre closed form of that integral (Thangavelu, Lectures on Hermite and
Laguerre Expansions, 1993, sec. 1.3; Folland, Harmonic Analysis in Phase
Space, 1989, ch. 1), per coordinate

    Phi_{ab}(x, u) = (2 pi)^{-1/2} i^d (k!/(k+d)!)^{1/2} (zeta/sqrt 2)^d
                     L_k^d((x^2 + u^2)/2) e^{-(x^2 + u^2)/4}

with d = |a - b|, k = min(a, b), and zeta = x - iu for a >= b, x + iu
otherwise.  Read with the bilinear square x^2 + u^2, the formula is the
entire extension to complex (z, w) in C^{2n}.  The defining integral
survives only as a test oracle.

Twisted convolution

    (f x g)(x, u) = int f(x', u') g(x - x', u - u')
                    e^{-i (x' u - x u')/2} dx' du'

diagonalizes on Laguerre functions: (2 pi)^{-n} f x phi_k projects onto the
k-th eigenspace, and the twisted heat semigroup is the damped sum of those
projections.  Its convolution kernel here is the spectrally normalized
profile (2 pi)^{-n} (2 sinh t)^{-n} exp(-coth(t) q / 4) (q the bilinear
square).  The variant normalized as (2 pi sinh t)^{-n}, exposed by
:func:`mehler.kernels.special_heat_kernel`, is 2^n times this one; it is
what the weight on C^{2n} is built from, and the weight calibration
constant kappa* absorbs exactly that factor (kappa* ~ 2^{-n}).

Intertwining relations: with a = coth(t)/2 and b = i/2, the validated
first-order relations are

    e^{-tL}[(d/dx - a x) f] = (-a z + b w) e^{-tL} f
    e^{-tL}[(d/du - a u) f] = -(b z + a w) e^{-tL} f

(the u-direction multiplier differs in sign from the x-direction one; this
is forced by the phase convention of the twisted convolution).  The check
runs both relations under both signs of a and records which sign passes.

Weighted norms on C^2 (n = 1) integrate against the 2m-th time derivative
of the weight W_t(x, y, u, v) = 4 e^{yu - xv} S(y^2 + v^2), with S the
(2 pi sinh 2t)^{-1}-normalized profile of
:func:`mehler.kernels.twisted_weight_profile`.  The weight factors over
coordinate pairs: the 4-D quadrature weight is the product of a (y, u), an
(x, v) and a (y, v) table, so the time-derivative jet of S runs on the
(y, v) table alone.  The sums run over blocks of whole z-plane rows
against the whole w-plane, each holding at most 2^18 entries, so memory
stays bounded at any resolution.

Twisted heat images are :class:`mehler.spectral.EntireHandle` objects on
C^2, evaluated by ``eval_grid(X, Y, U, V)`` on broadcastable real arrays;
``special_envelope`` hands one and its bound to
:func:`mehler.semigroup.envelope`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indices import MultiIndex, as_index, multi_indices, oscillator_eigenvalue
from .kernels import special_plain_bound, special_schwartz_bound, twisted_weight_profile
from .quadrature import PlaneGrid
from .semigroup import (
    CalibrationResult,
    EnvelopeReport,
    _plane_nodes,
    _z_row_slices,
    envelope,
)
from .specfun import laguerre_ladder
from .spectral import EntireHandle


# ---------------------------------------------------------------------------
# Phase-space test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialHermiteBasis:
    """The basis member Phi_{alpha beta}."""

    alpha: MultiIndex
    beta: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_index(self.alpha))
        object.__setattr__(self, "beta", as_index(self.beta))
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have the same dimension")

    @property
    def dimension(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class Gaussian2n:
    """exp(-a (x^2 + u^2)/2) on R^{2n}; entire in the obvious way."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("Gaussian width parameter must be positive")


@dataclass(frozen=True)
class PolyGaussian2n:
    """sum c_{jk} x^j u^k exp(-a (x^2+u^2)/2) on R^2 (one complex variable).

    ``terms`` maps (j, k) powers to complex coefficients.  Closed under the
    first-order intertwining operators, which is its purpose.
    """

    terms: tuple[tuple[tuple[int, int], complex], ...]
    a: float = 0.5

    def __post_init__(self):
        terms = tuple(
            ((int(j), int(k)), complex(c)) for (j, k), c in dict(self.terms).items()
        )
        object.__setattr__(self, "terms", terms)
        if self.a <= 0:
            raise ValueError("PolyGaussian2n width parameter must be positive")


@dataclass(frozen=True)
class SampledGrid:
    """Samples on a tensor grid in R^2 with bilinear interpolation.

    Real-argument evaluation only; complexified operations refuse it.
    """

    xs: tuple[float, ...]
    us: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]


TwistedFunction = SpecialHermiteBasis | Gaussian2n | PolyGaussian2n | SampledGrid


# ---------------------------------------------------------------------------
# Special Hermite evaluation
# ---------------------------------------------------------------------------


def _phi1(a: int, b: int, z, w):
    """One-dimensional Phi_{ab}(z, w) by the Laguerre closed form,
    broadcast over arrays z, w."""
    z = np.asarray(z)
    w = np.asarray(w)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
        raise ValueError("argument must be finite")
    d, k = abs(a - b), min(a, b)
    coef = 1j**d * math.sqrt(
        math.factorial(k) / math.factorial(k + d) / (2.0**d * 2.0 * math.pi)
    )
    # the Gaussian and the constant per coordinate, before broadcasting: one
    # exp per value of z and of w, not per (z, w) pair
    z2, w2 = z * z, w * w
    val = (coef * np.exp(-0.25 * z2)) * np.exp(-0.25 * w2)
    if d:
        zeta = z - 1j * w if a >= b else z + 1j * w
        for _ in range(d):
            val *= zeta
    if k:
        val *= laguerre_ladder(k, d, 0.5 * (z2 + w2))[k]
    return val


def special_hermite_eval(alpha, beta, z, w):
    """Phi_{alpha beta} at (z, w) in C^{2n}; coordinates broadcast.

    For n > 1 the defining integral factorizes, so the value is the product
    of one-dimensional factors.
    """
    alpha = as_index(alpha)
    beta = as_index(beta)
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same dimension")
    n = len(alpha)
    if n == 1:
        return _phi1(alpha[0], beta[0], z, w)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape[-1] != n or w.shape[-1] != n:
        raise ValueError(f"expected trailing coordinate axis of length {n}")
    val = 1.0
    for j in range(n):
        val = val * _phi1(alpha[j], beta[j], z[..., j], w[..., j])
    return val


def special_hermite_matrix(a: int, b: int, Z, W):
    """Phi_{ab} on the product of a flat Z-plane array and a flat W-plane
    array, returned as a (len(Z), len(W)) matrix."""
    Z = np.asarray(Z, dtype=complex).ravel()
    W = np.asarray(W, dtype=complex).ravel()
    return _phi1(a, b, Z[:, None], W[None, :])


# ---------------------------------------------------------------------------
# Closed-form twisted profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatProfile:
    """Spectrally normalized twisted heat kernel profile.

    (2 pi)^{-n} (2 sinh t)^{-n} exp(-coth(t) (z^2 + w^2)/4); this is the
    profile whose twisted convolution reproduces the damped eigenspace sum.
    """

    t: float
    dimension: int = 1

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")

    def __call__(self, z, w):
        q = np.asarray(z) ** 2 + np.asarray(w) ** 2
        pref = ((2.0 * math.pi) * (2.0 * math.sinh(self.t))) ** (-self.dimension)
        return pref * np.exp(-0.25 / math.tanh(self.t) * q)


@dataclass(frozen=True)
class LaguerreProfile:
    """phi_k as an entire function of (z, w) through the bilinear square."""

    k: int
    dimension: int = 1

    def __call__(self, z, w):
        q = np.asarray(z) ** 2 + np.asarray(w) ** 2
        lad = laguerre_ladder(self.k, self.dimension - 1, q / 2.0)
        return lad[self.k] * np.exp(-q / 4.0)


def heat_profile(t: float, dimension: int = 1) -> HeatProfile:
    return HeatProfile(t, dimension)


def laguerre_profile(k: int, dimension: int = 1) -> LaguerreProfile:
    return LaguerreProfile(k, dimension)


@dataclass(frozen=True)
class GaussianImage:
    """Closed form of the twisted heat image of Gaussian2n(a) (n = 1).

    Obtained by completing the square in the defining convolution integral;
    used as an independent oracle for the quadrature routes.
    """

    a: float
    t: float

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        g = 0.25 / math.tanh(self.t)
        pref = (2.0 * math.pi) ** -1 * (2.0 * math.sinh(self.t)) ** -1
        kap = 0.5 * self.a + g
        ex = np.exp(-g * (z**2 + w**2))
        ix = np.exp((2 * g * z - 0.5j * w) ** 2 / (4 * kap))
        iu = np.exp((2 * g * w + 0.5j * z) ** 2 / (4 * kap))
        return pref * (math.pi / kap) * ex * ix * iu


# ---------------------------------------------------------------------------
# Pointwise evaluation of twisted functions
# ---------------------------------------------------------------------------


def twisted_eval(f, X, U):
    """Values of f at real phase-space points (vectorized)."""
    X = np.asarray(X)
    U = np.asarray(U)
    if isinstance(f, SpecialHermiteBasis):
        if f.dimension != 1:
            raise ValueError("vectorized evaluation is one-dimensional")
        return special_hermite_eval(f.alpha, f.beta, X, U)
    if isinstance(f, Gaussian2n):
        return np.exp(-0.5 * f.a * (X**2 + U**2))
    if isinstance(f, PolyGaussian2n):
        acc = np.zeros(np.broadcast(X, U).shape, dtype=complex)
        for (j, k), c in f.terms:
            acc += c * X**j * U**k
        return acc * np.exp(-0.5 * f.a * (X**2 + U**2))
    if isinstance(f, SampledGrid):
        return _sampled_eval(f, X, U)
    if callable(f):
        return f(X, U)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def twisted_eval_entire(g, Z, W):
    """Values of g at complexified phase-space points; refuses members
    without an entire form."""
    if isinstance(g, SampledGrid):
        raise ValueError("sampled data has no entire continuation")
    if isinstance(g, (Gaussian2n, PolyGaussian2n, SpecialHermiteBasis)):
        return twisted_eval(g, np.asarray(Z, dtype=complex), np.asarray(W, dtype=complex))
    if callable(g):
        return g(np.asarray(Z, dtype=complex), np.asarray(W, dtype=complex))
    raise TypeError(f"cannot evaluate {type(g).__name__}")


def _sampled_eval(f: SampledGrid, X, U):
    xs = np.asarray(f.xs)
    us = np.asarray(f.us)
    vals = np.asarray(f.values)
    X = np.clip(np.asarray(X, dtype=float), xs[0], xs[-1])
    U = np.clip(np.asarray(U, dtype=float), us[0], us[-1])
    i = np.clip(np.searchsorted(xs, X) - 1, 0, len(xs) - 2)
    j = np.clip(np.searchsorted(us, U) - 1, 0, len(us) - 2)
    tx = (X - xs[i]) / (xs[i + 1] - xs[i])
    tu = (U - us[j]) / (us[j + 1] - us[j])
    return (
        vals[i, j] * (1 - tx) * (1 - tu)
        + vals[i + 1, j] * tx * (1 - tu)
        + vals[i, j + 1] * (1 - tx) * tu
        + vals[i + 1, j + 1] * tx * tu
    )


# ---------------------------------------------------------------------------
# Twisted convolution and the twisted semigroup
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def default_twisted_grid(t: float = 0.4, resolution: int = 96) -> PlaneGrid:
    """Integration grid for twisted convolutions at desk scale.

    Memoized: value-equal calls share one grid and so one node build.
    """
    h = math.sqrt(34.5 / (0.25 + 0.25 / math.tanh(t))) + 3.0
    return PlaneGrid(boxes=((-h, h, -h, h),), resolution=resolution)


def twisted_conv(f, g, z, w, grid: PlaneGrid) -> complex:
    """(f x g)(z, w) for a real or complexified phase-space point.

    The integration runs over the real plane grid; for complex (z, w) the
    displaced factor g and the phase use the entire continuation, so g must
    have one (closed forms and basis members do; sampled data does not).
    """
    X, U, Wt = grid.nodes()
    fv = twisted_eval(f, X, U)
    gv = twisted_eval_entire(g, z - X, w - U)
    phase = np.exp(-0.5j * (X * w - z * U))
    return complex(np.sum(Wt * fv * gv * phase))


def special_semigroup_apply(
    f,
    t: float,
    z,
    w,
    mode: str = "kernel",
    grid: PlaneGrid | None = None,
    truncation: int = 24,
) -> complex:
    """Twisted heat semigroup applied to f, evaluated at (z, w) in C^2.

    Kernel mode convolves with the spectrally normalized heat profile;
    spectral mode sums the damped Laguerre projections up to ``truncation``.
    Both agree, and on basis members reproduce the eigenvalue damping
    e^{-(2|beta|+n) t}.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    grid = grid or default_twisted_grid(t)
    if mode == "kernel":
        return twisted_conv(f, heat_profile(t), z, w, grid)
    if mode != "spectral":
        raise ValueError(f"unknown mode {mode!r}")
    X, U, Wt = grid.nodes()
    fv = twisted_eval(f, X, U)
    phase = np.exp(-0.5j * (X * w - z * U))
    base = Wt * fv * phase
    q = (z - X) ** 2 + (w - U) ** 2
    lad = laguerre_ladder(truncation, 0, q / 2.0)
    damp = np.exp(-q / 4.0)
    total = 0j
    for k in range(truncation + 1):
        term = np.sum(base * lad[k] * damp)
        total += math.exp(-(2 * k + 1) * t) * term
    return complex(total / (2.0 * math.pi))


def laguerre_project(f, k: int, z, w, grid: PlaneGrid) -> complex:
    """Eigenspace projection (2 pi)^{-n} (f x phi_k) at a real point."""
    if k < 0:
        raise ValueError("k must be >= 0")
    val = twisted_conv(f, laguerre_profile(k), z, w, grid)
    return val / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Expansions over the special Hermite basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialExpansion:
    """Coefficients d_{ab} over pairs |alpha|, |beta| <= truncation."""

    dimension: int
    truncation: int
    pairs: tuple[tuple[MultiIndex, MultiIndex], ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if len(self.pairs) != len(vals):
            raise ValueError("pairs/values length mismatch")
        object.__setattr__(self, "values", vals)

    @classmethod
    def pair_list(cls, dimension: int, truncation: int):
        idx = multi_indices(dimension, truncation)
        return tuple((a, b) for a in idx for b in idx)

    def coefficient(self, alpha, beta) -> complex:
        key = (as_index(alpha), as_index(beta))
        try:
            return complex(self.values[self.pairs.index(key)])
        except ValueError:
            return 0j


def special_expand(f, truncation: int, grid: PlaneGrid) -> SpecialExpansion:
    """d_{ab} = (f, Phi_ab)_{L^2(C)} by plane quadrature (n = 1)."""
    pairs = SpecialExpansion.pair_list(1, truncation)
    X, U, Wt = grid.nodes()
    fv = twisted_eval(f, X, U)
    vals = []
    for a, b in pairs:
        basis = special_hermite_eval(a, b, X, U)
        vals.append(np.sum(Wt * fv * np.conj(basis)))
    return SpecialExpansion(1, truncation, pairs, np.asarray(vals))


def laguerre_sobolev_norm(e: SpecialExpansion, m: int) -> float:
    """sqrt( sum (2|beta|+n)^{2m} |d_{ab}|^2 )."""
    lam = np.array(
        [oscillator_eigenvalue(b, e.dimension) for _, b in e.pairs], dtype=float
    )
    return float(np.sqrt(np.sum(lam ** (2 * m) * np.abs(e.values) ** 2)))


# ---------------------------------------------------------------------------
# Intertwining relations
# ---------------------------------------------------------------------------


def _as_polygauss(f) -> PolyGaussian2n | None:
    if isinstance(f, PolyGaussian2n):
        return f
    if isinstance(f, Gaussian2n):
        return PolyGaussian2n((((0, 0), 1.0),), f.a)
    if isinstance(f, SpecialHermiteBasis) and f.alpha == (0,) and f.beta == (0,):
        return PolyGaussian2n((((0, 0), (2.0 * math.pi) ** -0.5),), 0.5)
    return None


def _pg_combine(terms: dict, key, coeff):
    if coeff != 0:
        terms[key] = terms.get(key, 0j) + coeff


def pg_dx(f: PolyGaussian2n) -> PolyGaussian2n:
    """d/dx of a polynomial Gaussian, exactly."""
    out: dict = {}
    for (j, k), c in f.terms:
        if j > 0:
            _pg_combine(out, (j - 1, k), j * c)
        _pg_combine(out, (j + 1, k), -f.a * c)
    return PolyGaussian2n(tuple(out.items()), f.a)


def pg_du(f: PolyGaussian2n) -> PolyGaussian2n:
    out: dict = {}
    for (j, k), c in f.terms:
        if k > 0:
            _pg_combine(out, (j, k - 1), k * c)
        _pg_combine(out, (j, k + 1), -f.a * c)
    return PolyGaussian2n(tuple(out.items()), f.a)


def pg_mul_x(f: PolyGaussian2n) -> PolyGaussian2n:
    return PolyGaussian2n(tuple(((j + 1, k), c) for (j, k), c in f.terms), f.a)


def pg_mul_u(f: PolyGaussian2n) -> PolyGaussian2n:
    return PolyGaussian2n(tuple(((j, k + 1), c) for (j, k), c in f.terms), f.a)


def pg_scale(f: PolyGaussian2n, s: complex) -> PolyGaussian2n:
    return PolyGaussian2n(tuple(((j, k), s * c) for (j, k), c in f.terms), f.a)


def pg_add(f: PolyGaussian2n, g: PolyGaussian2n) -> PolyGaussian2n:
    if f.a != g.a:
        raise ValueError("mismatched Gaussian rates")
    out: dict = {}
    for (j, k), c in f.terms:
        _pg_combine(out, (j, k), c)
    for (j, k), c in g.terms:
        _pg_combine(out, (j, k), c)
    return PolyGaussian2n(tuple(out.items()), f.a)


@dataclass(frozen=True)
class _FiniteDiffFunction:
    """4th-order central difference of a twisted function (step 1e-3)."""

    f: object
    which: str  # "x" or "u"
    step: float = 1e-3

    def __call__(self, X, U):
        h = self.step
        if self.which == "x":
            shifts = [(2 * h, 0), (h, 0), (-h, 0), (-2 * h, 0)]
        else:
            shifts = [(0, 2 * h), (0, h), (0, -h), (0, -2 * h)]
        c = [-1.0, 8.0, -8.0, 1.0]
        acc = 0.0
        for (dx, du), cc in zip(shifts, c):
            acc = acc + cc * twisted_eval(self.f, X + dx, U + du)
        return acc / (12 * h)


def _derivative_op(f, which: str, a_coef: float):
    """(d/dx - a x) f or (d/du - a u) f, analytic when f is closed form."""
    pg = _as_polygauss(f)
    if pg is not None:
        d = pg_dx(pg) if which == "x" else pg_du(pg)
        mul = pg_mul_x(pg) if which == "x" else pg_mul_u(pg)
        return pg_add(d, pg_scale(mul, -a_coef))
    base = _FiniteDiffFunction(f, which)
    if which == "x":
        return lambda X, U: base(X, U) - a_coef * X * twisted_eval(f, X, U)
    return lambda X, U: base(X, U) - a_coef * U * twisted_eval(f, X, U)


@dataclass(frozen=True)
class IntertwineReport:
    """Residuals of the first-order intertwining relations."""

    convention: int
    a_value: float
    residual_x: float
    residual_u: float
    points: tuple

    @property
    def residual(self) -> float:
        return max(self.residual_x, self.residual_u)

    def passes(self, tol: float = 1e-6) -> bool:
        return self.residual <= tol


_DEFAULT_POINTS = (
    (0.7 + 0.3j, -0.4 + 0.6j),
    (0.2 - 0.5j, 1.0 + 0.2j),
    (-1.1 + 0.4j, 0.3 - 0.7j),
    (0.5, -0.8),
    (1.2 + 0.1j, 0.9 + 0.5j),
)


def intertwine_check(
    f,
    t: float,
    convention: int = +1,
    grid: PlaneGrid | None = None,
    points=_DEFAULT_POINTS,
) -> IntertwineReport:
    """Residuals of both first-order relations under a sign convention.

    ``convention`` selects a = convention * coth(t)/2 (the two candidate
    conventions differ in this sign).  For each test point the relation
    residual |LHS - RHS| / (1 + |RHS|) is evaluated with the left side
    computed through the semigroup quadrature and the right side through
    the coordinate multipliers; the report keeps the max over points.
    """
    if convention not in (+1, -1):
        raise ValueError("convention must be +1 or -1")
    if t <= 0:
        raise ValueError("t must be positive")
    grid = grid or default_twisted_grid(t)
    a = convention * 0.5 / math.tanh(t)
    b = 0.5j

    fx = _derivative_op(f, "x", a)
    fu = _derivative_op(f, "u", a)

    res_x = 0.0
    res_u = 0.0
    for z, w in points:
        Ef = twisted_conv(f, heat_profile(t), z, w, grid)
        lhs_x = twisted_conv(fx, heat_profile(t), z, w, grid)
        rhs_x = (-a * z + b * w) * Ef
        res_x = max(res_x, abs(lhs_x - rhs_x) / (1.0 + abs(rhs_x)))
        lhs_u = twisted_conv(fu, heat_profile(t), z, w, grid)
        rhs_u = -(b * z + a * w) * Ef
        res_u = max(res_u, abs(lhs_u - rhs_u) / (1.0 + abs(rhs_u)))
    return IntertwineReport(
        convention=convention,
        a_value=a,
        residual_x=res_x,
        residual_u=res_u,
        points=tuple(points),
    )


def composed_intertwine_residual(
    f,
    t: float,
    grid: PlaneGrid | None = None,
    points=_DEFAULT_POINTS,
) -> float:
    """Residual of the composed relation e^{-tL}(T f) = z w e^{-tL} f.

    T is assembled from the validated first-order relations: with
    D_x = d/dx - a x, D_u = d/du - a u and d = a^2 + b^2, the operators
    Z = (-a D_x - b D_u)/d and W = (b D_x - a D_u)/d extract the z and w
    coordinate multipliers, and T = Z o W.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    grid = grid or default_twisted_grid(t)
    pg = _as_polygauss(f)
    if pg is None:
        raise ValueError("the composed check needs a closed-form test function")
    a = 0.5 / math.tanh(t)
    b = 0.5j
    det = a * a + b * b

    def op_zw(g: PolyGaussian2n, c_x: complex, c_u: complex) -> PolyGaussian2n:
        dx = pg_add(pg_dx(g), pg_scale(pg_mul_x(g), -a))
        du = pg_add(pg_du(g), pg_scale(pg_mul_u(g), -a))
        return pg_scale(pg_add(pg_scale(dx, c_x), pg_scale(du, c_u)), 1.0 / det)

    Wf = op_zw(pg, b, -a)
    Tf = op_zw(Wf, -a, -b)

    res = 0.0
    for z, w in points:
        Ef = twisted_conv(pg, heat_profile(t), z, w, grid)
        lhs = twisted_conv(Tf, heat_profile(t), z, w, grid)
        rhs = z * w * Ef
        res = max(res, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return res


# ---------------------------------------------------------------------------
# Weighted norms on C^{2n} and envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialEigenHandle(EntireHandle):
    """Twisted heat image of a basis member: e^{-(2|b|+n)t} Phi_ab."""

    alpha: MultiIndex
    beta: MultiIndex
    time: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_index(self.alpha))
        object.__setattr__(self, "beta", as_index(self.beta))
        if self.time <= 0:
            raise ValueError("time must be positive")

    def _damp(self) -> float:
        lam = oscillator_eigenvalue(self.beta)
        return math.exp(-lam * self.time)

    def eval_grid(self, X, Y, U, V) -> np.ndarray:
        Z = np.asarray(X) + 1j * np.asarray(Y)
        W = np.asarray(U) + 1j * np.asarray(V)
        return self._damp() * _phi1(self.alpha[0], self.beta[0], Z, W)


@dataclass(frozen=True)
class ClosedFormSpecialHandle(EntireHandle):
    """Wraps a vectorized closed form fn(Z, W) on C^2."""

    fn: object
    label: str = ""

    def eval_grid(self, X, Y, U, V) -> np.ndarray:
        return self.fn(np.asarray(X) + 1j * np.asarray(Y), np.asarray(U) + 1j * np.asarray(V))


def special_image_handle(f, t: float) -> EntireHandle:
    """Image of a twisted test function under the twisted heat semigroup,
    in a form evaluable on 4-dimensional grids."""
    if isinstance(f, SpecialHermiteBasis):
        return SpecialEigenHandle(f.alpha, f.beta, t)
    if isinstance(f, Gaussian2n):
        return ClosedFormSpecialHandle(GaussianImage(f.a, t), label="gaussian-image")
    raise ValueError(
        "4-D scans support basis members and Gaussians; other members are "
        "available pointwise through special_semigroup_apply"
    )


def default_special_grid(t: float = 0.4, resolution: int = 40, drop: float = 1e-12) -> PlaneGrid:
    """Grid over C^2 sized for |Phi_ab|^2 W_t integrands (n = 1).

    The weighted integrand decays like exp(-(u-y)^2/2 - (coth 2t - 1) y^2)
    in the (u, y) pair and symmetrically in (x, v), so the real-part boxes
    must be wider than the imaginary-part boxes by the shear.
    """
    budget = -math.log(drop)
    c = 1.0 / math.tanh(2 * t) - 1.0
    h_im = math.sqrt(budget / c) + 1.5
    h_re = math.sqrt(budget * (1 + 2 * c) / c) + 1.5
    box_z = (-h_re, h_re, -h_im, h_im)
    box_w = (-h_re, h_re, -h_im, h_im)
    return PlaneGrid(boxes=(box_z, box_w), resolution=resolution)


def _weight_blocks(grid: PlaneGrid, t: float, m: int):
    """(z-row slice, block) pairs covering the 4-D grid, dimension 1.

    A block holds the quadrature weight times d^{2m}/dt^{2m} W_t on the
    product of its z-rows with the w-plane, shaped (rows, len(w-plane)).
    W_t = 4 e^{yu - xv} S_m(y^2 + v^2) factors over coordinate pairs, so the
    block is a product of three per-axis tables and the jet S_m runs on the
    (y, v) table only.
    """
    (x, wx), (y, wy), (u, wu), (v, wv) = (grid.axis(k) for k in range(4))
    yu = 4.0 * np.exp(np.multiply.outer(y, u)) * np.multiply.outer(wy, wu)
    xv = np.exp(-np.multiply.outer(x, v)) * np.multiply.outer(wx, wv)
    s = twisted_weight_profile(t, m, np.add.outer(y**2, v**2))
    # S_m joins the (y, u) table before the (x, v) one, so no intermediate
    # grows past e^{yu - xv}
    yuv = yu[:, :, None] * s[:, None, :]
    n = grid.resolution
    for rows in _z_row_slices(grid):
        block = xv[rows.start // n : rows.stop // n, None, None, :] * yuv
        yield rows, block.reshape(rows.stop - rows.start, n * n)


def bergman_norm_special(
    handle: EntireHandle,
    t: float,
    m: int,
    grid: PlaneGrid,
    kappa_star: float = 1.0,
) -> float:
    """kappa* int |F|^2 d^{2m}/dt^{2m} W_t over C^2 (n = 1 only).

    The weight W_t(x, y, u, v) = 4 e^{yu - xv} S_m(y^2 + v^2) factors into
    per-axis tables over (y, u), (x, v) and (y, v); the jet for S_m runs on
    the (y, v) table alone.  The 4-dimensional quadrature is summed over
    blocks of whole z-plane rows, each at most 2^18 entries (one row at
    least), so memory stays bounded at any resolution.
    """
    if grid.ncoords != 2:
        raise ValueError("need a two-coordinate grid over C^2")
    if m < 0:
        raise ValueError("m must be >= 0")
    X, Y = _plane_nodes(grid, 0)
    U, V = _plane_nodes(grid, 1)
    total = 0.0
    for rows, block in _weight_blocks(grid, t, m):
        F = handle.eval_grid(X[rows, None], Y[rows, None], U[None, :], V[None, :])
        total += float(np.sum((F.real**2 + F.imag**2) * block))
    return kappa_star * total


def calibrate_weight_special(
    t: float, pairs: list[tuple] | None, grid: PlaneGrid
) -> CalibrationResult:
    """Calibration constant kappa* of the twisted Bergman weight (n = 1).

    Diagonal probes integrate |Phi_ab|^2 W_t; ratios
    e^{2(2|b|+n)t} / integral must be flat over (a, b); off-diagonals
    between the first pair and the next two must vanish.  kappa* comes out
    near 2^{-n}: the weight is built from the (2 pi sinh t)^{-n}-normalized
    profile, 2^n times the spectral one.  All probes share one sweep over
    the weight blocks.
    """
    if pairs is None:
        pairs = [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    if not pairs:
        raise ValueError("pairs must name at least one (alpha, beta) probe")
    pairs = [(as_index(a), as_index(b)) for a, b in pairs]

    (Xz, Yz), (Uw, Vw) = _plane_nodes(grid, 0), _plane_nodes(grid, 1)
    Zc, Wc = Xz + 1j * Yz, Uw + 1j * Vw
    raw = [0.0] * len(pairs)
    off = [0j] * len(pairs[1:3])
    for rows, block in _weight_blocks(grid, t, 0):
        for k, (a, b) in enumerate(pairs):
            F = special_hermite_matrix(a[0], b[0], Zc[rows], Wc)
            if k == 0:
                F0 = F
            raw[k] += float(np.sum((F.real**2 + F.imag**2) * block))
            if 0 < k < 3:
                off[k - 1] += complex(np.sum(F0 * np.conj(F) * block))

    ratios: dict = {}
    for (a, b), r in zip(pairs, raw):
        ratios[(a, b)] = math.exp(2 * oscillator_eigenvalue(b) * t) / r
    max_off = max((abs(c) for c in off), default=0.0)

    vals = np.array(list(ratios.values()))
    if vals.max() / vals.min() - 1.0 > 1e-2:
        raise RuntimeError("twisted calibration ratios vary beyond 1e-2")
    kappa = float(np.exp(np.mean(np.log(vals))))
    return CalibrationResult(
        kappa=kappa, ratios=ratios, max_offdiagonal=float(max_off), t=t, dimension=1
    )


def special_envelope(
    f,
    t: float,
    m: int,
    grid: PlaneGrid,
    kind: str = "special-schwartz",
) -> EnvelopeReport:
    """Sup of |e^{-tL}f|^2 / bound over a C^2 grid (n = 1).

    ``kind`` selects the full polynomial denominator ("special-schwartz")
    or the plain variant with the (1 + y^2 + v^2) denominator
    ("special-plain").  The scan is :func:`mehler.semigroup.envelope`.
    """
    if grid.ncoords != 2:
        raise ValueError("need a two-coordinate grid over C^2")
    if kind == "special-schwartz":
        bound = special_schwartz_bound(t, m)
    elif kind == "special-plain":
        bound = special_plain_bound(t, m)
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")
    if f is None:
        return EnvelopeReport(0.0, (0.0, 0.0, 0.0, 0.0), bound, grid, True, 0.0)
    return envelope(special_image_handle(f, t), bound, grid)
