"""Hermite expansions, Sobolev norms, entire evaluation.

A function or tempered distribution enters as a :data:`TestFunction`; its
spectral representation is a :class:`HermiteExpansion`, a finite coefficient
vector over multi-indices |alpha| <= N in graded lexicographic order.
Sobolev norms of any integer order (negative orders reach distributions)
are plain weighted l^2 norms of the coefficients over the oscillator
eigenvalues 2|alpha| + n.

The enumeration is fixed by (dimension, truncation), so one shared table
per pair holds the ``indices`` tuple and read-only degree and index arrays;
every expansion of that shape reads it.

Spectral data evaluates anywhere on C^n through the entire extension of
the basis, and both evaluators are views of the one rescaled Hermite
recurrence in :mod:`mehler.specfun`.  At a point, or at P points in one
call, :func:`eval_entire` takes one log-domain ladder over every
coordinate of every point, run only to the highest order that a nonzero
coefficient uses, gathers the terms of the nonzero coefficients at once
and reports the magnitude of the last coefficient shell as a truncation
indicator.  On a grid, ``SpectralHandle.eval_grid_parts``
sums the series by one Clenshaw sweep in split form P e^E (E = log h_0(z)),
so grid consumers can join the Gaussian with their own before
exponentiating.  A value whose modulus exceeds the largest double raises
:class:`~mehler.specfun.HermiteOverflowError`.

Every :class:`EntireHandle` implements one grid evaluator, ``eval_grid``
or ``eval_grid_parts``, and the base class derives the rest: the split
form multiplied out by :func:`~mehler.specfun.mul_exp_parts`, or the
values as a split form with exponent 0, and ``eval`` as ``eval_grid`` at
one point of C.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .indices import MultiIndex, as_index, as_point, multi_indices
from .quadrature import QuadRule, gauss_legendre_rule
from .specfun import (
    hermite_eval,
    hermite_log_ladder,
    hermite_series_parts,
    mul_exp,
    mul_exp_parts,
)

# ---------------------------------------------------------------------------
# Test functions (tagged union)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermiteBasis:
    """The basis function with multi-index ``alpha``."""

    alpha: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_index(self.alpha))


@dataclass(frozen=True)
class Gaussian:
    """exp(-a |x|^2 / 2), a > 0."""

    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("Gaussian width parameter must be positive")


@dataclass(frozen=True)
class PolyGaussian:
    """p(x_1) * exp(-a |x|^2 / 2) with p given by ``coeffs`` (low order first).

    The polynomial acts on the first coordinate; that is all the desk-scale
    checks need.
    """

    coeffs: tuple[float, ...]
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.a <= 0:
            raise ValueError("PolyGaussian width parameter must be positive")


@dataclass(frozen=True)
class Dirac:
    """Point mass at ``point`` in R^n; coefficients are basis values there."""

    point: tuple[float, ...]

    def __post_init__(self):
        p = self.point
        if isinstance(p, (int, float)):
            p = (float(p),)
        object.__setattr__(self, "point", tuple(float(v) for v in p))


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported bump, support |x| <= radius,
    exp(1 - 1/(1 - |x|^2/R^2)) inside, normalized to 1 at the origin."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("Bump radius must be positive")


@dataclass(frozen=True)
class CoefficientList:
    """Explicit spectral data: coefficients over |alpha| <= truncation.

    Each multi-index comes once, of length ``dimension`` and degree at most
    ``truncation``; any other entry raises ``ValueError`` naming it.
    """

    dimension: int
    truncation: int
    entries: tuple[tuple[MultiIndex, complex], ...]

    def __post_init__(self):
        entries = tuple((as_index(a), complex(c)) for a, c in self.entries)
        seen = set()
        for alpha, _ in entries:
            if len(alpha) != self.dimension:
                problem = f"is not of dimension {self.dimension}"
            elif sum(alpha) > self.truncation:
                problem = f"exceeds the truncation {self.truncation}"
            elif alpha in seen:
                problem = "is repeated"
            else:
                seen.add(alpha)
                continue
            raise ValueError(f"coefficient index {alpha} {problem}")
        object.__setattr__(self, "entries", entries)


TestFunction = HermiteBasis | Gaussian | PolyGaussian | Dirac | Bump | CoefficientList


def eval_test_function(f: TestFunction, *coords) -> np.ndarray:
    """Pointwise values on R^n; coords are per-coordinate arrays.

    Dirac and CoefficientList have no pointwise values and raise.
    """
    coords = [np.asarray(c) for c in coords]
    if isinstance(f, HermiteBasis):
        if len(coords) != len(f.alpha):
            raise ValueError("dimension mismatch")
        val = np.ones_like(coords[0], dtype=float)
        for a_j, x_j in zip(f.alpha, coords):
            val = val * hermite_eval(a_j, x_j)[a_j]
        return val
    if isinstance(f, Gaussian):
        r2 = sum(c**2 for c in coords)
        return np.exp(-0.5 * f.a * r2)
    if isinstance(f, PolyGaussian):
        r2 = sum(c**2 for c in coords)
        p = np.zeros_like(coords[0], dtype=complex if np.iscomplexobj(coords[0]) else float)
        for j in reversed(range(len(f.coeffs))):
            p = p * coords[0] + f.coeffs[j]
        return p * np.exp(-0.5 * f.a * r2)
    if isinstance(f, Bump):
        r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords) / f.radius**2
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out
    raise TypeError(f"{type(f).__name__} has no pointwise values")


def gaussian_decay_rate(f: TestFunction) -> float | None:
    """Coefficient gamma with |f(x)| <~ poly * exp(-gamma |x|^2), or None
    when f is a point mass / compactly supported / purely spectral."""
    if isinstance(f, HermiteBasis):
        return 0.5
    if isinstance(f, (Gaussian, PolyGaussian)):
        return 0.5 * f.a
    return None


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------


class _IndexTable(NamedTuple):
    """The canonical enumeration of one (dimension, truncation) pair."""

    indices: tuple[MultiIndex, ...]
    degrees: np.ndarray  # |alpha| per entry, read-only
    alphas: np.ndarray  # (entries, dimension) int array, read-only


@lru_cache(maxsize=32)
def _index_table(dimension: int, truncation: int) -> _IndexTable:
    """Built once per (dimension, truncation) and shared by every expansion
    of that shape, so its arrays are read-only."""
    indices = tuple(multi_indices(dimension, truncation))
    alphas = np.array(indices, dtype=int).reshape(len(indices), dimension)
    degrees = alphas.sum(axis=1)
    alphas.flags.writeable = False
    degrees.flags.writeable = False
    return _IndexTable(indices, degrees, alphas)


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated coefficient vector over |alpha| <= truncation.

    ``indices`` is the full graded-lexicographic enumeration, the one tuple
    shared by every expansion of the same dimension and truncation (any
    other order is a ValueError), and ``values`` the aligned complex
    coefficient array.
    """

    dimension: int
    truncation: int
    indices: tuple[MultiIndex, ...]
    values: np.ndarray

    def __post_init__(self):
        table = _index_table(self.dimension, self.truncation)
        if self.indices is not table.indices:
            if tuple(self.indices) != table.indices:
                raise ValueError(
                    "indices must be the graded-lexicographic enumeration "
                    f"of |alpha| <= {self.truncation} in dimension {self.dimension}"
                )
            object.__setattr__(self, "indices", table.indices)
        vals = np.asarray(self.values, dtype=complex)
        if len(self.indices) != len(vals):
            raise ValueError("indices/values length mismatch")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, dimension: int, truncation: int) -> "HermiteExpansion":
        idx = _index_table(dimension, truncation).indices
        return cls(dimension, truncation, idx, np.zeros(len(idx), complex))

    def degrees(self) -> np.ndarray:
        """|alpha| per entry: the shared table's read-only array."""
        return _index_table(self.dimension, self.truncation).degrees

    def eigenvalues(self) -> np.ndarray:
        return 2.0 * self.degrees() + self.dimension

    def coefficient(self, alpha) -> complex:
        alpha = as_index(alpha)
        try:
            pos = self.indices.index(alpha)
        except ValueError:
            return 0.0 + 0.0j
        return complex(self.values[pos])

    def with_values(self, values: np.ndarray) -> "HermiteExpansion":
        return HermiteExpansion(self.dimension, self.truncation, self.indices, values)


def expand(
    f: TestFunction,
    truncation: int,
    rule: QuadRule | None = None,
    dimension: int = 1,
) -> HermiteExpansion:
    """Hermite coefficients c_alpha = (f, Phi_alpha) up to |alpha| <= truncation.

    Basis members and point masses are exact (no quadrature).  Gaussian-type
    members use the supplied Gauss-Hermite rule, which must satisfy
    order >= truncation + 1; bumps use Gauss-Legendre on their support.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    out = HermiteExpansion.zeros(dimension, truncation)

    if isinstance(f, HermiteBasis):
        if len(f.alpha) != dimension:
            raise ValueError("dimension mismatch")
        if sum(f.alpha) > truncation:
            raise ValueError("basis degree exceeds the requested truncation")
        vals = out.values.copy()
        vals[out.indices.index(f.alpha)] = 1.0
        return out.with_values(vals)

    if isinstance(f, Dirac):
        if len(f.point) != dimension:
            raise ValueError("dimension mismatch")
        # row alpha_j of coordinate j's ladder, for every alpha at once
        alphas = _index_table(dimension, truncation).alphas
        factors = [
            hermite_eval(truncation, np.asarray(p))[alphas[:, j]]
            for j, p in enumerate(f.point)
        ]
        return out.with_values(np.prod(factors, axis=0))

    if isinstance(f, CoefficientList):
        if f.dimension != dimension:
            raise ValueError("dimension mismatch")
        vals = out.values.copy()
        lookup = {a: i for i, a in enumerate(out.indices)}
        for alpha, c in f.entries:
            if sum(alpha) <= truncation:
                vals[lookup[alpha]] = c
            elif c:
                raise ValueError(
                    f"coefficient index {alpha} exceeds the requested truncation {truncation}"
                )
        return out.with_values(vals)

    if isinstance(f, Bump):
        leg = gauss_legendre_rule(
            max(64, 2 * truncation), -f.radius, f.radius
        )
        nodes, w = leg.nodes, leg.weights
    else:
        if rule is None:
            raise ValueError("a Gauss-Hermite rule is required for this member")
        if rule.order < truncation + 1:
            raise ValueError(
                f"rule order {rule.order} too coarse for truncation {truncation}"
            )
        nodes, w = rule.nodes, rule.plain_weights

    if dimension == 1:
        ladder = hermite_eval(truncation, nodes)
        samples = eval_test_function(f, nodes)
        vals = ladder @ (w * samples)
    elif dimension == 2:
        ladder = hermite_eval(truncation, nodes)
        X = nodes[:, None] + 0.0 * nodes[None, :]
        Y = 0.0 * nodes[:, None] + nodes[None, :]
        samples = eval_test_function(f, X.ravel(), Y.ravel()).reshape(
            len(nodes), len(nodes)
        )
        weighted = (w[:, None] * w[None, :]) * samples
        # every (j, k) coefficient sum_il h_j(x_i) W_il h_k(x_l) at once,
        # gathered at the enumeration's multi-indices
        alphas = _index_table(dimension, truncation).alphas
        vals = (ladder @ weighted @ ladder.T)[alphas[:, 0], alphas[:, 1]]
    else:
        raise ValueError("expand supports dimension 1 or 2 at desk scale")
    return out.with_values(np.asarray(vals, dtype=complex))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def sobolev_norm(e: HermiteExpansion, m: int) -> float:
    """Oscillator Sobolev norm sqrt(sum (2|alpha|+n)^{2m} |c_alpha|^2).

    Negative m is allowed (the eigenvalues are bounded below by n > 0) and
    reaches the distribution scales.
    """
    lam = e.eigenvalues()
    return float(np.sqrt(np.sum(lam ** (2 * m) * np.abs(e.values) ** 2)))


# ---------------------------------------------------------------------------
# Entire evaluation
# ---------------------------------------------------------------------------


def eval_entire(
    e: HermiteExpansion, t: float, z, with_tail: bool = False
):
    """Value of the heat transform sum_alpha c_alpha e^{-(2|alpha|+n)t} Phi_alpha(z).

    ``z`` is one point of C^n (a scalar for n = 1, or a sequence of length
    n), giving a complex, or P points shaped (P, n), giving an array of P
    values.  Terms are assembled from log-domain basis values, so nothing
    overflows at desk scale; a result that does not fit a double raises
    :class:`~mehler.specfun.HermiteOverflowError`.  Only the nonzero
    coefficients enter, and the ladder runs to the highest order they use
    on any coordinate, so a sparse expansion costs what its terms cost, not
    what its truncation does.  All points share one ladder call, which
    rescales each point on its own, and each point's terms are joined along
    a row of their own, so every value is bit for bit the one a call at
    that point alone gives.  With ``with_tail=True`` also returns the
    summed magnitude of the last coefficient shell relative to the result,
    a truncation indicator (values above ~1e-6 mean the truncation is doing
    visible damage), as a float or an array of P floats.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    zs = np.asarray(z, dtype=complex)
    single = zs.ndim < 2
    if single:
        zs = as_point(zs, dimension=e.dimension)[None, :]
    elif zs.ndim != 2 or zs.shape[1] != e.dimension:
        raise ValueError(f"points must be shaped (P, {e.dimension}), got {zs.shape}")
    elif not np.all(np.isfinite(zs)):
        raise ValueError("point coordinates must be finite")
    table = _index_table(e.dimension, e.truncation)
    live = np.flatnonzero(e.values)
    total = np.zeros(len(zs), dtype=complex)
    tail = np.zeros(len(zs))
    if live.size:
        alphas, degrees = table.alphas[live], table.degrees[live]
        # one ladder over the flat (coordinate, point) list: numpy's
        # per-step overhead is least on a 1-D array
        log_mod, arg = hermite_log_ladder(int(alphas.max()), zs.T.ravel())
        # row alpha_j of coordinate j's ladder, for every live alpha and
        # every point at once: (P, live) tables, one row per point
        cols = np.arange(e.dimension)[:, None, None] * len(zs) + np.arange(len(zs))[:, None]
        idx = alphas.T[:, None, :], cols
        logmag = log_mod[idx].sum(axis=0) - (2.0 * degrees + e.dimension) * t
        weights = e.values[live] * np.exp(1j * arg[idx].sum(axis=0))
        # every finite log-modulus of a double exceeds -1e300, so a point
        # where every contributing basis value vanishes takes that peak and
        # sums exact zeros to 0, with a tail of 0
        peak = np.max(logmag, axis=1, initial=-1e300)
        terms = weights * np.exp(logmag - peak[:, None])
        scaled = np.sum(terms, axis=1)
        total = mul_exp(scaled, peak)
        if with_tail:
            # both sides carry the factor exp(peak), which may itself
            # overflow.  The selection comes out column-major; summed along
            # contiguous rows, each row is summed as a 1-D array is, and
            # |scaled| is the scalar modulus (libm hypot), which numpy's
            # array modulus can miss by an ulp
            shell = np.ascontiguousarray(terms[:, degrees == e.truncation])
            size = np.array([abs(s) for s in scaled.tolist()])
            tail = np.sum(np.abs(shell), axis=1) / np.maximum(size, np.finfo(float).tiny)
    if single:
        total, tail = complex(total[0]), float(tail[0])
    return (total, tail) if with_tail else total


# ---------------------------------------------------------------------------
# Entire handles
# ---------------------------------------------------------------------------


class EntireHandle:
    """An evaluable entire function on C^n (n = dimension); ``eval_grid``
    takes broadcastable real coordinates, (X, Y) for z = x + iy and
    (X, Y, U, V) for (x + iy, u + iv) on C^2.

    A subclass implements exactly one grid evaluator, ``eval_grid`` or
    ``eval_grid_parts``; each default is written in terms of the other, so
    one that implements neither recurses.

    ``real_on_real_axis`` is True for a function on C that is real on R, so
    F(conj z) = conj F(z) (Schwarz reflection) and |F| is even in y: the
    heat images of real data (a spectral image with real coefficients, the
    point-mass slice K_t(., x0), a kernel-mode image with real samples).
    The weighted sums and envelope scans on C then run on the y <= 0 half
    of a grid that is symmetric in y (:meth:`~mehler.quadrature.PlaneGrid.y_axis`),
    and a value at y > 0 is the conjugate of its mirror's.  It is derived
    from the handle's data, and False by default (closed forms, windowed
    transforms, and handles on C^2, which fold by the attribute below),
    where every node is evaluated.

    ``reflection_invariant`` is True for a function on C^2 whose modulus is
    invariant under the two reflections rho_1: (x, v) -> (-x, -v) and
    rho_2: (y, u) -> (-y, -u) of its real coordinates (x, y, u, v), as that
    of every special Hermite function Phi_ab and of a Gaussian's twisted heat
    image is.  The envelope scan on C^2 then walks the x <= 0, y <= 0
    quarter of a grid whose axes are symmetric about 0.  It is a property
    of the function that a handle class states, and False by default
    (closed forms, every handle on C), where every node is evaluated.
    """

    dimension: int = 1
    real_on_real_axis: bool = False
    reflection_invariant: bool = False

    def eval(self, z) -> complex:
        """The value at one point z of C: ``eval_grid`` there."""
        (z,) = as_point(z, dimension=1)
        return complex(self.eval_grid(z.real, z.imag))

    def eval_grid(self, X: np.ndarray, Y: np.ndarray, *UV: np.ndarray) -> np.ndarray:
        """Vectorized values at the points of broadcastable real arrays:
        ``eval_grid_parts`` multiplied out by
        :func:`~mehler.specfun.mul_exp_parts`."""
        return mul_exp_parts(*self.eval_grid_parts(X, Y, *UV))

    def eval_grid_parts(self, *coords: np.ndarray):
        """(P, E) with F = P e^E at the points of ``eval_grid``'s arrays.

        P has the broadcast shape of the coordinates, or any shape that
        broadcasts to it.  E is an array that broadcasts against P, or, for
        a handle on C^2, a pair of such arrays whose sum is the exponent,
        each on the axes of one complex coordinate, so the exponent is never
        formed on the whole mesh.  Handles whose values carry a Gaussian
        factor return it as the exponent E, so that grid consumers can join
        it with their own Gaussians before exponentiating; the default is
        ``(self.eval_grid(*coords), 0.0)``.
        """
        return self.eval_grid(*coords), 0.0


@dataclass(frozen=True)
class SpectralHandle(EntireHandle):
    """Heat-transform image of spectral data: sum c_a e^{-lam t} Phi_a(z)."""

    expansion: HermiteExpansion
    time: float

    def __post_init__(self):
        if self.time <= 0:
            raise ValueError("time must be positive")

    @property
    def dimension(self) -> int:
        return self.expansion.dimension

    @property
    def truncation(self) -> int:
        return self.expansion.truncation

    def eval(self, z) -> complex:
        """:func:`eval_entire` at a point of C^n.  It stays beside the grid
        evaluator because it reaches none of the grid's code: its log-domain
        ladder (:func:`~mehler.specfun.hermite_log_ladder`) shares nothing
        with the Clenshaw sweep of ``eval_grid_parts``, so the suite checks
        grid results against :func:`eval_entire` (batched over points), and
        it is the whole path of scalar requests."""
        return eval_entire(self.expansion, self.time, z)

    @property
    def real_on_real_axis(self) -> bool:
        """True for real coefficients on C: every Phi_a is real on R."""
        return self.expansion.dimension == 1 and not np.any(self.expansion.values.imag)

    def _grid_coefficients(self) -> np.ndarray:
        if self.expansion.dimension != 1:
            raise ValueError("grid evaluation is one-dimensional")
        lam = self.expansion.eigenvalues()
        return self.expansion.values * np.exp(-lam * self.time)

    def eval_grid_parts(self, X, Y):
        """(P, E) of :func:`~mehler.specfun.hermite_series_parts`:
        E = log h_0(z), or that plus the rescaled sum's log-scale."""
        return hermite_series_parts(self._grid_coefficients(), np.asarray(X) + 1j * np.asarray(Y))


@dataclass(frozen=True)
class ClosedFormHandle(EntireHandle):
    """Wraps a vectorized closed form fn(Z) on C, or fn(Z, W) on C^2
    (``eval`` takes a point of C)."""

    fn: object

    def eval_grid(self, X, Y, *UV) -> np.ndarray:
        """fn at the complex coordinates X + iY (and U + iV)."""
        coords = [np.asarray(c) for c in (X, Y, *UV)]
        return np.asarray(self.fn(*(re + 1j * im for re, im in zip(coords[::2], coords[1::2]))))

