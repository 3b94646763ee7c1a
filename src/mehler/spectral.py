"""Hermite expansions, Sobolev norms, entire evaluation.

A function or tempered distribution enters as a :data:`TestFunction`; its
spectral representation is a :class:`HermiteExpansion`, a finite coefficient
vector over multi-indices |alpha| <= N in graded lexicographic order.
Sobolev norms of any integer order (negative orders reach distributions)
are plain weighted l^2 norms of the coefficients over the oscillator
eigenvalues 2|alpha| + 1.  Every input is one-dimensional (n = 1): a basis
member's multi-index, a point mass's point and a coefficient list's
dimension are refused otherwise where they are built.

The enumeration is fixed by the truncation, so one shared table per
truncation holds the ``indices`` tuple and a read-only degree array; every
expansion of that truncation reads it.

Spectral data evaluates anywhere on C through the entire extension of the
basis, and both evaluators are views of the one rescaled Hermite recurrence
in :mod:`mehler.specfun`.  At a point, or at P points in one call,
:func:`eval_entire` takes one log-domain ladder over every point, run only
to the highest order that a nonzero coefficient uses, gathers the terms of
the nonzero coefficients at once and reports the magnitude of the last
coefficient shell as a truncation indicator.  On a grid,
``SpectralHandle.eval_grid_parts`` sums the series by one Clenshaw sweep in
split form P e^E (E = log h_0(z)), so grid consumers can join the Gaussian
with their own before exponentiating.  A value whose modulus exceeds the
largest double raises :class:`~mehler.specfun.HermiteOverflowError`.

Every :class:`EntireHandle` implements one grid evaluator, ``eval_grid``
or ``eval_grid_parts``, and the base class derives the rest: the split
form multiplied out by :func:`~mehler.specfun.mul_exp_parts`, or the
values as a split form with exponent 0, and ``eval`` as ``eval_grid`` at
one point of C.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .indices import (
    MultiIndex,
    as_finite,
    as_index,
    as_point,
    as_points,
    as_real,
    as_whole,
    one_dimensional,
)
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
    """The basis function h_k with multi-index ``alpha`` = (k,)."""

    alpha: MultiIndex

    def __post_init__(self):
        object.__setattr__(self, "alpha", one_dimensional("alpha", as_index(self.alpha)))


@dataclass(frozen=True)
class Gaussian:
    """exp(-a x^2 / 2), a > 0."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_real("Gaussian width parameter a", self.a, 0.0))


@dataclass(frozen=True)
class PolyGaussian:
    """p(x) * exp(-a x^2 / 2) with p given by ``coeffs`` (low order first)."""

    coeffs: tuple[float, ...]
    a: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        as_finite("PolyGaussian coeffs", coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "a", as_real("PolyGaussian width parameter a", self.a, 0.0))


@dataclass(frozen=True)
class Dirac:
    """Point mass at ``point`` = (x0,) in R; coefficients are basis values
    there."""

    point: tuple[float, ...]

    def __post_init__(self):
        p = self.point
        if isinstance(p, (numbers.Real, np.bool_)):
            p = (p,)
        p = tuple(as_real("point coordinates", v) for v in p)
        object.__setattr__(self, "point", one_dimensional("point", p))


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported bump, support |x| <= radius,
    exp(1 - 1/(1 - |x|^2/R^2)) inside, normalized to 1 at the origin."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", as_real("Bump radius", self.radius, 0.0))


@dataclass(frozen=True)
class CoefficientList:
    """Explicit spectral data: coefficients over |alpha| <= truncation.

    ``dimension`` is 1 (n = 1), and any other value raises ``ValueError``;
    it stays a field because callers build ``CoefficientList(1, N,
    entries)`` positionally.  Each multi-index comes once, of length 1 and
    degree at most ``truncation``, with a finite coefficient; any other
    entry raises ``ValueError`` naming it.
    """

    dimension: int
    truncation: int
    entries: tuple[tuple[MultiIndex, complex], ...]

    def __post_init__(self):
        if as_whole("dimension", self.dimension) != 1:
            raise ValueError(f"dimension must be 1 (n = 1), got {self.dimension!r}")
        truncation = as_whole("truncation", self.truncation)
        object.__setattr__(self, "truncation", truncation)
        entries = tuple((as_index(a), complex(c)) for a, c in self.entries)
        as_finite("CoefficientList coefficients", [c for _, c in entries])
        seen = set()
        for alpha, _ in entries:
            if len(alpha) != 1:
                problem = "is not of dimension 1"
            elif sum(alpha) > truncation:
                problem = f"exceeds the truncation {truncation}"
            elif alpha in seen:
                problem = "is repeated"
            else:
                seen.add(alpha)
                continue
            raise ValueError(f"coefficient index {alpha} {problem}")
        object.__setattr__(self, "entries", entries)


TestFunction = HermiteBasis | Gaussian | PolyGaussian | Dirac | Bump | CoefficientList


def eval_test_function(f: TestFunction, x) -> np.ndarray:
    """Pointwise values at the points of an array ``x`` of R.

    Dirac and CoefficientList have no pointwise values and raise.
    """
    x = np.asarray(x)
    if isinstance(f, HermiteBasis):
        (k,) = f.alpha
        return hermite_eval(k, x)[k]
    if isinstance(f, Gaussian):
        return np.exp(-0.5 * f.a * x**2)
    if isinstance(f, PolyGaussian):
        p = np.zeros_like(x, dtype=complex if np.iscomplexobj(x) else float)
        for j in reversed(range(len(f.coeffs))):
            p = p * x + f.coeffs[j]
        return p * np.exp(-0.5 * f.a * x**2)
    if isinstance(f, Bump):
        r2 = np.asarray(x, dtype=float) ** 2 / f.radius**2
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
    """The canonical enumeration of one truncation: (0,), (1,), ..., (N,)."""

    indices: tuple[MultiIndex, ...]
    degrees: np.ndarray  # |alpha| per entry, read-only


@lru_cache(maxsize=32)
def _index_table(truncation: int) -> _IndexTable:
    """Built once per truncation and shared by every expansion of that
    truncation, so its array is read-only."""
    degrees = np.arange(truncation + 1)
    degrees.flags.writeable = False
    return _IndexTable(tuple((k,) for k in range(truncation + 1)), degrees)


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated coefficient vector over |alpha| <= truncation.

    ``indices`` is the full enumeration (0,), (1,), ..., (truncation,), the
    one tuple shared by every expansion of the same truncation (any other
    order is a ValueError), and ``values`` the aligned complex coefficient
    array.
    """

    truncation: int
    indices: tuple[MultiIndex, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "truncation", as_whole("truncation", self.truncation))
        table = _index_table(self.truncation)
        if self.indices is not table.indices:
            if tuple(self.indices) != table.indices:
                raise ValueError(
                    f"indices must be the enumeration (0,), ..., ({self.truncation},)"
                )
            object.__setattr__(self, "indices", table.indices)
        vals = np.asarray(self.values, dtype=complex)
        if len(self.indices) != len(vals):
            raise ValueError("indices/values length mismatch")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, truncation: int) -> "HermiteExpansion":
        idx = _index_table(truncation).indices
        return cls(truncation, idx, np.zeros(len(idx), complex))

    def degrees(self) -> np.ndarray:
        """|alpha| per entry: the shared table's read-only array."""
        return _index_table(self.truncation).degrees

    def eigenvalues(self) -> np.ndarray:
        return 2.0 * self.degrees() + 1

    def coefficient(self, alpha) -> complex:
        alpha = as_index(alpha)
        try:
            pos = self.indices.index(alpha)
        except ValueError:
            return 0.0 + 0.0j
        return complex(self.values[pos])

    def with_values(self, values: np.ndarray) -> "HermiteExpansion":
        return HermiteExpansion(self.truncation, self.indices, values)


def expand(
    f: TestFunction,
    truncation: int,
    rule: QuadRule | None = None,
) -> HermiteExpansion:
    """Hermite coefficients c_alpha = (f, Phi_alpha) up to |alpha| <= truncation.

    Basis members and point masses are exact (no quadrature).  Gaussian-type
    members use the supplied Gauss-Hermite rule, which must satisfy
    order >= truncation + 1; bumps use Gauss-Legendre on their support.
    """
    truncation = as_whole("truncation", truncation)
    out = HermiteExpansion.zeros(truncation)

    if isinstance(f, HermiteBasis):
        if sum(f.alpha) > truncation:
            raise ValueError("basis degree exceeds the requested truncation")
        vals = out.values.copy()
        vals[out.indices.index(f.alpha)] = 1.0
        return out.with_values(vals)

    if isinstance(f, Dirac):
        return out.with_values(hermite_eval(truncation, np.asarray(f.point[0])))

    if isinstance(f, CoefficientList):
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

    vals = hermite_eval(truncation, nodes) @ (w * eval_test_function(f, nodes))
    return out.with_values(np.asarray(vals, dtype=complex))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def sobolev_norm(e: HermiteExpansion, m: int) -> float:
    """Oscillator Sobolev norm sqrt(sum (2|alpha|+1)^{2m} |c_alpha|^2).

    Negative m is allowed (the eigenvalues are bounded below by 1) and
    reaches the distribution scales.
    """
    m = as_whole("m", m, None)
    lam = e.eigenvalues()
    return float(np.sqrt(np.sum(lam ** (2 * m) * np.abs(e.values) ** 2)))


# ---------------------------------------------------------------------------
# Entire evaluation
# ---------------------------------------------------------------------------


def eval_entire(
    e: HermiteExpansion, t: float, z, with_tail: bool = False
):
    """Value of the heat transform sum_k c_k e^{-(2k+1)t} h_k(z).

    ``z`` is one point of C (a scalar or a sequence of length 1), giving a
    complex, or P points shaped (P, 1), giving an array of P values.  Terms
    are assembled from log-domain basis values, so nothing overflows at
    desk scale; a result that does not fit a double raises
    :class:`~mehler.specfun.HermiteOverflowError`.  Only the nonzero
    coefficients enter, and the ladder runs to the highest order they use,
    so a sparse expansion costs what its terms cost, not what its
    truncation does.  All points share one ladder call, which
    rescales each point on its own, and each point's terms are joined along
    a row of their own, so every value is bit for bit the one a call at
    that point alone gives.  With ``with_tail=True`` also returns the
    summed magnitude of the last coefficient shell relative to the result,
    a truncation indicator (values above ~1e-6 mean the truncation is doing
    visible damage), as a float or an array of P floats.
    """
    t = as_real("t", t, 0.0)
    zs, single = as_points("z", z)
    live = np.flatnonzero(e.values)
    total = np.zeros(len(zs), dtype=complex)
    tail = np.zeros(len(zs))
    if live.size:
        degrees = e.degrees()[live]
        # one ladder over the flat point list: numpy's per-step overhead is
        # least on a 1-D array
        log_mod, arg = hermite_log_ladder(int(degrees.max()), zs)
        # row k of the ladder for every live k and every point at once:
        # (P, live) tables, one row per point
        idx = degrees[None, :], np.arange(len(zs))[:, None]
        logmag = log_mod[idx] - (2.0 * degrees + 1) * t
        weights = e.values[live] * np.exp(1j * arg[idx])
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
    """An evaluable entire function on C or on C^2; ``eval_grid``
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

    real_on_real_axis: bool = False
    reflection_invariant: bool = False

    def eval(self, z) -> complex:
        """The value at one point z of C: ``eval_grid`` there."""
        (z,) = as_point(z)
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
        object.__setattr__(self, "time", as_real("time", self.time, 0.0))

    @property
    def truncation(self) -> int:
        return self.expansion.truncation

    def eval(self, z) -> complex:
        """:func:`eval_entire` at a point of C.  It stays beside the grid
        evaluator because it reaches none of the grid's code: its log-domain
        ladder (:func:`~mehler.specfun.hermite_log_ladder`) shares nothing
        with the Clenshaw sweep of ``eval_grid_parts``, so the suite checks
        grid results against :func:`eval_entire` (batched over points), and
        it is the whole path of scalar requests."""
        return eval_entire(self.expansion, self.time, z)

    @property
    def real_on_real_axis(self) -> bool:
        """True for real coefficients on C: every Phi_a is real on R."""
        return not np.any(self.expansion.values.imag)

    def _grid_coefficients(self) -> np.ndarray:
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

