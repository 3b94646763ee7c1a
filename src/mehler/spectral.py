"""Hermite expansions, spectral multipliers, Sobolev norms, entire evaluation.

A function or tempered distribution enters as a :data:`TestFunction`; its
spectral representation is a :class:`HermiteExpansion`, a finite coefficient
vector over multi-indices |alpha| <= N in graded lexicographic order.
Multipliers act diagonally on the oscillator eigenvalues 2|alpha| + n:
heat factors exp(-t L), complex-time heat factors, and integer powers.
Sobolev norms of any integer order (negative orders reach distributions)
are plain weighted l^2 norms of the coefficients.

Spectral data evaluates anywhere on C^n through the entire extension of
the basis, and both evaluators are views of the one rescaled Hermite
recurrence in :mod:`mehler.specfun`.  At a point, :func:`eval_entire`
takes one log-domain ladder per coordinate, gathers the terms of all
multi-indices at once and reports the magnitude of the last coefficient
shell as a truncation indicator.  On a grid, ``SpectralHandle.eval_grid``
accumulates the weighted sum inside the recurrence.  A value whose modulus
exceeds the largest double raises :class:`~mehler.specfun.HermiteOverflowError`.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .indices import MultiIndex, as_index, as_point, multi_indices
from .quadrature import QuadRule, gauss_legendre_rule
from .specfun import hermite_eval, hermite_log_ladder, hermite_series, mul_exp

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
    """Explicit spectral data: coefficients over |alpha| <= truncation."""

    dimension: int
    truncation: int
    entries: tuple[tuple[MultiIndex, complex], ...]

    def __post_init__(self):
        entries = tuple(
            (as_index(a), complex(c)) for a, c in self.entries
        )
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


@dataclass(frozen=True)
class HermiteExpansion:
    """Truncated coefficient vector over |alpha| <= truncation.

    ``indices`` is the full graded-lexicographic enumeration and ``values``
    the aligned complex coefficient array.
    """

    dimension: int
    truncation: int
    indices: tuple[MultiIndex, ...]
    values: np.ndarray
    source: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if len(self.indices) != len(vals):
            raise ValueError("indices/values length mismatch")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, dimension: int, truncation: int, source: str = "") -> "HermiteExpansion":
        idx = tuple(multi_indices(dimension, truncation))
        return cls(dimension, truncation, idx, np.zeros(len(idx), complex), source)

    def degrees(self) -> np.ndarray:
        return np.array([sum(a) for a in self.indices])

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
        return HermiteExpansion(
            self.dimension, self.truncation, self.indices, values, self.source
        )

    def last_shell_energy(self) -> float:
        """sum over |alpha| = truncation of |c_alpha|^2 (tail indicator)."""
        mask = self.degrees() == self.truncation
        return float(np.sum(np.abs(self.values[mask]) ** 2))

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))


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
    out = HermiteExpansion.zeros(dimension, truncation, source=type(f).__name__)

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
        ladders = [
            hermite_eval(truncation, np.asarray(p)) for p in f.point
        ]
        vals = np.array(
            [
                np.prod([ladders[j][a_j] for j, a_j in enumerate(alpha)])
                for alpha in out.indices
            ],
            dtype=complex,
        )
        return out.with_values(vals)

    if isinstance(f, CoefficientList):
        if f.dimension != dimension:
            raise ValueError("dimension mismatch")
        vals = out.values.copy()
        lookup = {a: i for i, a in enumerate(out.indices)}
        for alpha, c in f.entries:
            if sum(alpha) <= truncation:
                vals[lookup[alpha]] = c
        return out.with_values(vals)

    if isinstance(f, Bump):
        leg = gauss_legendre_rule(
            max(64, 2 * truncation), -f.radius, f.radius
        )
        nodes, weights = leg.nodes, leg.weights
        compensate = None
    else:
        if rule is None:
            raise ValueError("a Gauss-Hermite rule is required for this member")
        if rule.order < truncation + 1:
            raise ValueError(
                f"rule order {rule.order} too coarse for truncation {truncation}"
            )
        nodes, weights = rule.nodes, rule.weights
        compensate = np.exp(nodes**2)

    w = weights if compensate is None else weights * compensate
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
        vals = np.array(
            [
                np.sum(np.outer(ladder[a[0]], ladder[a[1]]) * weighted)
                for a in out.indices
            ],
            dtype=complex,
        )
    else:
        raise ValueError("expand supports dimension 1 or 2 at desk scale")
    return out.with_values(np.asarray(vals, dtype=complex))


# ---------------------------------------------------------------------------
# Multipliers and norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplierSpec:
    """Diagonal spectral multiplier m(2|alpha| + n)."""

    kind: str
    t: float = 0.0
    theta: float = 0.0
    exponent: int = 0

    def factor(self, eigenvalue: np.ndarray) -> np.ndarray:
        lam = np.asarray(eigenvalue, dtype=float)
        if self.kind == "heat":
            return np.exp(-self.t * lam).astype(complex)
        if self.kind == "complex-heat":
            return np.exp(-(self.t + 1j * self.theta) * lam)
        if self.kind == "power":
            return (lam**self.exponent).astype(complex)
        raise ValueError(f"unknown multiplier kind {self.kind!r}")


def heat(t: float) -> MultiplierSpec:
    if t <= 0:
        raise ValueError("heat multiplier requires t > 0")
    return MultiplierSpec("heat", t=t)


def complex_heat(t: float, theta: float) -> MultiplierSpec:
    if t <= 0:
        raise ValueError("complex-heat multiplier requires t > 0")
    return MultiplierSpec("complex-heat", t=t, theta=theta)


def power(m: int) -> MultiplierSpec:
    return MultiplierSpec("power", exponent=int(m))


def apply_multiplier(e: HermiteExpansion, spec: MultiplierSpec) -> HermiteExpansion:
    """c_alpha -> m(2|alpha| + n) c_alpha, exactly (no quadrature)."""
    return e.with_values(e.values * spec.factor(e.eigenvalues()))


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

    Scalar ``z`` in C^n.  Terms are assembled from log-domain basis values,
    so nothing overflows at desk scale; a result that does not fit a double
    raises :class:`~mehler.specfun.HermiteOverflowError`.  With ``with_tail=True`` also
    returns the summed magnitude of the last coefficient shell relative to
    the result, a truncation indicator (values above ~1e-6 mean the
    truncation is doing visible damage).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    z = as_point(z, dimension=e.dimension)
    log_mod, arg = hermite_log_ladder(e.truncation, z)
    # row alpha_j of coordinate j's ladder, for every alpha at once
    idx = np.array(e.indices), np.arange(e.dimension)
    logmag = log_mod[idx].sum(axis=1) - e.eigenvalues() * t
    weights = e.values * np.exp(1j * arg[idx].sum(axis=1))
    logmag[e.values == 0] = -math.inf
    peak = float(np.max(logmag))
    if peak == -math.inf:
        # no coefficients, or every contributing basis value vanishes at z
        return (0j, 0.0) if with_tail else 0j
    terms = weights * np.exp(logmag - peak)
    scaled = np.sum(terms)
    total = complex(mul_exp(scaled, peak))
    if not with_tail:
        return total
    # both sides carry the factor exp(peak), which may itself overflow
    shell = e.degrees() == e.truncation
    tail = float(np.sum(np.abs(terms[shell])))
    return total, tail / max(abs(scaled), np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Entire handles
# ---------------------------------------------------------------------------


class EntireHandle:
    """An evaluable entire function on C^n (n = dimension); ``eval_grid``
    takes broadcastable real coordinates, (X, Y) for z = x + iy and
    (X, Y, U, V) for (x + iy, u + iv) on C^2."""

    dimension: int = 1

    def eval(self, z) -> complex:
        raise NotImplementedError

    def eval_grid(self, X: np.ndarray, Y: np.ndarray, *UV: np.ndarray) -> np.ndarray:
        """Vectorized values at the points of broadcastable real arrays."""
        raise NotImplementedError


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
        return eval_entire(self.expansion, self.time, z)

    def eval_with_tail(self, z) -> tuple[complex, float]:
        return eval_entire(self.expansion, self.time, z, with_tail=True)

    def eval_grid(self, X, Y) -> np.ndarray:
        if self.expansion.dimension != 1:
            raise ValueError("grid evaluation is one-dimensional")
        lam = self.expansion.eigenvalues()
        coef = self.expansion.values * np.exp(-lam * self.time)
        return hermite_series(coef, np.asarray(X) + 1j * np.asarray(Y))


@dataclass(frozen=True)
class ClosedFormHandle(EntireHandle):
    """Wraps a vectorized closed form fn(Z) of the complex variable."""

    fn: object
    dimension: int = 1
    label: str = ""

    def eval(self, z) -> complex:
        z = as_point(z, dimension=self.dimension)
        if self.dimension == 1:
            return complex(self.fn(np.asarray([z[0]]))[0])
        return complex(self.fn(z))

    def eval_grid(self, X, Y) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(X) + 1j * np.asarray(Y)))


def zero_handle(dimension: int = 1) -> ClosedFormHandle:
    return ClosedFormHandle(
        fn=lambda Z: np.zeros_like(np.asarray(Z), dtype=complex),
        dimension=dimension,
        label="zero",
    )


# ---------------------------------------------------------------------------
# CSV interchange for coefficient data
# ---------------------------------------------------------------------------


def expansion_to_csv(e: HermiteExpansion, path) -> None:
    """Rows alpha_1,...,alpha_n,re,im with round-trip decimal formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for alpha, c in zip(e.indices, e.values):
            writer.writerow([*alpha, repr(float(c.real)), repr(float(c.imag))])


def expansion_from_csv(path, dimension: int, truncation: int) -> HermiteExpansion:
    entries = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            alpha = tuple(int(v) for v in row[:dimension])
            c = complex(float(row[dimension]), float(row[dimension + 1]))
            entries.append((alpha, c))
    clist = CoefficientList(dimension, truncation, tuple(entries))
    return expand(clist, truncation, dimension=dimension)
