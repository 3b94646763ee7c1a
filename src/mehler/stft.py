"""The Gaussian-windowed Fourier transform and its growth checks.

With the Gaussian window c e^{-a|u|^2/2} the windowed Fourier transform of
f at zero translation is

    T_a f(x) = (2 pi)^{-n/2} int f(u) c e^{-a|u|^2/2} e^{-i x.u} du,

which extends to an entire function of x -> z even for tempered f.  For
a > 1, writing a = coth(2t) ties T_a to the oscillator heat transform
through

    e^{-tH} f(z) = e^{-coth(2t) z^2 / 2} T_a f(i z / sinh 2t),

an identity that is exact when the window carries the bridge constant
c(a) = (a^2 - 1)^{n/4} = (sinh 2t)^{-n/2}; the identity itself pins that
constant (the zero-order Hermite function makes both sides closed-form).
For a < 1 the transform is evaluated by direct quadrature; no bridge
identity is asserted there.

On paired points, ``gauss_stft`` sums one oscillation e^{-izu} per point
and node.  On the envelope scan's open mesh z = x + iy the oscillation
factors as e^{-ixu} e^{yu} (Groechenig, Foundations of Time-Frequency
Analysis, 2001, ch. 3), so the transform over the whole mesh is one matrix
product (E_x diag(base)) E_y^T of per-axis tables over the rule's nodes.

Envelope checks: |T_a f| against (1+x^2+y^2)^m e^{y^2/(2a)} for tempered f,
and |e^{-tH} f| against e^{-coth(2t)(x^2-y^2)/2} e^{R|x|/sinh 2t} for f
supported in a ball of radius R.  Both build a handle and a bound and run
the one envelope scan, :func:`mehler.semigroup.envelope`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import compact_bound, stft_bound
from .quadrature import (
    PlaneGrid,
    QuadRule,
    gauss_hermite_rule,
    gauss_legendre_rule,
    real_matmul,
)
from .semigroup import (
    EnvelopeReport,
    KernelImageHandle,
    MehlerSliceHandle,
    envelope,
    semigroup_handle,
)
from .specfun import _finite
from .spectral import (
    Bump,
    Dirac,
    EntireHandle,
    TestFunction,
    eval_test_function,
    gaussian_decay_rate,
)

_EFFECTIVE_SUPPORT = math.sqrt(-math.log(1e-18))  # half-width of e^{-s^2} support


def _oscillation_guard(rule: QuadRule, freq: float, scale: float) -> None:
    """Refuse rules too coarse for the oscillation e^{-i freq u}.

    The effective box half-width is the part of the scaled node range where
    the Gaussian factor is above 1e-18; the guard is
    order >= 8 * freq * half_width / pi.
    """
    half_width = scale * min(float(np.max(np.abs(rule.nodes))), _EFFECTIVE_SUPPORT)
    needed = 8.0 * abs(freq) * half_width / math.pi
    if rule.order < needed:
        raise ValueError(
            f"rule order {rule.order} too coarse for frequency {freq:.3g} "
            f"(need >= {math.ceil(needed)})"
        )


def _stft_nodes(f: TestFunction, a: float, c: float, rule: QuadRule | None, x):
    """Nodes u and weights base(u) = w(u) f(u) c e^{-a u^2/2} of T_a f.

    T_a f(z) = (2 pi)^{-1/2} sum base(u) e^{-izu}.  A point mass is one node
    of weight c e^{-a u0^2/2}; a bump runs Gauss-Legendre over its support;
    Gaussian-decay members a scaled Gauss-Hermite rule.  ``x`` holds the
    requested Re z; rules too coarse for their oscillation raise, and so
    does a point mass outside R^1.
    """
    max_x = float(np.max(np.abs(x))) if np.size(x) else 0.0
    if isinstance(f, Dirac):
        if len(f.point) != 1:
            raise ValueError(f"point mass in R^{len(f.point)}: the transform is on R^1")
        (u0,) = f.point
        return np.array([u0]), np.array([c * math.exp(-0.5 * a * u0 * u0)])
    rule = rule or gauss_hermite_rule(128)
    if isinstance(f, Bump):
        leg = gauss_legendre_rule(max(rule.order, 96), -f.radius, f.radius)
        u, wq = leg.nodes, leg.weights
        if rule.order < 8.0 * max_x * f.radius / math.pi:
            raise ValueError("rule order too coarse for the requested frequency")
    else:
        gamma = gaussian_decay_rate(f)
        if gamma is None:
            raise ValueError(f"{type(f).__name__} has no quadrature route")
        rate = gamma + 0.5 * a
        scale = 1.0 / math.sqrt(rate)
        _oscillation_guard(rule, max_x, scale)
        u = scale * rule.nodes
        wq = scale * rule.plain_weights
    window = c * np.exp(-0.5 * a * u**2)
    return u, wq * eval_test_function(f, u) * window


def gauss_stft(
    f: TestFunction,
    a: float,
    z,
    c: float = 1.0,
    rule: QuadRule | None = None,
) -> complex:
    """T_a f(z) = (2 pi)^{-1/2} int f(u) c e^{-a u^2/2} e^{-i z u} du,
    entire in z.  Vectorized over an array z: one oscillation e^{-izu} per
    point and node.  Grids scan through :class:`_StftHandle`, whose
    column-by-row form is one matrix product.

    Raises :class:`~mehler.specfun.HermiteOverflowError` where a value is
    not finite: far off the real axis e^{yu} leaves the doubles at the
    rule's outer nodes."""
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    z = np.asarray(z, dtype=complex)
    u, base = _stft_nodes(f, a, c, rule, z.real)
    with np.errstate(over="ignore", invalid="ignore"):
        osc = np.exp(-1j * z[..., None] * u)
        out = (2 * math.pi) ** -0.5 * np.sum(base * osc, axis=-1)
    _finite(out, "windowed transform")
    return complex(out) if out.ndim == 0 else out


def bridge_constant(a: float, dimension: int = 1) -> float:
    """The window constant (a^2 - 1)^{n/4} that makes the heat-transform
    bridge identity exact (requires a > 1)."""
    if a <= 1:
        raise ValueError("the bridge constant lives in the a > 1 regime")
    return (a * a - 1.0) ** (0.25 * dimension)


@dataclass(frozen=True)
class BridgeReport:
    """Residuals of the heat-transform / windowed-transform identity."""

    t: float
    a: float
    c: float
    max_residual: float
    residuals: tuple[float, ...]


# The points of C at which the bridge identity is checked.
_BRIDGE_POINTS = (
    0.0, 0.5, -1.0, 1.5, 2.0, 0.3 + 0.4j, -0.7 + 0.2j, 1.0 - 0.5j, 0.2 + 1.0j, -1.2 - 0.3j,
)


def bridge_residual(
    f: TestFunction,
    t: float,
    rule: QuadRule | None = None,
    truncation: int = 48,
) -> BridgeReport:
    """Check e^{-tH} f(z) = e^{-coth(2t) z^2/2} T_a f(iz / sinh 2t) with
    a = coth 2t and the bridge window constant at the points
    ``_BRIDGE_POINTS``, both sides computed independently (spectral/kernel
    transform vs direct quadrature)."""
    if t <= 0:
        raise ValueError("t must be positive")
    a = 1.0 / math.tanh(2 * t)
    c = bridge_constant(a)
    if isinstance(f, Dirac):
        handle: EntireHandle = MehlerSliceHandle(t, f.point)
    else:
        handle = semigroup_handle(f, t, "spectral", truncation=truncation, rule=rule)
    zs = np.asarray(_BRIDGE_POINTS, dtype=complex)
    left = handle.eval_grid(zs.real, zs.imag)
    right = np.exp(-0.5 * a * zs * zs) * gauss_stft(
        f, a, 1j * zs / math.sinh(2 * t), c=c, rule=rule
    )
    residuals = tuple(float(r) for r in np.abs(left - right) / (1.0 + np.abs(right)))
    return BridgeReport(
        t=t, a=a, c=c, max_residual=max(residuals), residuals=residuals
    )


class _StftHandle(EntireHandle):
    """T_a f, with window constant 1, as an entire-function handle for
    envelope scans."""

    def __init__(self, f, a, rule):
        self.f = f
        self.a = a
        self.rule = rule

    def eval_grid(self, X, Y) -> np.ndarray:
        """Values at broadcastable real X, Y.  A column X by a row Y (the
        envelope scan's open mesh) is one product: e^{-izu} = e^{-ixu} e^{yu},
        so T_a f = (E_x diag(base)) E_y^T with E_x = e^{-ixu}, E_y = e^{yu}
        over the rule's nodes.  Other shapes go through :func:`gauss_stft`.
        Either raises :class:`~mehler.specfun.HermiteOverflowError` where a
        value is not finite."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if not (X.ndim == Y.ndim == 2 and X.shape[1] == 1 and Y.shape[0] == 1):
            return gauss_stft(self.f, self.a, X + 1j * Y, rule=self.rule)
        x, y = X[:, 0], Y[0]
        u, base = _stft_nodes(self.f, self.a, 1.0, self.rule, x)
        ex = np.exp(-1j * np.multiply.outer(x, u)) * ((2 * math.pi) ** -0.5 * base)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = real_matmul(ex, np.exp(np.multiply.outer(u, y)))
        return _finite(vals, "windowed transform", "on this grid")


def pw_envelope(
    f: TestFunction,
    a: float,
    m: int,
    grid: PlaneGrid,
    rule: QuadRule | None = None,
) -> EnvelopeReport:
    """Sup of |T_a f| / ((1+x^2+y^2)^m e^{y^2/(2a)}) over the grid, with
    window constant 1.

    Works in both regimes a > 1 and a < 1; the transform is evaluated by
    direct quadrature either way.
    """
    return envelope(_StftHandle(f, a, rule), stft_bound(a, m), grid)


def compact_growth_check(
    f: TestFunction,
    t: float,
    grid: PlaneGrid,
    radius: float | None = None,
) -> EnvelopeReport:
    """Sup of |e^{-tH} f| / (e^{-coth(2t)(x^2-y^2)/2} e^{R|x|/sinh 2t}).

    ``f`` must carry exact support data: a point mass (R defaults to |u0|)
    or a bump (R defaults to its radius; its image runs the 128-point
    Gauss-Hermite rule).  A radius smaller than the true
    support makes the sup grow without bound as the grid box widens, which
    is the detection mechanism for support violations.
    """
    if isinstance(f, Dirac):
        handle: EntireHandle = MehlerSliceHandle(t, f.point)
        default_radius = abs(f.point[0])
    elif isinstance(f, Bump):
        handle = KernelImageHandle(f, t, gauss_hermite_rule(128))
        default_radius = f.radius
    else:
        raise ValueError("compact-support checks need a point mass or a bump")
    bound = compact_bound(t, radius if radius is not None else default_radius)
    return envelope(handle, bound, grid)
