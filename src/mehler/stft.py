"""Windowed Fourier transform, its Gaussian-window form, and growth checks.

The windowed transform of f against a window g is

    V_g f(x, y) = (2 pi)^{-n/2} int f(u) g(u - y) e^{-i x.u} du;

with the Gaussian window c e^{-a|u|^2/2} and zero translation this becomes
the transform T_a f(x), which extends to an entire function of x -> z even
for tempered f.  For a > 1, writing a = coth(2t) ties T_a to the oscillator
heat transform through

    e^{-tH} f(z) = e^{-coth(2t) z^2 / 2} T_a f(i z / sinh 2t),

an identity that is exact when the window carries the bridge constant
c(a) = (a^2 - 1)^{n/4} = (sinh 2t)^{-n/2}; the identity itself pins that
constant (the zero-order Hermite function makes both sides closed-form).
For a < 1 the transform is evaluated by direct quadrature; no bridge
identity is asserted there.

Envelope checks: |T_a f| against (1+x^2+y^2)^m e^{y^2/(2a)} for tempered f,
and |e^{-tH} f| against e^{-coth(2t)(x^2-y^2)/2} e^{R|x|/sinh 2t} for f
supported in a ball of radius R.  Both build a handle and a bound and run
the one envelope scan, :func:`mehler.semigroup.envelope`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .indices import as_point
from .kernels import compact_bound, stft_bound
from .quadrature import PlaneGrid, QuadRule, gauss_hermite_rule
from .semigroup import (
    EnvelopeReport,
    KernelImageHandle,
    MehlerSliceHandle,
    envelope,
    semigroup_handle,
)
from .spectral import (
    Bump,
    Dirac,
    EntireHandle,
    TestFunction,
    eval_test_function,
    gaussian_decay_rate,
)

_EFFECTIVE_SUPPORT = math.sqrt(-math.log(1e-18))  # half-width of e^{-s^2} support


@dataclass(frozen=True)
class WindowSpec:
    """A window function: Gaussian c e^{-a|x|^2/2} or a general member."""

    kind: str
    a: float = 1.0
    c: float = 1.0
    fn: TestFunction | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "general"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.kind == "gaussian" and (self.a <= 0 or self.c <= 0):
            raise ValueError("gaussian window requires a > 0 and c > 0")

    def eval(self, u):
        if self.kind == "gaussian":
            return self.c * np.exp(-0.5 * self.a * np.asarray(u) ** 2)
        return eval_test_function(self.fn, u)


def gaussian_window(a: float, c: float = 1.0) -> WindowSpec:
    return WindowSpec("gaussian", a=a, c=c)


def general_window(f: TestFunction) -> WindowSpec:
    return WindowSpec("general", fn=f)


def _window_decay(w: WindowSpec) -> float:
    if w.kind == "gaussian":
        return 0.5 * w.a
    rate = gaussian_decay_rate(w.fn)
    if rate is None:
        raise ValueError("window must have Gaussian decay")
    return rate


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


def windowed_transform(
    f: TestFunction,
    window: WindowSpec,
    x: float,
    y: float,
    rule: QuadRule | None = None,
    dimension: int = 1,
) -> complex:
    """V_g f(x, y) by scaled Gauss-Hermite quadrature (dimension 1).

    Point masses short-circuit to the closed form
    (2 pi)^{-1/2} g(u0 - y) e^{-i x u0}.
    """
    if dimension != 1:
        raise ValueError("windowed transforms are one-dimensional at desk scale")
    if isinstance(f, Dirac):
        u0 = f.point[0]
        return complex(
            (2 * math.pi) ** -0.5 * window.eval(u0 - y) * np.exp(-1j * x * u0)
        )
    rule = rule or gauss_hermite_rule(128)
    gamma = gaussian_decay_rate(f)
    if gamma is None and not isinstance(f, Bump):
        raise ValueError(f"{type(f).__name__} has no quadrature route")
    rate = (gamma or 0.5) + _window_decay(window)
    scale = 1.0 / math.sqrt(rate)
    _oscillation_guard(rule, x, scale)
    u = scale * rule.nodes
    wq = scale * rule.weights * np.exp(rule.nodes**2)
    vals = eval_test_function(f, u) * window.eval(u - y) * np.exp(-1j * x * u)
    return complex((2 * math.pi) ** -0.5 * np.sum(wq * vals))


def gauss_stft(
    f: TestFunction,
    a: float,
    z,
    c: float = 1.0,
    rule: QuadRule | None = None,
    dimension: int = 1,
) -> complex:
    """T_a f(z) = (2 pi)^{-1/2} int f(u) c e^{-a u^2/2} e^{-i z u} du,
    entire in z.  Vectorized over an array z."""
    if a <= 0 or c <= 0:
        raise ValueError("a and c must be positive")
    if dimension != 1:
        raise ValueError("one-dimensional at desk scale")
    z = np.asarray(z, dtype=complex)
    if isinstance(f, Dirac):
        u0 = f.point[0]
        vals = (
            (2 * math.pi) ** -0.5
            * c
            * math.exp(-0.5 * a * u0 * u0)
            * np.exp(-1j * z * u0)
        )
        return complex(vals) if vals.ndim == 0 else vals
    rule = rule or gauss_hermite_rule(128)
    if isinstance(f, Bump):
        from .quadrature import gauss_legendre_rule

        leg = gauss_legendre_rule(max(rule.order, 96), -f.radius, f.radius)
        u, wq = leg.nodes, leg.weights
        max_x = float(np.max(np.abs(z.real))) if z.size else 0.0
        if rule.order < 8.0 * max_x * f.radius / math.pi:
            raise ValueError("rule order too coarse for the requested frequency")
    else:
        gamma = gaussian_decay_rate(f)
        if gamma is None:
            raise ValueError(f"{type(f).__name__} has no quadrature route")
        rate = gamma + 0.5 * a
        scale = 1.0 / math.sqrt(rate)
        max_x = float(np.max(np.abs(z.real))) if z.size else 0.0
        _oscillation_guard(rule, max_x, scale)
        u = scale * rule.nodes
        wq = scale * rule.weights * np.exp(rule.nodes**2)
    window = c * np.exp(-0.5 * a * u**2)
    base = wq * eval_test_function(f, u) * window
    osc = np.exp(-1j * z[..., None] * u)
    out = (2 * math.pi) ** -0.5 * np.sum(base * osc, axis=-1)
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


def bridge_residual(
    f: TestFunction,
    t: float,
    points=None,
    rule: QuadRule | None = None,
    truncation: int = 48,
) -> BridgeReport:
    """Check e^{-tH} f(z) = e^{-coth(2t) z^2/2} T_a f(iz / sinh 2t) with
    a = coth 2t and the bridge window constant, both sides computed
    independently (spectral/kernel transform vs direct quadrature)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if points is None:
        points = [
            0.0,
            0.5,
            -1.0,
            1.5,
            2.0,
            0.3 + 0.4j,
            -0.7 + 0.2j,
            1.0 - 0.5j,
            0.2 + 1.0j,
            -1.2 - 0.3j,
        ]
    a = 1.0 / math.tanh(2 * t)
    c = bridge_constant(a)
    if isinstance(f, Dirac):
        lhs_handle = MehlerSliceHandle(t, f.point)
        lhs = lambda z: lhs_handle.eval([z])  # noqa: E731
    else:
        handle = semigroup_handle(f, t, "spectral", truncation=truncation, rule=rule)
        lhs = lambda z: handle.eval([z])  # noqa: E731
    s2t = math.sinh(2 * t)
    residuals = []
    for z in points:
        z = complex(z)
        left = lhs(z)
        right = np.exp(-0.5 * a * z * z) * gauss_stft(
            f, a, 1j * z / s2t, c=c, rule=rule
        )
        residuals.append(float(abs(left - right) / (1.0 + abs(right))))
    return BridgeReport(
        t=t, a=a, c=c, max_residual=max(residuals), residuals=tuple(residuals)
    )


class _StftHandle(EntireHandle):
    """T_a f as an entire-function handle for envelope scans."""

    def __init__(self, f, a, c, rule):
        self.f = f
        self.a = a
        self.c = c
        self.rule = rule
        self.dimension = 1

    def eval(self, z) -> complex:
        z = as_point(z, dimension=1)
        return complex(gauss_stft(self.f, self.a, z[0], c=self.c, rule=self.rule))

    def eval_grid(self, X, Y) -> np.ndarray:
        Z = np.asarray(X) + 1j * np.asarray(Y)
        return gauss_stft(self.f, self.a, Z, c=self.c, rule=self.rule)


def pw_envelope(
    f: TestFunction,
    a: float,
    m: int,
    grid: PlaneGrid,
    c: float = 1.0,
    rule: QuadRule | None = None,
) -> EnvelopeReport:
    """Sup of |T_a f| / ((1+x^2+y^2)^m e^{y^2/(2a)}) over the grid.

    Works in both regimes a > 1 and a < 1; the transform is evaluated by
    direct quadrature either way.
    """
    return envelope(_StftHandle(f, a, c, rule), stft_bound(a, m), grid)


def compact_growth_check(
    f: TestFunction,
    t: float,
    grid: PlaneGrid,
    radius: float | None = None,
    rule: QuadRule | None = None,
) -> EnvelopeReport:
    """Sup of |e^{-tH} f| / (e^{-coth(2t)(x^2-y^2)/2} e^{R|x|/sinh 2t}).

    ``f`` must carry exact support data: a point mass (R defaults to |u0|)
    or a bump (R defaults to its radius).  A radius smaller than the true
    support makes the sup grow without bound as the grid box widens, which
    is the detection mechanism for support violations.
    """
    if isinstance(f, Dirac):
        handle: EntireHandle = MehlerSliceHandle(t, f.point)
        default_radius = abs(f.point[0])
    elif isinstance(f, Bump):
        handle = KernelImageHandle(f, t, rule or gauss_hermite_rule(128))
        default_radius = f.radius
    else:
        raise ValueError("compact-support checks need a point mass or a bump")
    bound = compact_bound(t, radius if radius is not None else default_radius)
    return envelope(handle, bound, grid)
