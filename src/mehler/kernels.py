"""Closed-form kernels, Bergman weights, and pointwise growth bounds.

The heat kernel of the oscillator -d^2/dx^2 + x^2 has the closed form

    K_t(z, w) = (2 pi sinh 2t)^{-1/2}
                exp(-coth(2t) (z^2 + w^2)/2 + z w / sinh 2t),

entire and symmetric in (z, w) (z^2 means the bilinear square).  The image
of L^2 under the heat transform sits inside entire functions square
integrable against the Bergman weight

    U_t(x+iy) = 2 (sinh 4t)^{-1/2} exp(tanh(2t) x^2 - coth(2t) y^2);

its 2m-th time derivatives weight the holomorphic Sobolev norms and are
computed exactly with truncated Taylor arithmetic.  The scalar series in t
behind them, the jets of the prefactor and of tanh 2t and -coth 2t, depend
on (t, m) alone and are memoized (``_time_jets``); only the per-axis jets
in x^2 and y^2 are formed per call.  The reproducing kernel of the order-0
space is the closed form at doubled time, which
:func:`mehler.semigroup.reproduce` factors over the grid's axes.

Every public function here takes its time t > 0, its order m >= 0 and its
points through the coercions of :mod:`mehler.indices`; the private forms
behind them (``_mehler_parts``, ``_weight_jets``, ``_twisted_profile_jet``)
run on a grid's coordinates, which are finite by construction, unchecked.

Note on constants: with U_t as normalized here, the complexified basis
orthogonality holds only up to a fixed multiplicative factor; the
calibration in :mod:`mehler.semigroup` determines that factor
((2 pi)^{-1/2}) and the weighted-norm routines accept it explicitly.  The
same applies to the twisted weight below via its own calibration.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import taylor
from .indices import as_finite, as_real, as_whole
from .specfun import _finite, hermite_eval
from .taylor import TaylorScalar

# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------


def _mehler_parts(t: float, z, w):
    """K_t(z, w) as (pref, expo), K_t = pref * e^expo: the prefactor
    (2 pi sinh 2t)^{-1/2} and the complex exponent, elementwise as in
    :func:`mehler_kernel`, for a time t > 0."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    s2t = math.sinh(2 * t)
    c2t = math.cosh(2 * t) / s2t
    expo = -0.5 * c2t * (z * z + w * w) + z * w / s2t
    return (2.0 * math.pi * s2t) ** -0.5, expo


def mehler_kernel(t: float, z, w):
    """Oscillator heat kernel K_t(z, w), entire in both arguments,
    vectorized elementwise over ``z`` and ``w``."""
    pref, expo = _mehler_parts(as_real("t", t, 0.0), as_finite("z", z), as_finite("w", w))
    return pref * np.exp(expo)


def _spectral_sum(coef, a, b):
    """sum_k coef[k] h_k(a) h_k(b), elementwise over complex ``a`` and ``b``.

    Raises :class:`HermiteOverflowError` where the sum leaves the doubles.
    """
    n = len(coef) - 1
    ha = hermite_eval(n, np.asarray(a, dtype=complex))
    hb = hermite_eval(n, np.asarray(b, dtype=complex))
    return _finite(np.tensordot(coef, ha * hb, axes=(0, 0)), "spectral kernel sum")


def mehler_spectral(t: float, z, w, truncation: int = 48):
    """Spectral sum sum_k e^{-(2k+1)t} h_k(z) h_k(w) on C.

    The independent cross-check for the closed form; truncated at
    ``truncation`` with geometric tail e^{-2t} per step.
    """
    t = as_real("t", t, 0.0)
    k = np.arange(as_whole("truncation", truncation) + 1)
    return _spectral_sum(np.exp(-(2 * k + 1) * t), as_finite("z", z), as_finite("w", w))


# ---------------------------------------------------------------------------
# Bergman weight and its time derivatives
# ---------------------------------------------------------------------------


def bergman_weight(t: float, z):
    """Weight U_t(x+iy) = 2 (sinh 4t)^{-1/2} e^{tanh(2t) x^2 - coth(2t) y^2}."""
    t = as_real("t", t, 0.0)
    z = np.asarray(as_finite("z", z), dtype=complex)
    x2, y2 = z.real**2, z.imag**2
    log_pref = math.log(2.0) - 0.5 * math.log(math.sinh(4 * t))
    return np.exp(log_pref + math.tanh(2 * t) * x2 - (1.0 / math.tanh(2 * t)) * y2)


def _shifted_exp_jet(coef, s) -> np.ndarray:
    """Taylor coefficients in t of e^{(f(t) - f(t_0)) s} at the expansion
    point t_0, ``coef`` the Taylor coefficients of f there, elementwise
    over a real array ``s``: shape (len(coef),) + shape(s), row 0 all
    ones."""
    s = np.asarray(s, dtype=float)
    shifted = TaylorScalar([np.zeros_like(s)] + [c * s for c in coef[1:]])
    return np.array(shifted.exp().coef)


@functools.lru_cache(maxsize=64)
def _time_jets(t: float, m: int) -> tuple[tuple, tuple, tuple]:
    """Taylor coefficients in s at t, orders 0..2m, of the Bergman weight's
    prefactor 2 (sinh 4s)^{-1/2}, of tanh 2s and of -coth 2s: the scalar
    part of :func:`_weight_jets`, which depends on (t, m) alone.  Built
    once per key and kept as tuples of floats; the cache is bounded, since
    a caller may draw a fresh t for every call."""
    T = TaylorScalar.variable(t, 2 * m)
    pref = taylor.sinh(T * 4.0).power(-0.5) * 2.0
    return (
        tuple(pref.coef),
        tuple(taylor.tanh(T * 2.0).coef),
        tuple((-taylor.coth(T * 2.0)).coef),
    )


def _weight_jets(t: float, m: int, x2, y2):
    """Per-axis jets of U_t in t: (H, jx, jy) with

        d^{2m}/dt^{2m} U_t = e^{tanh(2t) x2 - coth(2t) y2} sum_{j,k} jx[j] H[j, k] jy[k],

    jx and jy the Taylor coefficients (rows 0..2m, elementwise over the
    real arrays ``x2`` and ``y2``) of e^{(tanh 2s - tanh 2t) x2} and
    e^{-(coth 2s - coth 2t) y2} in s at t, and H[j, k] = (2m)! p[2m - j - k]
    (0 past j + k = 2m) the Hankel matrix of the jet p of the prefactor
    2 (sinh 4s)^{-1/2}.  Each jet runs on its own axis, so on a tensor
    grid no Taylor arithmetic touches the mesh, and the scalar jets come
    from :func:`_time_jets`, so none runs twice for one (t, m).
    """
    pref, tanh_jet, coth_jet = _time_jets(t, m)
    jx = _shifted_exp_jet(tanh_jet, x2)
    jy = _shifted_exp_jet(coth_jet, y2)
    rank = 2 * m - np.add.outer(np.arange(2 * m + 1), np.arange(2 * m + 1))
    H = np.where(rank >= 0, np.array(pref)[np.maximum(rank, 0)], 0.0)
    return math.factorial(2 * m) * H, jx, jy


def bergman_weight_dt(t: float, m: int, z):
    """2m-th time derivative of U_t at fixed z (signed), by jet arithmetic.

    m = 0 reduces to the plain weight.  Vectorized over z; the jets of
    :func:`_weight_jets` are joined pointwise.
    """
    m = as_whole("m", m)
    if m == 0:
        return bergman_weight(t, z)
    t = as_real("t", t, 0.0)
    z = np.asarray(as_finite("z", z), dtype=complex)
    x2, y2 = z.real**2, z.imag**2
    H, jx, jy = _weight_jets(t, m, x2, y2)
    gauss = np.exp(math.tanh(2 * t) * x2 - (1.0 / math.tanh(2 * t)) * y2)
    return gauss * np.sum(jx * np.tensordot(H, jy, axes=1), axis=0)


# ---------------------------------------------------------------------------
# Twisted heat kernel and weight
# ---------------------------------------------------------------------------


def special_heat_kernel(t: float, p):
    """Closed form (2 pi sinh t)^{-1} exp(-coth(t) q / 4) where q is the
    bilinear square of the C^2 argument ``p`` (last axis of length 2).

    The twisted semigroup itself convolves with the spectrally normalized
    profile (see :func:`mehler.special.heat_profile`), which is 1/2 times
    this one; the weight on C^2 uses this normalization, and its
    calibration constant absorbs the mismatch.
    """
    t = as_real("t", t, 0.0)
    p = np.asarray(as_finite("p", p), dtype=complex)
    if p.ndim == 0 or p.shape[-1] != 2:
        raise ValueError("p must have a trailing axis of length 2")
    q = np.sum(p * p, axis=-1)
    pref = (2.0 * math.pi * math.sinh(t)) ** -1
    return pref * np.exp(-0.25 / math.tanh(t) * q)


def _twisted_profile_jet(t: float, m: int, q):
    """e^{coth(2t) q} times :func:`twisted_weight_profile`, elementwise over
    a real array ``q``: the polynomial in q that the 2m-th time derivative
    leaves beside the Gaussian, from the jets of the prefactor
    (2 pi sinh 2s)^{-1} and of e^{-(coth 2s - coth 2t) q} in s at t.
    """
    T = TaylorScalar.variable(t, 2 * m)
    pref = (taylor.sinh(T * 2.0).power(-1.0) * (2.0 * math.pi) ** -1).coef
    jq = _shifted_exp_jet((-taylor.coth(T * 2.0)).coef, q)
    return math.factorial(2 * m) * np.tensordot(pref[::-1], jq, axes=1)


def twisted_weight_profile(t: float, m: int, q):
    """The factor of the twisted weight that depends on q = y^2 + v^2
    alone: d^{2m}/dt^{2m} of p_{2t}(2y, 2v) = (2 pi sinh 2t)^{-1}
    exp(-coth(2t) q), elementwise over a real array ``q``.
    """
    t, m = as_real("t", t, 0.0), as_whole("m", m)
    q = np.asarray(as_finite("q", q), dtype=float)
    if m == 0:
        pref = (2.0 * math.pi * math.sinh(2 * t)) ** -1
        return pref * np.exp(-(1.0 / math.tanh(2 * t)) * q)
    return np.exp(-(1.0 / math.tanh(2 * t)) * q) * _twisted_profile_jet(t, m, q)


def twisted_bergman_weight(t: float, m: int, z, w):
    """Weight on C^2: 4 e^{uy - vx} p_{2t}(2y, 2v), and its 2m-th time
    derivative for m > 0 (signed), elementwise over ``z = x + iy`` and
    ``w = u + iv``.
    """
    z = np.asarray(as_finite("z", z), dtype=complex)
    w = np.asarray(as_finite("w", w), dtype=complex)
    cross = w.real * z.imag - w.imag * z.real
    envelope = 4.0 * np.exp(cross)
    return envelope * twisted_weight_profile(t, m, z.imag**2 + w.imag**2)


# ---------------------------------------------------------------------------
# Growth bounds
# ---------------------------------------------------------------------------

_SQUARED_KINDS = frozenset(
    {"sobolev-embed", "schwartz-image", "tempered", "special-schwartz", "special-plain"}
)
_MODULUS_KINDS = frozenset({"pw-stft", "compact"})


@dataclass(frozen=True)
class BoundSpec:
    """A pointwise growth bound, evaluated in log-domain.

    Kinds on |F|^2: ``sobolev-embed`` and ``schwartz-image``
    (1+x^2+y^2)^{-2m} e^{-x^2 tanh 2t + y^2 coth 2t}; ``tempered``
    (1+|z|^2)^{+2m} e^{-x^2 tanh 2t + y^2 coth 2t}; ``special-schwartz``
    e^{vx-uy} e^{coth 4t (y^2+v^2)} / (1+x^2+y^2+u^2+v^2)^{2m};
    ``special-plain`` the same with denominator (1+y^2+v^2)^{2m}.

    Kinds on |F|: ``pw-stft`` (1+x^2+y^2)^m e^{y^2/(2a)}; ``compact``
    e^{-coth(2t)(x^2-y^2)/2} e^{R|x|/sinh 2t}.
    """

    kind: str
    t: float = 0.0
    m: int = 0
    a: float = 0.0
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in _SQUARED_KINDS | _MODULUS_KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.kind == "pw-stft":
            object.__setattr__(self, "a", as_real("a", self.a, 0.0))
        else:
            object.__setattr__(self, "t", as_real("t", self.t, 0.0))
        if self.kind == "compact":
            object.__setattr__(self, "radius", as_real("radius", self.radius, 0.0, strict=False))
        object.__setattr__(self, "m", as_whole("m", self.m))

    @property
    def on_modulus(self) -> bool:
        """True when the bound is stated on |F| rather than |F|^2."""
        return self.kind in _MODULUS_KINDS

    def log_parts(self, X, Y, U=None, V=None) -> tuple[tuple, int, tuple]:
        """The log of the bound in pieces, (terms, power, squares): the log
        is the sum of ``terms`` plus power * log1p(sum of ``squares``),
        every array formed on the axes of the coordinates it depends on.
        ``power`` is 0 at m = 0 (and for ``compact``), where the order-m
        term is not formed."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        x2, y2 = X**2, Y**2
        if self.kind in ("sobolev-embed", "schwartz-image", "tempered"):
            gauss_x = math.tanh(2 * self.t) * x2
            gauss_y = (1.0 / math.tanh(2 * self.t)) * y2
            power = 2 * self.m if self.kind == "tempered" else -2 * self.m
            return (-gauss_x, gauss_y), power, (x2, y2)
        if self.kind in ("special-schwartz", "special-plain"):
            if U is None or V is None:
                raise ValueError("this bound lives on C^2: need U and V")
            U = np.asarray(U, dtype=float)
            V = np.asarray(V, dtype=float)
            c4 = 1.0 / math.tanh(4 * self.t)
            v2 = V**2
            terms = (V * X, -(U * Y), c4 * (y2 + v2))
            squares = (x2, y2, U**2, v2) if self.kind == "special-schwartz" else (y2, v2)
            return terms, -2 * self.m, squares
        if self.kind == "pw-stft":
            return (y2 / (2.0 * self.a),), self.m, (x2, y2)
        if self.kind == "compact":
            c2 = 1.0 / math.tanh(2 * self.t)
            gauss = x2 - y2
            gauss *= -0.5 * c2
            return (gauss, self.radius * np.abs(X) / math.sinh(2 * self.t)), 0, ()
        raise AssertionError(self.kind)

    def log_eval(self, X, Y, U=None, V=None) -> np.ndarray:
        """log of the bound at broadcastable real coordinate arrays, as a
        fresh array shaped like their broadcast: the pieces of
        :meth:`log_parts` summed in the order the bound is written, the
        order-m term first on C and last on C^2 (reassociating them moves
        envelope sups in their last digits)."""
        terms, power, squares = self.log_parts(X, Y, U, V)
        coords = [c for c in (X, Y, U, V) if c is not None]
        out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))
        radial = [power * np.log1p(sum(squares))] if power else []
        parts = radial + list(terms) if len(coords) == 2 else list(terms) + radial
        for part in parts:
            out += part
        return out

    def eval(self, X, Y, U=None, V=None) -> np.ndarray:
        return np.exp(self.log_eval(X, Y, U, V))


def sobolev_embed_bound(t: float, m: int) -> BoundSpec:
    return BoundSpec("sobolev-embed", t=t, m=m)


def schwartz_image_bound(t: float, m: int) -> BoundSpec:
    return BoundSpec("schwartz-image", t=t, m=m)


def tempered_bound(t: float, m: int) -> BoundSpec:
    return BoundSpec("tempered", t=t, m=m)


def special_schwartz_bound(t: float, m: int) -> BoundSpec:
    return BoundSpec("special-schwartz", t=t, m=m)


def special_plain_bound(t: float, m: int) -> BoundSpec:
    return BoundSpec("special-plain", t=t, m=m)


def stft_bound(a: float, m: int) -> BoundSpec:
    return BoundSpec("pw-stft", a=a, m=m)


def compact_bound(t: float, radius: float) -> BoundSpec:
    return BoundSpec("compact", t=t, radius=radius)
