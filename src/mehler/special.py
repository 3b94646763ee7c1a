"""Special Hermite functions, twisted convolution, and the twisted semigroup.

The special Hermite functions are defined from the Hermite basis by the
oscillatory integral

    Phi_{ab}(x, u) = (2 pi)^{-n/2} int e^{i x.xi}
                     Phi_a(xi + u/2) Phi_b(xi - u/2) dxi,

an orthonormal basis of L^2(C^n) and eigenfunctions of the twisted
Laplacian with eigenvalue 2|b| + n.  The twisted layer is n = 1, decided
where its inputs are built: a :class:`SpecialHermiteBasis` or an index
pair handed to :func:`special_hermite_eval` of length other than 1 raises
``ValueError``.  The functions are evaluated by the classical Laguerre
closed form of that integral (Thangavelu, Lectures on Hermite and Laguerre
Expansions, 1993, sec. 1.3; Folland, Harmonic Analysis in Phase Space,
1989, ch. 1),

    Phi_{ab}(x, u) = (2 pi)^{-1/2} i^d (k!/(k+d)!)^{1/2} (zeta/sqrt 2)^d
                     L_k^d((x^2 + u^2)/2) e^{-(x^2 + u^2)/4}

with d = |a - b|, k = min(a, b), and zeta = x - iu for a >= b, x + iu
otherwise.  Read with the bilinear square x^2 + u^2, the formula is the
entire extension to complex (z, w) in C^2.  The defining integral
survives only as a test oracle.

Twisted convolution

    (f x g)(x, u) = int f(x', u') g(x - x', u - u')
                    e^{-i (x' u - x u')/2} dx' du'

diagonalizes on Laguerre functions: (2 pi)^{-n} f x phi_k projects onto the
k-th eigenspace (``laguerre_project``), and the twisted heat semigroup is
the damped sum of those projections (Thangavelu 1993).  That sum in closed
form is the convolution with the heat profile, and
``special_semigroup_apply`` evaluates the semigroup by that one route; the
damped sum is kept only as a test oracle.  The profile is the spectrally
normalized (2 pi)^{-1} (2 sinh t)^{-1} exp(-coth(t) q / 4) (q the bilinear
square).  The variant normalized as (2 pi sinh t)^{-1}, exposed by
:func:`mehler.kernels.special_heat_kernel`, is 2 times this one; it is
what the weight on C^2 is built from, and the weight calibration
constant kappa* absorbs exactly that factor (kappa* ~ 1/2).

``twisted_conv`` takes arrays of points.  Every profile it takes is a
short sum of products of an x-factor and a u-factor: the heat profile one
product, e^{-c(z-x)^2} e^{-c(w-u)^2} with c = coth(t)/4, and the Laguerre
profile phi_k its k + 1 products of Hermite functions (Thangavelu 1993).
So is every input it takes: a polynomial Gaussian
sum C[j, k] x^j u^k e^{-r (x^2 + u^2)/2} (a ``Gaussian2n`` or a basis
member) couples the columns x^j e^{-r x^2/2} and u^k e^{-r u^2/2} by C,
and phi_k is the profile above.  The phase splits the same way,
e^{-ixw/2} e^{izu/2}, and the grid is a tensor trapezoid, so each
product's plane sum is exactly the product of two 1-D moment tables, one
over x and one over u, each one matrix product for all points at once
(Trefethen and Weideman, SIAM Review 56, 2014); no table of f over the
plane is formed.  The trapezoid rule suits
the integrands: they are entire with Gaussian decay, where it converges
geometrically.

Intertwining relations: with a = coth(t)/2 and b = i/2, the validated
first-order relations are

    e^{-tL}[(d/dx - a x) f] = (-a z + b w) e^{-tL} f
    e^{-tL}[(d/du - a u) f] = -(b z + a w) e^{-tL} f

(the u-direction multiplier differs in sign from the x-direction one; this
is forced by the phase convention of the twisted convolution).
``intertwine_check`` forms the image e^{-tL} f once and runs both relations
under both signs of a against it, returning the (+, -) pair of reports, so
a caller reads which sign passes from one image.
Its inputs are polynomial Gaussians sum C[j, k] x^j u^k e^{-r (x^2 + u^2)/2}
on the real plane: a ``Gaussian2n`` or a basis member becomes its
coefficient array C, on which both operators act exactly (``_lower``).
The image and the four left sides are polynomial Gaussians of one width,
so all five contract against one pair of heat-profile moment tables.

Weighted norms on C^2 (n = 1) integrate against the 2m-th time derivative
of the weight W_t(x, y, u, v) = 4 e^{yu - xv} S(y^2 + v^2), with S the
(2 pi sinh 2t)^{-1}-normalized profile of
:func:`mehler.kernels.twisted_weight_profile`.  The integrands are images
of basis members, F = damp P e^{-(z^2 + w^2)/4} with P a polynomial in
(x, y, u, v), and that Gaussian's squared modulus folds into W_t as an
(x, v) table times a (y, u) table, each at most 1, beside the jet of S on
the (y, v) table.  One weighted form serves the norms and the calibration
probes (``_plane_sums``): for coefficient arrays P and Q it contracts the
coefficients of P conj(Q) against monomial moments over x and u of the two
folded tables (``_folded_tables``), which leaves a (y, v) plane to meet
the jet.  Nothing grows with res^4 and no exponent overflows on the wide
boxes of moderate t.  The form also sums the nested trapezoid rule of
twice the step from every second node of the same tables, and the
argument checks and the finish are those of the sums on C
(:mod:`mehler.semigroup`).  The integrands are analytic with Gaussian
decay, so the trapezoid rule converges geometrically (Trefethen and
Weideman, SIAM Review 56, 2014).

Twisted heat images are :class:`mehler.spectral.EntireHandle` objects on
C^2, evaluated on broadcastable real arrays (X, Y, U, V): a basis member's
by its split form alone (``SpecialEigenHandle.eval_grid_parts``, multiplied
out by the one finish :func:`mehler.specfun.mul_exp_parts` as ``_phi1``
is), a Gaussian's by its closed form (:class:`GaussianImageHandle`); both
moduli are invariant under two reflections of the real coordinates, which
fold the envelope scan; ``special_envelope`` hands one and its bound to
:func:`mehler.semigroup.envelope`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indices import MultiIndex, as_finite, as_index, as_real, as_whole, oscillator_eigenvalue
from .kernels import _twisted_profile_jet, special_plain_bound, special_schwartz_bound
from .quadrature import PlaneGrid, real_matmul
from .semigroup import (
    CalibrationResult,
    EnvelopeReport,
    _check_grid,
    _check_probes,
    _finish_calibration,
    _finish_norm,
    envelope,
)
from .specfun import (
    HermiteOverflowError,
    _finite,
    hermite_eval,
    laguerre_function_entire,
    laguerre_ladder,
    mul_exp_parts,
)
from .spectral import ClosedFormHandle, EntireHandle


# ---------------------------------------------------------------------------
# Phase-space test functions
# ---------------------------------------------------------------------------


def _index_pair(alpha, beta) -> tuple[MultiIndex, MultiIndex]:
    """(alpha, beta) as multi-indices of length 1, the twisted layer's
    n = 1, or a ValueError that names them."""
    alpha, beta = as_index(alpha), as_index(beta)
    if len(alpha) != 1 or len(beta) != 1:
        raise ValueError(
            f"alpha and beta must be one-dimensional (n = 1), got {alpha} and {beta}"
        )
    return alpha, beta


@dataclass(frozen=True)
class SpecialHermiteBasis:
    """The basis member Phi_{alpha beta} (n = 1: alpha and beta of length 1)."""

    alpha: MultiIndex
    beta: MultiIndex

    def __post_init__(self):
        alpha, beta = _index_pair(self.alpha, self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class Gaussian2n:
    """exp(-a (x^2 + u^2)/2) on R^2; entire in the obvious way."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_real("Gaussian2n width parameter a", self.a, 0.0))


# ---------------------------------------------------------------------------
# Special Hermite evaluation
# ---------------------------------------------------------------------------


def _phi1_constants(a: int, b: int) -> tuple[int, int, complex]:
    """d = |a - b|, k = min(a, b) and the constant
    i^d (k!/(k+d)!)^{1/2} 2^{-d/2} (2 pi)^{-1/2} of the closed form."""
    d, k = abs(a - b), min(a, b)
    coef = 1j**d * math.sqrt(
        math.factorial(k) / math.factorial(k + d) / (2.0**d * 2.0 * math.pi)
    )
    return d, k, coef


def _phi1(a: int, b: int, z, w):
    """One-dimensional Phi_{ab}(z, w) by the Laguerre closed form,
    broadcast over arrays z, w: :func:`_phi1_parts` multiplied out by
    :func:`mehler.specfun.mul_exp_parts`, one exp per value of z and of w
    where that cannot overflow.  Raises :class:`HermiteOverflowError` where
    a value does not fit a double."""
    return mul_exp_parts(*_phi1_parts(a, b, z, w))


def _phi1_parts(
    a: int, b: int, z, w, shift: float = 0.0
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """(P, (E_z, E_w)) with e^{-shift} Phi_ab(z, w) = P e^{E_z + E_w},
    broadcast over arrays z, w: E_z = -z^2/4 - shift on the axes of z,
    E_w = -w^2/4 on those of w, and P = coef zeta^d L_k^d((z^2 + w^2)/2),
    the closed form with no exponential taken.  The exponent stays
    a pair of per-coordinate tables and is never summed over the broadcast
    shape; z^2 + w^2 spans it only when P needs it (k > 0).  P keeps the
    broadcast shape of its factors: 0-d for Phi_00, whose P is the
    constant.  Raises :class:`HermiteOverflowError` where P does not fit a
    double."""
    z, w = as_finite("z", z), as_finite("w", w)
    d, k, P = _phi1_constants(a, b)
    z2, w2 = z * z, w * w
    with np.errstate(over="ignore", invalid="ignore"):
        if d:
            zeta = z - 1j * w if a >= b else z + 1j * w
            for _ in range(d):
                P = P * zeta
        if k:
            P = P * laguerre_ladder(k, d, 0.5 * (z2 + w2))[k]
    P = _finite(np.asarray(P), f"Phi_{a}{b}")
    z2 *= -0.25
    z2 -= shift
    w2 *= -0.25
    return P, (z2, w2)


def _times(P: np.ndarray, terms: dict) -> np.ndarray:
    """P times the polynomial ``terms`` ({(p, q, r, s): c} for c x^p y^q u^r
    v^s), both as coefficient arrays over (x, y, u, v) of P's shape; terms
    past that shape's degree are dropped."""
    out = np.zeros_like(P)
    n = P.shape[0]
    for powers, c in terms.items():
        src = tuple(slice(0, n - e) for e in powers)
        out[tuple(slice(e, n) for e in powers)] += c * P[src]
    return out


def _phi1_poly(a: int, b: int, n: int) -> np.ndarray:
    """Coefficients P[p, q, r, s] of x^p y^q u^r v^s, shape (n,) * 4, with
    Phi_ab(z, w) = P(x, y, u, v) e^{-(z^2 + w^2)/4} at z = x + iy, w = u + iv.

    P = coef zeta^d L_k^d((z^2 + w^2)/2) as in :func:`_phi1`: zeta^d by
    repeated products and L_k^d by the recurrence of
    :func:`mehler.specfun.laguerre_ladder`, both on coefficient arrays.  The
    degree d + 2k must be below n.
    """
    d, k, coef = _phi1_constants(a, b)
    if d + 2 * k >= n:
        raise ValueError(f"Phi_{a}{b} has degree {d + 2 * k}; need n > degree")
    # zeta = z - iw = (x + v) + i(y - u) for a >= b, z + iw = (x - v) + i(y + u)
    sign = 1.0 if a >= b else -1.0
    zeta = {(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1j, (0, 0, 1, 0): -sign * 1j, (0, 0, 0, 1): sign}
    # (z^2 + w^2)/2 = (x^2 - y^2 + u^2 - v^2)/2 + i(xy + uv)
    half_square = {
        (2, 0, 0, 0): 0.5, (0, 2, 0, 0): -0.5, (0, 0, 2, 0): 0.5, (0, 0, 0, 2): -0.5,
        (1, 1, 0, 0): 1j, (0, 0, 1, 1): 1j,
    }
    one = np.zeros((n,) * 4, dtype=complex)
    one[0, 0, 0, 0] = 1.0
    lag_prev, lag = one, (1.0 + d) * one - _times(one, half_square)
    for j in range(1, k):
        lag_prev, lag = lag, (
            (2 * j + 1 + d) * lag - _times(lag, half_square) - (j + d) * lag_prev
        ) / (j + 1.0)
    P = coef * (lag if k else one)
    for _ in range(d):
        P = _times(P, zeta)
    return P


def special_hermite_eval(alpha, beta, z, w):
    """Phi_{alpha beta} at (z, w) in C^2; coordinates broadcast.  A
    multi-index of length other than 1 raises ``ValueError`` (n = 1)."""
    (a,), (b,) = _index_pair(alpha, beta)
    return _phi1(a, b, z, w)


def special_hermite_matrix(a: int, b: int, Z, W):
    """Phi_{ab} on the product of a flat Z-plane array and a flat W-plane
    array, returned as a (len(Z), len(W)) matrix."""
    (a,), (b,) = _index_pair(a, b)
    Z = np.asarray(Z, dtype=complex).ravel()
    W = np.asarray(W, dtype=complex).ravel()
    return _phi1(a, b, Z[:, None], W[None, :])


# ---------------------------------------------------------------------------
# Closed-form twisted profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatProfile:
    """Spectrally normalized twisted heat kernel profile on C^2 (n = 1).

    (2 pi)^{-1} (2 sinh t)^{-1} exp(-coth(t) (z^2 + w^2)/4); this is the
    profile whose twisted convolution reproduces the damped eigenspace sum.
    """

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", as_real("t", self.t, 0.0))

    def __call__(self, z, w):
        q = np.asarray(z) ** 2 + np.asarray(w) ** 2
        pref = ((2.0 * math.pi) * (2.0 * math.sinh(self.t))) ** -1
        return pref * np.exp(-0.25 / math.tanh(self.t) * q)

    def axis_factors(self, a, b):
        """(c, A, B) with the profile at (a, b) equal to
        sum_j c[j] A[j] B[j]: one term, A = e^{-coth(t) a^2/4} and
        B = e^{-coth(t) b^2/4}."""
        c = 0.25 / math.tanh(self.t)
        pref = ((2.0 * math.pi) * (2.0 * math.sinh(self.t))) ** -1
        a, b = np.asarray(a), np.asarray(b)
        return np.array([pref]), np.exp(-c * a * a)[None], np.exp(-c * b * b)[None]


@dataclass(frozen=True)
class LaguerreProfile:
    """phi_k = L_k^0(q/2) e^{-q/4} as an entire function of (z, w) in C^2
    through the bilinear square q = z^2 + w^2, for an order k >= 0."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", as_whole("Laguerre profile order k", self.k))

    def __call__(self, z, w):
        return laguerre_function_entire(self.k, np.asarray(z) ** 2 + np.asarray(w) ** 2)


def _laguerre_factors(ks, a, b):
    """(C, G, H, ia, ib) with phi_{ks[r]} at (a, b) equal to
    sum_t C[r, t] G[ia[t]] H[ib[t]] for every order in ``ks``.

    phi_k has the k + 1 terms c[j] h_{2j}(a/sqrt 2) h_{2k-2j}(b/sqrt 2),
    c[j] = (-1)^k sqrt(pi) sqrt(C(2j, j) C(2k-2j, k-j)) / 2^k, from
    L_k(x^2 + y^2) = (-1)^k / (4^k k!) sum_j C(k, j) H_{2j}(x) H_{2k-2j}(y)
    (Thangavelu 1993) with the Gaussian shared out.  Each |c[j]| is at most
    sqrt(pi), so at real points no term is much larger than the profile's
    bound 1.  Every phi_k reads only even rows of the Hermite ladder at
    a/sqrt 2 and at b/sqrt 2, so G holds the rows h_0, h_2, ..., h_{2K}
    (K the largest order) and H the same rows downwards, h_{2K}, ..., h_0,
    of one ladder for both axes; the term j of phi_k reads G[j] = h_{2j}
    and H[K - k + j] = h_{2k-2j}.  For one profile, G and H are then its
    terms' rows in term order.
    """
    a, b = np.asarray(a), np.asarray(b)
    top = max(ks)
    h = hermite_eval(2 * top, np.concatenate([a.ravel(), b.ravel()]) / math.sqrt(2.0))
    G = h[::2, : a.size].reshape((top + 1,) + a.shape)
    H = h[::-2, a.size :].reshape((top + 1,) + b.shape)
    ia = np.concatenate([np.arange(k + 1) for k in ks])
    C = np.zeros((len(ks), len(ia)))
    start = 0
    for r, k in enumerate(ks):
        central = np.array([float(math.comb(2 * j, j)) for j in range(k + 1)])
        C[r, start : start + k + 1] = (-1) ** k * np.sqrt(math.pi * central * central[::-1]) / 2.0**k
        start += k + 1
    return C, G, H, ia, np.concatenate([top - k + np.arange(k + 1) for k in ks])


def _profile_factors(profiles, a, b):
    """(C, G, H, ia, ib) with profile r of ``profiles`` at (a, b) equal to
    sum_t C[r, t] G[ia[t]] H[ib[t]]; ia and ib are index arrays, or slices
    where term t reads row t.

    Laguerre profiles share the rows of one ladder (:func:`_laguerre_factors`);
    a :class:`HeatProfile` comes alone and gives its one term
    (:meth:`HeatProfile.axis_factors`).  Several profiles that are not all
    Laguerre profiles, or any other profile, raise ``TypeError``.
    """
    if all(isinstance(g, LaguerreProfile) for g in profiles):
        return _laguerre_factors([g.k for g in profiles], a, b)
    if len(profiles) > 1:
        raise TypeError("twisted_conv takes several profiles only as Laguerre profiles")
    if not isinstance(profiles[0], HeatProfile):
        raise TypeError(
            "twisted_conv takes a profile with per-axis factors, a HeatProfile or "
            f"LaguerreProfile, not {type(profiles[0]).__name__}"
        )
    c, G, H = profiles[0].axis_factors(a, b)
    # term t reads row t of each table: a slice, which takes a view
    return c[None, :], G, H, slice(None), slice(None)


def heat_profile(t: float) -> HeatProfile:
    return HeatProfile(t)


def laguerre_profile(k: int) -> LaguerreProfile:
    return LaguerreProfile(k)


@dataclass(frozen=True)
class GaussianImage:
    """Closed form of the twisted heat image of Gaussian2n(a) (n = 1).

    Obtained by completing the square in the defining convolution integral;
    used as an independent oracle for the quadrature routes.
    """

    a: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_real("Gaussian2n width parameter a", self.a, 0.0))
        object.__setattr__(self, "t", as_real("t", self.t, 0.0))

    def __call__(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        g = 0.25 / math.tanh(self.t)
        pref = (2.0 * math.pi) ** -1 * (2.0 * math.sinh(self.t)) ** -1
        kap = 0.5 * self.a + g
        with np.errstate(over="ignore", invalid="ignore"):
            ex = np.exp(-g * (z**2 + w**2))
            ix = np.exp((2 * g * z - 0.5j * w) ** 2 / (4 * kap))
            iu = np.exp((2 * g * w + 0.5j * z) ** 2 / (4 * kap))
            val = pref * (math.pi / kap) * ex * ix * iu
        return _finite(val, "twisted heat image")


# ---------------------------------------------------------------------------
# Pointwise evaluation of twisted functions
# ---------------------------------------------------------------------------


def twisted_eval(f, X, U):
    """Values of f at phase-space points (vectorized): real, or complex
    for the entire continuation of a closed form, a basis member or an
    entire callable."""
    X = np.asarray(X)
    U = np.asarray(U)
    if isinstance(f, SpecialHermiteBasis):
        return special_hermite_eval(f.alpha, f.beta, X, U)
    if isinstance(f, Gaussian2n):
        return _polygauss_eval(*_as_polygauss(f), X, U)
    if callable(f):
        return f(X, U)
    raise TypeError(f"cannot evaluate {type(f).__name__}")


# ---------------------------------------------------------------------------
# Twisted convolution and the twisted semigroup
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def default_twisted_grid(t: float = 0.4) -> PlaneGrid:
    """Trapezoid integration grid for twisted convolutions at desk scale:
    65 nodes per axis.

    Memoized: value-equal calls share one grid and so one node build.
    """
    h = math.sqrt(34.5 / (0.25 + 0.25 / math.tanh(as_real("t", t, 0.0)))) + 3.0
    return PlaneGrid(boxes=((-h, h, -h, h),), resolution=65)


def _gauss_columns(x: np.ndarray, rate: float, n: int) -> np.ndarray:
    """x^j e^{-rate x^2/2} for j < n at the nodes x, shape (n, len(x))."""
    return x ** np.arange(n)[:, None] * np.exp(-0.5 * rate * x * x)


def _axis_form(f, x: np.ndarray, u: np.ndarray):
    """(M, A, B) with f(x_i, u_l) = sum_jk M[j, k] A[j, i] B[k, l] at the
    nodes x and u of a grid's two axes.

    A polynomial Gaussian (:func:`_as_polygauss`) gives its coefficient
    array C against the columns x^j e^{-rate x^2/2} and u^k e^{-rate u^2/2};
    phi_k gives the diagonal of its terms (:func:`_laguerre_factors`).  Any
    other f raises ``TypeError``.
    """
    if isinstance(f, LaguerreProfile):
        C, G, H, ia, ib = _laguerre_factors((f.k,), x, u)
        return np.diag(C[0]), G[ia], H[ib]
    try:
        C, rate = _as_polygauss(f)
    except ValueError:
        raise TypeError(
            "twisted_conv takes a polynomial Gaussian (Gaussian2n or SpecialHermiteBasis) "
            f"or a LaguerreProfile, not {type(f).__name__}"
        ) from None
    return C, _gauss_columns(x, rate, C.shape[0]), _gauss_columns(u, rate, C.shape[1])


def _axis_moments(profiles, z, w, grid: PlaneGrid, A_f: np.ndarray, B_f: np.ndarray):
    """((C, ia, ib), X, U, shape): the moment tables of the profiles against
    an input's x-columns A_f (J, nx) and u-columns B_f (K, nu) on the grid's
    two axes, at the points (z, w) broadcast and flattened, and the
    broadcast shape.

    With profile r at (a, b) equal to sum_t C[r, t] G[ia[t]](a) H[ib[t]](b)
    (:func:`_profile_factors`) and the phase
    e^{-i(xw - zu)/2} = e^{-ixw/2} e^{izu/2},
    X[i, p, j] = sum_x w_x G_i(z_p - x) e^{-i x w_p/2} A_f[j, x] and
    U[l, p, k] = sum_u w_u H_l(w_p - u) e^{i z_p u/2} B_f[k, u]: one real
    matrix product each, for every row and point, and each row serves every
    term that reads it.
    """
    zs, ws = np.broadcast_arrays(np.asarray(z), np.asarray(w))
    shape = zs.shape
    zs, ws = zs.reshape(-1, 1), ws.reshape(-1, 1)
    (x, wx), (u, wu) = grid.axis(0), grid.axis(1)
    with np.errstate(over="ignore", invalid="ignore"):
        C, G, H, ia, ib = _profile_factors(profiles, zs - x, ws - u)
        G = (G * np.exp(-0.5j * x * ws)).reshape(-1, len(x))
        H = (H * np.exp(0.5j * zs * u)).reshape(-1, len(u))
        X = real_matmul(G, (wx * A_f).T).reshape(-1, len(zs), len(A_f))
        U = real_matmul(H, (wu * B_f).T).reshape(-1, len(zs), len(B_f))
    return (C, ia, ib), X, U, shape


def _contract(terms, X: np.ndarray, U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sum_t C[r, t] sum_jk M[j, k] X[ia[t], p, j] U[ib[t], p, k] for every
    profile r and point p, shape (R, P), from the leading columns of the
    moment tables of :func:`_axis_moments`; for a stack M of shape
    (n, J, K), (n, R, P), one block per matrix.  A value past the largest
    double raises :class:`HermiteOverflowError`."""
    C, ia, ib = terms
    J, K = M.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):
        XM = X[..., :J] @ M[..., None, :, :]
        vals = C @ np.sum(XM[..., ia, :, :] * U[ib, :, :K], axis=-1)
    return _finite(vals, "twisted heat image")


def twisted_conv(f, g, z, w, grid: PlaneGrid):
    """(f x g)(z, w) at real or complexified phase-space points.

    ``z`` and ``w`` are scalars, giving a complex, or broadcastable arrays
    of points, giving an array of their broadcast shape.  ``g`` is one
    profile, or a list or tuple of R Laguerre profiles, which adds a
    leading axis of length R (a scalar point gives an array of R values).
    The integration runs over the real plane grid; for complex (z, w) the
    displaced factor g and the phase use the entire continuation of g.

    Both factors come in per-axis form.  The profile ``g`` gives its
    factors (:func:`_profile_factors`): g(a, b) = sum_t c_t G_t(a) H_t(b),
    one term for :class:`HeatProfile` and k + 1 for
    :class:`LaguerreProfile`; Laguerre profiles read the even rows of one
    Hermite ladder, so a set of them shares one ladder and one pair of
    moment tables (:func:`_laguerre_factors`).  The input f is
    sum_jk M[j, k] A_j(x) B_k(u) (:func:`_axis_form`): a polynomial
    Gaussian's coefficients against x^j e^{-rate x^2/2} and
    u^k e^{-rate u^2/2}, or phi_k's k + 1 Hermite products.  The grid is a
    tensor trapezoid and the phase splits as e^{-ixw/2} e^{izu/2}, so each
    term's plane sum is exactly the product of an x-moment table X_t and a
    u-moment table U_t (:func:`_axis_moments`), and the value is
    sum_t c_t diag(X_t M U_t^T): no table of f over the plane is formed.
    Any other f, a profile that is neither, or several profiles that are
    not all Laguerre profiles, raise ``TypeError``; a value past
    the largest double raises :class:`HermiteOverflowError`.
    """
    several = isinstance(g, (list, tuple))
    profiles = tuple(g) if several else (g,)
    if not profiles:
        raise ValueError("g must name at least one profile")
    z, w = as_finite("z", z), as_finite("w", w)
    (x, _), (u, _) = grid.axis(0), grid.axis(1)
    M, A, B = _axis_form(f, x, u)
    terms, X, U, shape = _axis_moments(profiles, z, w, grid, A, B)
    vals = _contract(terms, X, U, M)
    if several:
        return vals.reshape((len(profiles),) + shape)
    return complex(vals[0, 0]) if not shape else vals[0].reshape(shape)


def special_semigroup_apply(f, t: float, z, w):
    """Twisted heat semigroup applied to f, evaluated at (z, w) in C^2: the
    twisted convolution with the spectrally normalized heat profile on
    :func:`default_twisted_grid`.  Takes arrays of points as
    :func:`twisted_conv` does, and on basis members reproduces the
    eigenvalue damping e^{-(2|beta|+1) t}.
    """
    return twisted_conv(f, heat_profile(t), z, w, default_twisted_grid(t))


def laguerre_project(f, k, z, w, grid: PlaneGrid):
    """Eigenspace projection (2 pi)^{-n} (f x phi_k) at real points: a
    complex for scalars, an array for arrays, as :func:`twisted_conv`.
    ``k`` is one order, or a sequence of R orders, which adds a leading
    axis of length R: every projection then reads one ladder and one pair
    of moment tables."""
    if np.ndim(k) and not len(k):
        raise ValueError("k must name at least one order")
    g = [laguerre_profile(j) for j in k] if np.ndim(k) else laguerre_profile(k)
    return twisted_conv(f, g, z, w, grid) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Intertwining relations
# ---------------------------------------------------------------------------


def _as_polygauss(f) -> tuple[np.ndarray, float]:
    """(C, a) with f = sum C[j, k] x^j u^k e^{-a (x^2 + u^2)/2} on the real
    plane, exactly.

    A Gaussian is C = [[1]].  A basis member is P(x, y, u, v)
    e^{-(z^2 + w^2)/4} (:func:`_phi1_poly`); at y = v = 0 that is the
    polynomial P(x, 0, u, 0) times e^{-(x^2 + u^2)/4}, the width a = 1/2.
    Any other input raises ``ValueError``.
    """
    if isinstance(f, Gaussian2n):
        return np.ones((1, 1)), f.a
    if isinstance(f, SpecialHermiteBasis):
        (a,), (b,) = f.alpha, f.beta
        return _phi1_poly(a, b, abs(a - b) + 2 * min(a, b) + 1)[:, 0, :, 0], 0.5
    raise ValueError(
        "the intertwining checks take a polynomial Gaussian (Gaussian2n or "
        f"SpecialHermiteBasis), not {type(f).__name__}"
    )


def _polygauss_eval(C: np.ndarray, a: float, X, U):
    """sum C[j, k] X^j U^k e^{-a (X^2 + U^2)/2}, broadcast over X and U."""
    acc = 0.0
    for j, k in zip(*np.nonzero(C)):
        acc = acc + C[j, k] * X**j * U**k
    return acc * np.exp(-0.5 * a * (X**2 + U**2))


def _lower(C: np.ndarray, rate: float, a: float, axis: int) -> np.ndarray:
    """Coefficients of (d/dx - a x) f (axis 0) or (d/du - a u) f (axis 1)
    for f = sum C[j, k] x^j u^k e^{-rate (x^2 + u^2)/2}, exactly; one
    power longer on both axes, so the two operators' results add."""
    if axis:
        return _lower(C.T, rate, a, 0).T
    n, m = C.shape
    out = np.zeros((n + 1, m + 1), dtype=complex)
    out[: n - 1, :m] = np.arange(1, n)[:, None] * C[1:]
    out[1:, :m] -= (rate + a) * C
    return out


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

    def passes(self) -> bool:
        """Whether both relations hold to 1e-6."""
        return self.residual <= 1e-6


_DEFAULT_POINTS = (
    (0.7 + 0.3j, -0.4 + 0.6j),
    (0.2 - 0.5j, 1.0 + 0.2j),
    (-1.1 + 0.4j, 0.3 - 0.7j),
    (0.5, -0.8),
    (1.2 + 0.1j, 0.9 + 0.5j),
)
_POINT_Z, _POINT_W = np.asarray(_DEFAULT_POINTS, dtype=complex).T


def intertwine_check(f, t: float) -> tuple[IntertwineReport, IntertwineReport]:
    """Residuals of both first-order relations under each sign convention.

    The two candidate conventions a = +coth(t)/2 and a = -coth(t)/2 differ
    in this sign; the reports come as the (+, -) pair, both read against
    one image e^{-tL} f.  The image and the two left sides of each sign are
    five polynomial Gaussians of one width, contracted against one pair of
    heat-profile moment tables (:func:`_heat_images`).  For each point of
    ``_DEFAULT_POINTS`` the relation residual |LHS - RHS| / (1 + |RHS|) is
    evaluated with the left side computed through the semigroup quadrature
    and the right side through the coordinate multipliers; each report
    keeps the max over points.
    """
    t = as_real("t", t, 0.0)
    b = 0.5j

    C, rate = _as_polygauss(f)
    z, w = _POINT_Z, _POINT_W
    lowered = [
        _lower(C, rate, sign * 0.5 / math.tanh(t), axis) for sign in (+1, -1) for axis in (0, 1)
    ]
    Ef, *lhs = _heat_images([C, *lowered], rate, t)

    def report(convention: int, lhs_x, lhs_u) -> IntertwineReport:
        a = convention * 0.5 / math.tanh(t)
        return IntertwineReport(
            convention=convention,
            a_value=a,
            residual_x=_max_residual(lhs_x, (-a * z + b * w) * Ef),
            residual_u=_max_residual(lhs_u, -(b * z + a * w) * Ef),
            points=_DEFAULT_POINTS,
        )

    return report(+1, *lhs[:2]), report(-1, *lhs[2:])


def _heat_images(arrays, rate: float, t: float) -> list[np.ndarray]:
    """e^{-tL} of sum C[j, k] x^j u^k e^{-rate (x^2 + u^2)/2} at the points
    of ``_DEFAULT_POINTS``, for each coefficient array C in ``arrays``: the
    convolution of :func:`special_semigroup_apply`, with every array
    contracted (:func:`_contract`) against one pair of heat-profile moment
    tables that runs to the largest powers among them.  The arrays are
    stacked, padded with zeros, and contracted in one pass."""
    grid = default_twisted_grid(t)
    (x, _), (u, _) = grid.axis(0), grid.axis(1)
    stack = np.zeros((len(arrays), *np.max([C.shape for C in arrays], axis=0)), dtype=complex)
    for C, padded in zip(arrays, stack):
        padded[: C.shape[0], : C.shape[1]] = C
    terms, X, U, _ = _axis_moments(
        (heat_profile(t),), _POINT_Z, _POINT_W, grid,
        _gauss_columns(x, rate, stack.shape[1]), _gauss_columns(u, rate, stack.shape[2]),
    )
    return list(_contract(terms, X, U, stack)[:, 0])


def _max_residual(lhs, rhs) -> float:
    """max |lhs - rhs| / (1 + |rhs|) over the points."""
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


def composed_intertwine_residual(f, t: float) -> float:
    """Residual of the composed relation e^{-tL}(T f) = z w e^{-tL} f at
    the points of ``_DEFAULT_POINTS``.

    T is assembled from the validated first-order relations: with
    D_x = d/dx - a x, D_u = d/du - a u and d = a^2 + b^2, the operators
    Z = (-a D_x - b D_u)/d and W = (b D_x - a D_u)/d extract the z and w
    coordinate multipliers, and T = Z o W.
    """
    t = as_real("t", t, 0.0)
    C, rate = _as_polygauss(f)
    a = 0.5 / math.tanh(t)
    b = 0.5j
    det = a * a + b * b

    def op_zw(P, c_x: complex, c_u: complex) -> np.ndarray:
        return (c_x * _lower(P, rate, a, 0) + c_u * _lower(P, rate, a, 1)) / det

    Tf = op_zw(op_zw(C, b, -a), -a, -b)

    Ef, lhs = _heat_images([C, Tf], rate, t)
    return _max_residual(lhs, _POINT_Z * _POINT_W * Ef)


# ---------------------------------------------------------------------------
# Weighted norms on C^2 and envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialEigenHandle(EntireHandle):
    """Twisted heat image of a basis member: e^{-(2|b|+1)t} Phi_ab on C^2
    (n = 1; its grids are the four real axes of one (z, w) pair).

    Its modulus is ``reflection_invariant``: rho_1 (z, w) -> (-conj z,
    conj w) and rho_2 (z, w) -> (conj z, -conj w) take zeta = z -+ iw to
    -conj zeta and conj zeta, and z^2 + w^2 to its conjugate, so
    P = coef zeta^d L_k^d((z^2 + w^2)/2) goes to +-conj P (L_k^d has real
    coefficients), while Re(z^2 + w^2) does not change."""

    reflection_invariant = True

    alpha: MultiIndex
    beta: MultiIndex
    time: float

    def __post_init__(self):
        alpha, beta = _index_pair(self.alpha, self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "time", as_real("time", self.time, 0.0))

    def _damp(self) -> float:
        lam = oscillator_eigenvalue(self.beta)
        return math.exp(-lam * self.time)

    def eval_grid_parts(self, X, Y, U, V):
        """(P, (E_z, E_w)) of :func:`_phi1_parts`: the exponent
        log damp - (z^2 + w^2)/4 as the pair of its (x, y) table, which
        carries log damp, and its (u, v) table."""
        Z = np.asarray(X) + 1j * np.asarray(Y)
        W = np.asarray(U) + 1j * np.asarray(V)
        lam_t = oscillator_eigenvalue(self.beta) * self.time
        return _phi1_parts(self.alpha[0], self.beta[0], Z, W, shift=lam_t)


class GaussianImageHandle(ClosedFormHandle):
    """Twisted heat image of a Gaussian on C^2 (n = 1): the closed form
    ``fn``, a :class:`GaussianImage`, at (X + iY, U + iV).

    Its modulus is ``reflection_invariant``: the exponent of the closed
    form is -g (z^2 + w^2) + ((2g z - iw/2)^2 + (2g w + iz/2)^2) / (4 kappa),
    whose cross terms cancel, so it is a real multiple of z^2 + w^2, and
    rho_1 and rho_2 take z^2 + w^2, and each factor of the closed form, to
    its conjugate."""

    reflection_invariant = True


def special_image_handle(f, t: float) -> EntireHandle:
    """Image of a twisted test function under the twisted heat semigroup,
    in a form evaluable on 4-dimensional grids."""
    if isinstance(f, SpecialHermiteBasis):
        return SpecialEigenHandle(f.alpha, f.beta, t)
    if isinstance(f, Gaussian2n):
        return GaussianImageHandle(GaussianImage(f.a, t))
    raise ValueError(
        "4-D scans support basis members and Gaussians; other members are "
        "available pointwise through special_semigroup_apply"
    )


def default_special_grid(t: float = 0.4, resolution: int = 40) -> PlaneGrid:
    """Grid over C^2 sized for |Phi_ab|^2 W_t integrands (n = 1), out to
    where the m = 0 integrand has dropped to 1e-12.

    The weighted integrand decays like exp(-(u-y)^2/2 - (coth 2t - 1) y^2)
    in the (u, y) pair and symmetrically in (x, v), so the real-part boxes
    must be wider than the imaginary-part boxes by the shear.  On an
    analytic integrand with Gaussian decay the trapezoid rule converges
    geometrically, where Gauss-Legendre spent its nodes near the box edges
    (at resolution 32 and t = 0.4, the calibrated isometry was off by 2e-14
    against 2e-6).
    """
    t = as_real("t", t, 0.0)
    budget = -math.log(1e-12)
    c = 2.0 / math.expm1(4 * t)  # coth 2t - 1, without the cancellation
    h_im = math.sqrt(budget / c) + 1.5
    h_re = math.sqrt(budget * (1 + 2 * c) / c) + 1.5
    box_z = (-h_re, h_re, -h_im, h_im)
    box_w = (-h_re, h_re, -h_im, h_im)
    return PlaneGrid(boxes=(box_z, box_w), resolution=resolution)


def _folded_tables(grid: PlaneGrid, t: float, m: int, n: int):
    """The probe Gaussian folded into d^{2m}/dt^{2m} W_t as moment tables
    over x and u (n = 1), one set per rule: the grid's, and the nested rule
    of twice the step.

    With c = coth 2t, |e^{-(z^2 + w^2)/4}|^2 times d^{2m}/dt^{2m} W_t is
    4 A(x, v) B(y, u) R_m(y^2 + v^2) with A = e^{-(x + v)^2/2 - (c - 1) v^2},
    B = e^{-(u - y)^2/2 - (c - 1) y^2}, both at most 1, and R_m the
    polynomial of :func:`mehler.kernels._twisted_profile_jet`.  Each set is
    (alpha, beta, R_m, (y, w_y), (v, w_v)) with alpha[k, v] = sum_x w_x x^k
    A(x, v) and beta[k, y] = sum_u w_u u^k B(y, u) for k < 2n - 1.  A, B and
    R_m are built once, and the nested rule reads every second node of them
    and of each axis from node 0, at twice its weight (on an even grid, the
    last node's weight is off, where the integrand has decayed).
    """
    (x, wx), (y, wy), (u, wu), (v, wv) = map(grid.axis, range(4))
    g = 2.0 / math.expm1(4 * t)  # coth 2t - 1
    A = np.exp(-0.5 * np.add.outer(x, v) ** 2 - g * v**2)
    B = np.exp(-0.5 * np.subtract.outer(u, y) ** 2 - g * y**2)
    R = _twisted_profile_jet(t, m, np.add.outer(y * y, v * v))
    powers = np.arange(2 * n - 1)
    rules = []
    for step in (1, 2):
        s = slice(None, None, step)
        alpha = real_matmul((step * wx[s, None] * x[s, None] ** powers).T, A[s, s])
        beta = real_matmul((step * wu[s, None] * u[s, None] ** powers).T, B[s, s])
        rules.append((alpha, beta, R[s, s], (y[s], step * wy[s]), (v[s], step * wv[s])))
    return rules


def _plane_sums(pairs, t: float, m: int, grid: PlaneGrid) -> list[tuple]:
    """(sum, half-step sum, sum of moduli) of the quadrature terms of
    int P conj(Q) |e^{-(z^2 + w^2)/4}|^2 d^{2m}/dt^{2m} W_t over the grid,
    for each pair (P, Q) of coefficient arrays over (x, y, u, v) in
    ``pairs``, all of one shape (k,) * 4 with k above the degree of
    P conj(Q).

    Summed over x and u, the terms of P conj(Q) A B are the (y, v) plane
    sum PQ[j, q, l, s] y^q beta[l, y] alpha[j, v] v^s w_y w_v over the
    coefficients PQ of P conj(Q) and the tables of :func:`_folded_tables`,
    built once for all pairs: two real matrix products.  The plane meets
    the jet R_m on the (y, v) table, at each of the two rules.  A pair
    (P, P) sums the real |P|^2 and gives real sums.
    """
    k = pairs[0][0].shape[0]
    middles = []
    for P, Q in pairs:
        PQ = _times(P, {idx: np.conj(Q[idx]) for idx in zip(*np.nonzero(Q))})
        if Q is P:
            PQ = PQ.real
        middles.append(PQ.transpose(1, 2, 0, 3).reshape(k * k, k * k))
    powers = np.arange(k)
    sums = []
    for alpha, beta, R, (y, wy), (v, wv) in _folded_tables(grid, t, m, (k + 1) // 2):
        left = (y[:, None, None] ** powers[:, None] * beta.T[:, None, :]).reshape(len(y), -1)
        right = (alpha[:, None, :] * v ** powers[:, None]).reshape(-1, len(v))
        abs_R = np.abs(R)
        row = []
        for middle in middles:
            plane = wy[:, None] * real_matmul(real_matmul(left, middle), right) * wv
            total = 4.0 * np.sum(plane * R).item()
            row.append((total, 4.0 * float(np.sum(np.abs(plane) * abs_R))))
        sums.append(row)
    return [(total, half, size) for (total, size), (half, _) in zip(*sums)]


def bergman_norm_special(
    handle: SpecialEigenHandle,
    t: float,
    m: int,
    grid: PlaneGrid,
    kappa_star: float = 1.0,
) -> float:
    """kappa* int |F|^2 d^{2m}/dt^{2m} W_t over C^2 (n = 1 only), for F the
    twisted heat image of a basis member (a :class:`SpecialEigenHandle`;
    any other handle raises ``TypeError``).

    F = damp P e^{-(z^2 + w^2)/4} with P a polynomial (:func:`_phi1_poly`),
    and the integral is damp^2 times the weighted form of (P, P) that the
    calibration probes also sum (:func:`_plane_sums`): the Gaussian's
    squared modulus folds into W_t as an (x, v) and a (y, u) table, each at
    most 1, and the coefficients of |P|^2 contract against them into a
    (y, v) plane that meets the jet R_m.  Nothing spans more than one axis
    pair, so memory stays at a few (y, v) tables at any resolution, and no
    exponent overflows on the wide boxes of moderate t.  The finish is the
    one of the norms on C (:func:`mehler.semigroup._finish_norm`): a grid
    too coarse for the integrand's ridges (e^{-(x + v)^2/2} has unit width
    at every t, while the default box grows with t) raises
    :class:`mehler.quadrature.QuadratureError`.
    """
    if not isinstance(handle, SpecialEigenHandle):
        raise TypeError(
            f"the twisted norm takes a SpecialEigenHandle, not {type(handle).__name__}"
        )
    t, kappa_star = as_real("t", t, 0.0), as_real("kappa_star", kappa_star, 0.0)
    _check_grid(grid, 2)
    m = as_whole("weighted-norm order m", m)
    a, b = handle.alpha[0], handle.beta[0]
    P = _phi1_poly(a, b, 2 * (abs(a - b) + 2 * min(a, b)) + 1)
    ((total, half, size),) = _plane_sums([(P, P)], t, m, grid)
    damp2 = handle._damp() ** 2
    return kappa_star * _finish_norm(damp2 * total, damp2 * half, damp2 * size, grid)


def calibrate_weight_special(
    t: float, pairs: list[tuple] | None, grid: PlaneGrid
) -> CalibrationResult:
    """Calibration constant kappa* of the twisted Bergman weight (n = 1).

    Diagonal probes integrate |Phi_ab|^2 W_t; ratios
    e^{2(2|b|+1)t} / integral must be flat over (a, b); off-diagonals
    between the first pair and the next two must vanish.  kappa* comes out
    near 1/2: the weight is built from the (2 pi sinh t)^{-1}-normalized
    profile, 2 times the spectral one.

    Every probe is the weighted form of :func:`_plane_sums` at order 0 on
    the probes' polynomials (:func:`_phi1_poly`), the form the norms sum,
    and the finish is the one of the calibration on C
    (:func:`mehler.semigroup._finish_calibration`).
    """
    t = as_real("t", t, 0.0)
    _check_grid(grid, 2)
    if pairs is None:
        pairs = [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    pairs = _check_probes("pairs", [(as_index(a), as_index(b)) for a, b in pairs])

    degree = max(abs(a[0] - b[0]) + 2 * min(a[0], b[0]) for a, b in pairs)
    polys = [_phi1_poly(a[0], b[0], 2 * degree + 1) for a, b in pairs]
    probes = [(P, P) for P in polys] + [(polys[0], Q) for Q in polys[1:3]]
    sums = _plane_sums(probes, t, 0, grid)
    return _finish_calibration(
        pairs, [oscillator_eigenvalue(b) for _, b in pairs], sums[: len(pairs)],
        (total for total, _, _ in sums[len(pairs) :]), t, grid, 1e-2,
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
    ("special-plain").  The scan is :func:`mehler.semigroup.envelope`; for
    a basis member or a Gaussian on a grid symmetric about 0 it walks the
    quarter x <= 0, y <= 0 of the refined grid (``reflection_invariant``
    on :class:`SpecialEigenHandle` and :class:`GaussianImageHandle`).
    """
    _check_grid(grid, 2)
    if kind == "special-schwartz":
        bound = special_schwartz_bound(t, m)
    elif kind == "special-plain":
        bound = special_plain_bound(t, m)
    else:
        raise ValueError(f"unknown envelope kind {kind!r}")
    return envelope(special_image_handle(f, t), bound, grid)
