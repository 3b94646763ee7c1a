"""Reference values computed without the package under test.

Every benchmark op is checked against one of these routes, all written
here from the closed forms in the package README:

* the Mehler kernel K_t(z, w) in closed form, for point masses;
* kernel-mode quadrature for Gaussian-type inputs p(u) e^{-a u^2/2}: the
  u-integral of K_t(z, u) f(u) is a Gaussian times a polynomial, so after
  completing the square and shifting the contour a short Gauss-Hermite
  rule integrates it exactly;
* mpmath sums of finite Hermite expansions (prepared off the clock);
* closed-form norms and suprema: the 2^{2m} lam^{2m} derivative-weight
  identity, kappa = (2 pi)^{-1/2}, and the grid maxima of closed-form
  images against the growth bounds.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
from numpy.polynomial.hermite import hermgauss, hermval

_GH_NODES, _GH_WEIGHTS = hermgauss(24)
MP_DPS = 24


def mehler_closed(t: float, z, w):
    """K_t(z, w) = (2 pi sinh 2t)^{-1/2} exp(-coth(2t)(z^2+w^2)/2 + zw/sinh 2t)."""
    s = math.sinh(2 * t)
    c = math.cosh(2 * t) / s
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return (2 * math.pi * s) ** -0.5 * np.exp(-0.5 * c * (z * z + w * w) + z * w / s)


def gaussian_image(coeffs, a: float, t: float, z):
    """e^{-tH} of p(u) e^{-a u^2/2} at z (p low order first), by quadrature.

    K_t(z, u) f(u) = pref e^{-c z^2/2} p(u) e^{-beta u^2 + z u / s} with
    beta = (c + a)/2; the substitution u = mu + v / sqrt(beta),
    mu = z / (2 beta s), leaves p(mu + v/sqrt(beta)) e^{-v^2}, which a
    24-point Gauss-Hermite rule integrates exactly for deg p <= 47.
    """
    s = math.sinh(2 * t)
    c = math.cosh(2 * t) / s
    beta = 0.5 * (c + a)
    z = np.asarray(z, dtype=complex)
    mu = z / (2 * beta * s)
    u = mu[..., None] + _GH_NODES / math.sqrt(beta)
    p = np.zeros_like(u)
    for coef in reversed(coeffs):
        p = p * u + coef
    integral = np.sum(_GH_WEIGHTS * p, axis=-1) / math.sqrt(beta)
    pref = (2 * math.pi * s) ** -0.5
    return pref * np.exp(-0.5 * c * z * z + beta * mu * mu) * integral


def basis_image(k: int, t: float, z):
    """e^{-(2k+1)t} h_k(z) through numpy's physicists' Hermite series."""
    z = np.asarray(z, dtype=complex)
    norm = (2.0**k * math.factorial(k) * math.sqrt(math.pi)) ** -0.5
    series = np.zeros(k + 1)
    series[k] = 1.0
    return math.exp(-(2 * k + 1) * t) * norm * hermval(z, series) * np.exp(-0.5 * z * z)


def stft_gaussian(b: float, a: float, c: float, z):
    """T_a of e^{-b u^2/2}: (2 pi)^{-1/2} c sqrt(2 pi/(a+b)) e^{-z^2/(2(a+b))}."""
    z = np.asarray(z, dtype=complex)
    return c * (a + b) ** -0.5 * np.exp(-z * z / (2 * (a + b)))


def finite_expansion_mp(coeffs: dict, t: float, z: complex):
    """sum_k c_k e^{-(2k+1)t} h_k(z) in mpmath, with the sum of the term
    moduli (the scale against which a double-precision sum is judged).

    Returns (F as a Python complex, log of the scale).  The caller keeps
    the scale below the double range, so F fits a double.
    """
    with mpmath.workdps(MP_DPS):
        kmax = max(coeffs)
        up, down = _ladder_factors(kmax)
        zm = mpmath.mpc(z.real, z.imag)
        damp_step = mpmath.exp(-2 * mpmath.mpf(t))
        damp = mpmath.exp(-mpmath.mpf(t))
        h_prev = mpmath.mpc(0)
        h_cur = mpmath.power(mpmath.pi, -0.25) * mpmath.exp(-zm * zm / 2)
        total = mpmath.mpc(0)
        scale = mpmath.mpf(0)
        for k in range(kmax + 1):
            c = coeffs.get(k)
            if c:
                term = (c * damp) * h_cur
                total += term
                scale += abs(term)
            h_prev, h_cur = h_cur, (zm * up[k]) * h_cur - down[k] * h_prev
            damp *= damp_step
        return complex(total), float(mpmath.log(scale))


@lru_cache(maxsize=None)
def _ladder_factors(kmax: int):
    """sqrt(2/(k+1)) and sqrt(k/(k+1)) as mpf, k = 0..kmax."""
    with mpmath.workdps(MP_DPS):
        up = [mpmath.sqrt(mpmath.mpf(2) / (k + 1)) for k in range(kmax + 1)]
        down = [mpmath.sqrt(mpmath.mpf(k) / (k + 1)) for k in range(kmax + 1)]
    return up, down


def log_scale_estimate(coeffs: dict, t: float, z: complex) -> float:
    """Float estimate of log sum_k |c_k e^{-(2k+1)t} h_k(z)|, used only to
    place sample points before the mpmath value is taken."""
    kmax = max(coeffs)
    log_base = -0.25 * math.log(math.pi) - 0.5 * (z * z).real
    p_prev, p_cur, shift = 0j, 1 + 0j, 0.0
    terms = []
    for k in range(kmax + 1):
        c = coeffs.get(k)
        if c and p_cur:
            terms.append(math.log(abs(c) * abs(p_cur)) + shift - (2 * k + 1) * t)
        p_prev, p_cur = p_cur, z * math.sqrt(2 / (k + 1)) * p_cur - math.sqrt(k / (k + 1)) * p_prev
        big = max(abs(p_prev), abs(p_cur))
        if big > 1e100:
            p_prev, p_cur, shift = p_prev / big, p_cur / big, shift + math.log(big)
    peak = max(terms)
    return log_base + peak + math.log(sum(math.exp(v - peak) for v in terms))


def sobolev_image_norm(coeffs: dict, m: int) -> float:
    """2^{2m} sum_k (2k+1)^{2m} |c_k|^2: the calibrated order-m weighted
    norm of the heat image of sum c_k h_k (derivative-weight identity)."""
    return 4.0**m * sum((2 * k + 1) ** (2 * m) * abs(c) ** 2 for k, c in coeffs.items())


def trapezoid_nodes(box, resolution: int):
    """Flattened x, y nodes of a uniform grid including the box edges."""
    x = np.linspace(box[0], box[1], resolution)
    y = np.linspace(box[2], box[3], resolution)
    X, Y = np.meshgrid(x, y, indexing="ij")
    return X.ravel(), Y.ravel()


def log_bound(kind: str, t: float, m: int, X, Y, a: float = 0.0):
    """Log of the growth bounds the envelope scans divide by."""
    r2 = X * X + Y * Y
    if kind in ("sobolev-embed", "schwartz-image"):
        return -2 * m * np.log1p(r2) - math.tanh(2 * t) * X * X + Y * Y / math.tanh(2 * t)
    if kind == "tempered":
        return 2 * m * np.log1p(r2) - math.tanh(2 * t) * X * X + Y * Y / math.tanh(2 * t)
    if kind == "pw-stft":
        return m * np.log1p(r2) + Y * Y / (2.0 * a)
    raise ValueError(kind)


def grid_sup(log_num, log_den) -> float:
    """max over nodes of exp(log_num - log_den)."""
    return float(np.exp(np.max(log_num - log_den)))
