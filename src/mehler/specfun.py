"""Numerically stable Hermite and Laguerre function evaluation.

The basic objects are the L^2-normalized Hermite functions

    h_k(z) = (2^k k! sqrt(pi))^(-1/2) H_k(z) exp(-z^2/2),

entire functions of z, evaluated by the forward three-term recurrence

    h_{k+1}(z) = z sqrt(2/(k+1)) h_k(z) - sqrt(k/(k+1)) h_{k-1}(z)

seeded with h_0(z) = pi^(-1/4) exp(-z^2/2).  Off the real axis |h_k(x+iy)|
grows like exp(y^2/2), so one rescaled recurrence over arrays of points
carries only the polynomial parts P_k = h_k / h_0 and keeps the Gaussian
factor and the scale as exponents.  It yields per-order log-domain values
(:func:`hermite_log_ladder`, :func:`hermite_log_eval` for one order) and
never overflows at desk scale (|Im z| <= 30, k <= 128).

Weighted sums sum_k c_k h_k(z) over arrays of points
(:func:`hermite_series_parts`) need no per-order values: one backward
Clenshaw sweep (Clenshaw, "A note on the summation of Chebyshev series",
1955)

    beta_k = c_k + a_k z beta_{k+1} - b_{k+1} beta_{k+2},
    a_k = sqrt(2/(k+1)), b_k = sqrt(k/(k+1)),

gives sum_k c_k P_k(z) = beta_0, in place on three buffers.  The same sweep
on |c_k| at r = max|z| bounds every |beta_k|; only when that majorant
passes 1e290 (far outside desk scale) is the series summed inside the
rescaled recurrence instead.  The sum comes in split form, P e^E: P = beta_0
and E = log h_0(z) = LOG_H0 - z^2/2, whose real part (y^2 - x^2)/2
separates over the real axes of a grid.  Grid consumers join E with
Gaussians of their own (a weight, a kernel, a bound) before any
exponential is taken, so a modulus that only the product keeps finite
never overflows.

Every split form in the package, here and on C^2, where the exponent is a
pair of per-coordinate tables, is multiplied out by one finish,
:func:`mul_exp_parts`: factor by factor where each exponent's real part is
small enough that no factor can overflow or vanish where the product fits,
and in log form (:func:`mul_exp`) elsewhere.

A value whose modulus does not fit a double raises
:class:`HermiteOverflowError`.  :func:`hermite_eval` is the plain
linear-domain ladder for real or near-real nodes; it raises the same error
when its top order leaves the doubles.

Laguerre polynomials L_k^a and the Laguerre functions

    phi_k(z) = L_k^{n-1}(|z|^2/2) exp(-|z|^2/4),   z in C^n,

are evaluated by the standard recurrence in k at fixed type a.
"""

import math

import numpy as np

from .indices import as_index, as_point

LOG_H0 = -0.25 * math.log(math.pi)  # log of h_0(0)

LOG_DBL_MAX = float(np.log(np.finfo(float).max))

_RESCALE = 1e140
_RESCALE_PART = _RESCALE / math.sqrt(2.0)
_SWEEP_LIMIT = 1e290


class HermiteOverflowError(OverflowError):
    """A Hermite-series value whose modulus exceeds the largest double."""


def _finite(vals, what: str, where: str = "at a requested point"):
    """``vals``, or :class:`HermiteOverflowError` saying that ``what``
    exceeds the largest double ``where`` one of them is not finite."""
    if not np.all(np.isfinite(vals)):
        raise HermiteOverflowError(f"{what} exceeds the largest double {where}")
    return vals


def _check_finite(z) -> np.ndarray:
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("argument must be finite")
    return z


def hermite_eval(k_max: int, z) -> np.ndarray:
    """Normalized Hermite functions h_0(z), ..., h_{k_max}(z).

    Parameters
    ----------
    k_max : int
        Highest order, >= 0.
    z : scalar or ndarray, real or complex
        Evaluation point(s); the entire extension is used off the real axis.

    Returns
    -------
    ndarray of shape (k_max + 1,) + shape(z)
        Entry k is h_k(z).  Real input gives a real array.

    Raises
    ------
    HermiteOverflowError
        If h_{k_max}(z) is not finite.  Once a row overflows every later
        row is inf or NaN, so the top row decides.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    z = _check_finite(z)
    dtype = complex if np.iscomplexobj(z) else float
    z = np.asarray(z, dtype=dtype)
    out = np.empty((k_max + 1,) + z.shape, dtype=dtype)
    # an overflowing ladder is reported below by name, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out[0] = math.pi ** -0.25 * np.exp(-(z**2) / 2.0)
        if k_max >= 1:
            out[1] = math.sqrt(2.0) * z * out[0]
        for k in range(1, k_max):
            out[k + 1] = (
                z * math.sqrt(2.0 / (k + 1)) * out[k]
                - math.sqrt(k / (k + 1.0)) * out[k - 1]
            )
    _finite(
        out[k_max], f"h_{k_max}", "at a requested point; use hermite_log_ladder off the real axis"
    )
    return out


def _poly_parts(k_max: int, z: np.ndarray):
    """Yield (P_k, m_k) for k = 0, ..., k_max over the complex points ``z``.

    P_k = h_k / h_0, except that where max(|P_{k-1}|, |P_k|) passes 1e140
    both are divided by it; ``m_k`` holds those divisors (1 elsewhere), or
    is None when step k rescaled no point.  So h_k = h_0 P_k prod_{j<=k} m_j.
    P_k is computed in the buffer of P_{k-2}, so use it before the
    generator advances twice.
    """
    prev, cur = np.zeros_like(z), np.ones_like(z)
    yield cur, None
    for j in range(k_max):
        a, b = math.sqrt(2.0 / (j + 1)), math.sqrt(j / (j + 1.0))
        prev *= -b
        prev += z * a * cur
        prev, cur = cur, prev
        # |P_{k-1}| <= 1e140 holds after every step, so only P_k can pass;
        # max(|Re|, |Im|) <= 1e140 / sqrt(2) rules that out without np.abs.
        m = None
        if np.abs(cur.reshape(-1).view(float)).max() > _RESCALE_PART:
            m = np.maximum(np.abs(prev), np.abs(cur))
            m = np.where(m > _RESCALE, m, 1.0)
            prev /= m
            cur /= m
        yield cur, m


def hermite_log_ladder(k_max: int, z) -> tuple[np.ndarray, np.ndarray]:
    """(log|h_k(z)|, arg h_k(z)) for k = 0, ..., k_max, overflow-safe.

    Returns two real arrays of shape (k_max + 1,) + shape(z).  The Gaussian
    seed contributes its exponent -z^2/2 directly and the polynomial part
    comes from one rescaled recurrence, so no intermediate overflows.  The
    argument is not reduced to (-pi, pi]; zeros give log|h_k| = -inf.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    z = np.asarray(_check_finite(z), dtype=complex)
    parts = np.empty((k_max + 1,) + z.shape, dtype=complex)
    log_m = np.zeros((k_max + 1,) + z.shape)
    for k, (p, m) in enumerate(_poly_parts(k_max, z)):
        parts[k] = p
        if m is not None:
            log_m[k] = np.log(m)
    shift = np.cumsum(log_m, axis=0)
    x, y = z.real, z.imag
    # -z^2/2 = -(x^2 - y^2)/2 - i x y
    with np.errstate(divide="ignore"):
        log_mod = LOG_H0 - 0.5 * (x * x - y * y) + shift + np.log(np.abs(parts))
    return log_mod, np.angle(parts) - x * y


def hermite_log_eval(k: int, z) -> tuple[float, float]:
    """(log|h_k(z)|, arg h_k(z)) at a scalar z: the last row of
    :func:`hermite_log_ladder`, with the argument likewise unreduced."""
    log_mod, arg = hermite_log_ladder(k, complex(z))
    return float(log_mod[k]), float(arg[k])


def _sweep_constants(c: np.ndarray) -> tuple[list, list]:
    """(c_k / s_k, g_k) for the scaled Clenshaw sweep of
    :func:`hermite_series_parts`.

    The scales s_0 = s_1 = 1, s_{k+2} = s_k / b_{k+1} (so s_k grows like
    k^{1/4}) turn beta_k = c_k + a_k z beta_{k+1} - b_{k+1} beta_{k+2} into
    e_k = c_k / s_k + g_k z e_{k+1} - e_{k+2} for e_k = beta_k / s_k, with
    g_k = a_k s_{k+1} / s_k: one multiply fewer per step, and e_0 = beta_0.
    """
    top = len(c) - 1
    s = np.ones(top + 2)
    for k in range(top):
        s[k + 2] = s[k] * math.sqrt((k + 2) / (k + 1.0))
    k = np.arange(top + 1)
    g = np.sqrt(2.0 / (k + 1)) * s[1:] / s[:-1]
    return (c / s[:-1]).tolist(), g.tolist()


def _majorant(c: list, g: list, r: float) -> float:
    """max_k M_k for M_k = |c_k| + g_k r M_{k+1} + M_{k+2}: the same sweep
    on moduli, so M_k bounds |e_k| at every point with |z| <= r."""
    m1 = m2 = peak = 0.0
    for k in range(len(c) - 1, -1, -1):
        m1, m2 = abs(c[k]) + g[k] * r * m1 + m2, m1
        peak = max(peak, m1)
    return peak


def _clenshaw(c: list, g: list, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e_0 = sum_k c_k P_k(z), from c and g as given by
    :func:`_sweep_constants`, swept backwards in place; ``out`` is the
    C-contiguous complex scratch buffer, and e_0 lands in one of two
    further buffers."""
    # both sums in one allocation: separate large buffers were page-faulted
    # afresh on every call ([i, ...] keeps the rows of 0-d input arrays)
    work = np.zeros((2,) + z.shape, dtype=complex)
    e1, e2 = work[0, ...], work[1, ...]
    # the real scale g_k multiplies both parts through a float view, not as
    # the complex g_k + 0i, with the same result for finite values
    out_parts = out.reshape(-1).view(float)
    for k in range(len(c) - 1, -1, -1):
        # e_k = g_k z e_{k+1} - e_{k+2} + c_k, written over e_{k+2}
        np.multiply(z, e1, out=out)
        out_parts *= g[k]
        np.subtract(out, e2, out=e2)
        if c[k]:
            e2 += c[k]
        e1, e2 = e2, e1
    return e1


def _rescaled_series(coef, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, E) with sum_k coef[k] h_k(z) = P e^E, P accumulated inside the
    rescaled recurrence :func:`_poly_parts` and its scale folded into E."""
    top = int(np.max(np.flatnonzero(coef), initial=0))
    acc = np.zeros_like(z)
    log_m = np.zeros(z.shape)
    for k, (p, m) in enumerate(_poly_parts(top, z)):
        if m is not None:
            acc /= m
            log_m = log_m + np.log(m)
        acc += coef[k] * p
    return acc, LOG_H0 - 0.5 * z * z + log_m


def hermite_series_parts(coef, z) -> tuple[np.ndarray, np.ndarray]:
    """(P, E) with sum_k coef[k] h_k(z) = P e^E over an array of points.

    P is the polynomial part sum_k coef[k] P_k(z), P_k = h_k / h_0, from
    one backward Clenshaw sweep up to the last nonzero coefficient (scaled
    as in :func:`_sweep_constants`), in place on three buffers, skipping
    the add of a zero coefficient; E = LOG_H0 - z^2/2 is the exponent of
    h_0, written into the sweep's scratch buffer.  Before the sweep, the
    same sweep on |coef| at r = max|z| bounds every intermediate; if that
    majorant passes 1e290 the sum is accumulated in the rescaled recurrence
    instead (:func:`_rescaled_series`), and E also carries its log-scale.
    No exponential is taken, so callers with Gaussians of their own join
    them to E first; :func:`mul_exp_parts` multiplies the parts out.
    """
    z = np.asarray(_check_finite(z), dtype=complex)
    top = int(np.max(np.flatnonzero(coef), initial=0))
    c, g = _sweep_constants(np.asarray(coef, dtype=complex)[: top + 1])
    r = float(np.abs(z).max(initial=0.0))
    if not (math.isfinite(r) and _majorant(c, g, r) <= _SWEEP_LIMIT):
        return _rescaled_series(coef, z)
    E = np.empty(z.shape, dtype=complex)
    P = _clenshaw(c, g, z, E)
    np.multiply(z, z, out=E)
    E *= -0.5
    E += LOG_H0
    return P, E


def mul_exp(value, log_scale) -> np.ndarray:
    """value * exp(log_scale), formed in log form; raises
    :class:`HermiteOverflowError` where the modulus would exceed the
    largest double."""
    with np.errstate(divide="ignore"):
        log_mod = np.real(log_scale) + np.log(np.abs(value))
    if not np.all(log_mod <= LOG_DBL_MAX):
        raise HermiteOverflowError(
            f"log-modulus {float(np.max(log_mod))!r} exceeds the "
            f"largest double (log {LOG_DBL_MAX!r})"
        )
    return np.exp(log_mod + 1j * (np.imag(log_scale) + np.angle(value)))


def mul_exp_parts(P, E) -> np.ndarray:
    """P e^E for a split form (P, E), E an array or a tuple of arrays whose
    sum is the exponent, each broadcasting against P.

    Where every part's real part lies within +-700 / len(parts), no factor
    e^{E_j} can overflow or vanish where the product fits, so the value is
    P e^{E_1} e^{E_2} ..., taken in that order with one exp per entry of
    each part rather than per node of their broadcast; where a part leaves
    that range or the product is not finite, it is formed in log form from
    the summed exponent (:func:`mul_exp`).  Raises
    :class:`HermiteOverflowError` if a modulus exceeds a double.
    """
    parts = E if isinstance(E, tuple) else (E,)
    limit = 700.0 / len(parts)
    if all(np.all(np.abs(np.real(e)) <= limit) for e in parts):
        with np.errstate(over="ignore", invalid="ignore"):
            val = P
            for e in parts:
                val = val * np.exp(e)
        if np.all(np.isfinite(val)):
            return val
    return mul_exp(P, sum(parts))


def hermite_tensor(alpha, z) -> complex:
    """Product basis function prod_j h_{alpha_j}(z_j) at a point of C^n."""
    alpha = as_index(alpha)
    z = as_point(z, dimension=len(alpha))
    val = 1.0 + 0.0j
    for a_j, z_j in zip(alpha, z):
        val *= hermite_eval(a_j, z_j)[a_j]
    return complex(val)


def laguerre_ladder(k_max: int, type_a: int, r) -> np.ndarray:
    """L_0^a(r), ..., L_{k_max}^a(r); shape (k_max+1,) + shape(r)."""
    if k_max < 0:
        raise ValueError("k must be >= 0")
    if type_a < 0:
        raise ValueError("type must be >= 0")
    r = _check_finite(r)
    dtype = complex if np.iscomplexobj(r) else float
    r = np.asarray(r, dtype=dtype)
    out = np.empty((k_max + 1,) + r.shape, dtype=dtype)
    out[0] = np.ones_like(r)
    if k_max >= 1:
        out[1] = 1.0 + type_a - r
    for k in range(1, k_max):
        out[k + 1] = (
            (2 * k + 1 + type_a - r) * out[k] - (k + type_a) * out[k - 1]
        ) / (k + 1.0)
    return out


def laguerre_function_entire(k: int, s, dimension: int):
    """phi_k as a function of the (possibly complex) squared radius ``s``.

    At real phase-space points ``s = |z|^2``; the entire continuation to
    C^{2n} substitutes the bilinear square of the complexified coordinates.
    Vectorized over ``s``.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    s = np.asarray(s)
    val = laguerre_ladder(k, dimension - 1, s / 2.0)[k] * np.exp(-s / 4.0)
    if np.ndim(val) == 0:
        return val.item()
    return val
