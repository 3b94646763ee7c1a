"""Hermite/Laguerre evaluation against independent closed-form oracles."""

import math
import warnings

import numpy as np
import pytest

from mehler import (
    HermiteOverflowError,
    hermite_eval,
    hermite_log_eval,
    hermite_log_ladder,
    hermite_tensor,
    laguerre_function_entire,
)
from mehler import specfun
from mehler.specfun import hermite_series_parts, laguerre_ladder, mul_exp_parts

PI14 = math.pi ** -0.25


def hermite_series(coef, z):
    """sum_k coef[k] h_k(z) as every grid evaluator forms it: the split
    form of the sweep, multiplied out by the package's one finish."""
    return mul_exp_parts(*hermite_series_parts(coef, z))


def hermite_closed_form(k, z):
    """Independent oracle: explicit normalized Hermite functions, k <= 5."""
    z = np.asarray(z, dtype=complex)
    g = np.exp(-(z**2) / 2.0)
    if k == 0:
        return PI14 * g
    if k == 1:
        return math.sqrt(2.0) * PI14 * z * g
    if k == 2:
        return PI14 / math.sqrt(2.0) * (2 * z**2 - 1) * g
    if k == 3:
        return PI14 / math.sqrt(3.0) * (2 * z**3 - 3 * z) * g
    if k == 4:
        return PI14 / (2 * math.sqrt(6.0)) * (4 * z**4 - 12 * z**2 + 3) * g
    if k == 5:
        return PI14 / (2 * math.sqrt(15.0)) * (4 * z**5 - 20 * z**3 + 15 * z) * g
    raise ValueError(k)


def test_ground_state_at_origin():
    assert hermite_eval(0, 0.0)[0] == pytest.approx(PI14, abs=1e-15)


def test_first_order_at_i():
    # closed form sqrt(2) pi^{-1/4} z e^{-z^2/2} at z = i
    expected = math.sqrt(2.0) * PI14 * 1j * np.exp(0.5)
    got = hermite_eval(1, 1j)[1]
    assert abs(got - expected) < 1e-12


def test_second_order_at_origin():
    expected = hermite_closed_form(2, 0.0)
    assert hermite_eval(2, 0.0)[2] == pytest.approx(float(expected.real), rel=1e-12)
    assert float(expected.real) == pytest.approx(-PI14 / math.sqrt(2.0))


def test_recurrence_matches_closed_form_on_reals(rng):
    x = rng.uniform(-4, 4, 100)
    ladder = hermite_eval(5, x)
    for k in range(6):
        ref = hermite_closed_form(k, x).real
        scale = np.maximum(np.abs(ref), 1e-10)
        assert np.max(np.abs(ladder[k] - ref) / scale) < 1e-12


def test_recurrence_matches_scipy_rodrigues(rng):
    from scipy.special import eval_hermite, factorial

    x = rng.uniform(-3, 3, 50)
    ladder = hermite_eval(12, x)
    for k in range(13):
        norm = math.sqrt(2.0**k * float(factorial(k)) * math.sqrt(math.pi))
        ref = eval_hermite(k, x) * np.exp(-(x**2) / 2.0) / norm
        assert np.max(np.abs(ladder[k] - ref)) < 1e-11


def test_orthonormality_under_quadrature(gh64):
    ladder = hermite_eval(30, gh64.nodes)
    w = gh64.weights * np.exp(gh64.nodes**2)
    gram = (ladder * w) @ ladder.T
    assert np.max(np.abs(gram - np.eye(31))) < 1e-10


def test_cauchy_riemann_residual(rng):
    # entirety proxy: d/d(conj z) vanishes, by 4th-order centered differences
    h = 1e-3
    pts = rng.uniform(-2, 2, (20, 2))

    def stencil(k, z, dz):
        vals = [hermite_eval(k, z + s * dz)[k] for s in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

    for k in range(11):
        for x, y in pts:
            z = complex(x, y)
            fx = stencil(k, z, h)
            fy = stencil(k, z, 1j * h)
            residual = 0.5 * abs(fx + 1j * fy)
            assert residual < 1e-8


def test_log_eval_at_origin():
    log_mod, arg = hermite_log_eval(0, 0.0)
    assert log_mod == pytest.approx(math.log(PI14), abs=1e-14)
    assert arg == pytest.approx(0.0, abs=1e-14)


def test_log_eval_on_imaginary_axis():
    log_mod, arg = hermite_log_eval(0, 10j)
    assert log_mod == pytest.approx(50.0 + math.log(PI14), abs=1e-12)
    assert arg == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("k", [40, 64, 128, 200])
@pytest.mark.parametrize("z", [5 + 5j, 20 + 30j, -25 - 12j, 0.5 + 30j])
def test_log_eval_matches_extended_precision_recurrence(k, z):
    import mpmath

    def mp_hermite(k, z):
        hm1, h0 = mpmath.mpc(0), mpmath.pi ** mpmath.mpf("-0.25") * mpmath.exp(
            -(z**2) / 2
        )
        for j in range(k):
            h1 = z * mpmath.sqrt(mpmath.mpf(2) / (j + 1)) * h0 - mpmath.sqrt(
                mpmath.mpf(j) / (j + 1)
            ) * hm1
            hm1, h0 = h0, h1
        return h0

    with mpmath.workdps(50):
        ref = mp_hermite(k, mpmath.mpc(z.real, z.imag))
        ref_log = float(mpmath.log(abs(ref)))
        ref_unit = complex(ref / abs(ref))
    log_mod, arg = hermite_log_eval(k, z)
    assert log_mod == pytest.approx(ref_log, rel=1e-12)
    got_unit = complex(math.cos(arg), math.sin(arg))
    assert abs(got_unit - ref_unit) <= 1e-12


def test_rescaled_recurrence_past_1e140_on_arrays():
    # at k = 200 the polynomial part passes 1e140 at both imaginary points,
    # so the rescale branch runs in the ladder and in the weighted sum
    z = np.array([20 + 30j, 0.5 + 30j, 5 + 5j, -25 - 12j])
    log_mod, arg = hermite_log_ladder(200, z)
    for j, z_j in enumerate(z):
        for k in (0, 100, 174, 175, 196, 200):
            lm, ph = hermite_log_eval(k, z_j)
            assert log_mod[k, j] == pytest.approx(lm, rel=1e-14)
            unit = np.exp(1j * arg[k, j])
            assert abs(unit - np.exp(1j * ph)) <= 1e-13
    coef = np.exp(-2.0 * np.arange(201)) * (1 - 0.5j) ** np.arange(201)
    log_terms = np.log(np.abs(coef))[:, None] + log_mod
    ref = np.sum(np.exp(log_terms + 1j * (np.angle(coef)[:, None] + arg)), axis=0)
    got = hermite_series(coef, z)
    scale = np.sum(np.exp(log_terms), axis=0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    for j, z_j in enumerate(z):
        assert hermite_series(coef, z_j) == pytest.approx(got[j], rel=1e-13)


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not run here")


def _mp_series_exact(coef, z):
    """50-digit sum_k coef[k] h_k(z) and sum_k |coef[k] h_k(z)|, as mpmath
    numbers (neither under- nor overflows)."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.mpc(z.real, z.imag)
        prev, cur = mpmath.mpc(0), mpmath.pi ** mpmath.mpf("-0.25") * mpmath.exp(-(z**2) / 2)
        total, scale = mpmath.mpc(0), mpmath.mpf(0)
        for k, c in enumerate(coef):
            term = mpmath.mpc(c.real, c.imag) * cur
            total, scale = total + term, scale + abs(term)
            prev, cur = cur, z * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * cur - mpmath.sqrt(
                mpmath.mpf(k) / (k + 1)
            ) * prev
        return total, scale


def _mp_series(coef, z):
    """50-digit sum_k coef[k] h_k(z) and sum_k |coef[k] h_k(z)|."""
    total, scale = _mp_series_exact(coef, z)
    return complex(total), float(scale)


def test_series_sweep_matches_extended_precision(monkeypatch):
    # orders up to 128 and |Im z| up to 30: the Clenshaw sweep alone, as
    # the rescaled recurrence refuses to run
    monkeypatch.setattr(specfun, "_poly_parts", _refuse)
    rng = np.random.default_rng(20261018)
    k = np.arange(129)
    z = np.concatenate(
        [rng.uniform(-30, 30, 20) + 1j * rng.uniform(-30, 30, 20),
         [30j, -30j, 30.0, 0.0, 12 + 30j, -7.5 + 0.1j]]
    )
    sparse = np.exp(-0.25 * k) * (1 - 0.5j) ** (k % 7)
    sparse[1::2] = 0.0  # zero coefficients skip their add
    sparse[101:] = 0.0  # and the sweep starts at the last nonzero one
    for coef in (
        rng.normal(size=129) + 1j * rng.normal(size=129),
        np.exp(-0.5 * k) * (rng.normal(size=129) + 1j * rng.normal(size=129)),
        sparse,
    ):
        got = hermite_series(coef, z)
        ref, scale = (np.array(v) for v in zip(*(_mp_series(coef, z_j) for z_j in z)))
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_series_falls_back_past_the_majorant_limit(monkeypatch):
    # with the far real point in the array the majorant at r = 400 passes
    # 1e290, so the rescaled recurrence sums the series; on the other points
    # alone the sweep runs, and the two agree
    z = np.array([20 + 30j, 0.5 + 30j, 5 + 5j, -25 - 12j])
    k = np.arange(201)
    coef = np.exp(-0.5 * k) * ((1 - 0.5j) / abs(1 - 0.5j)) ** k
    c, g = specfun._sweep_constants(coef)
    assert not specfun._majorant(c, g, 400.0) <= specfun._SWEEP_LIMIT
    with monkeypatch.context() as patch:
        patch.setattr(specfun, "_clenshaw", _refuse)
        rescaled = hermite_series(coef, np.append(z, 400.0))
    with monkeypatch.context() as patch:
        patch.setattr(specfun, "_poly_parts", _refuse)
        swept = hermite_series(coef, z)
    log_mod, arg = hermite_log_ladder(200, z)
    log_terms = np.log(np.abs(coef))[:, None] + log_mod
    scale = np.sum(np.exp(log_terms), axis=0)
    ref = np.sum(np.exp(log_terms + 1j * (np.angle(coef)[:, None] + arg)), axis=0)
    assert np.all(np.abs(rescaled[:4] - swept) <= 1e-12 * scale)
    assert np.all(np.abs(swept - ref) <= 1e-12 * scale)
    assert rescaled[4] == 0.0  # |h_k(400)| < e^{-79000}


def test_series_parts_match_extended_precision():
    # P e^E against 50 digits, joined in mpmath so that no double under- or
    # overflows: the sweep on desk-scale points, and the rescaled recurrence
    # (its log-scale folded into E) once the far real point 400 takes the
    # majorant past 1e290
    import mpmath

    rng = np.random.default_rng(20261019)
    desk = np.array([30j, -12 + 30j, 7.5 - 0.1j, 0.0])
    far = np.array([20 + 30j, 0.5 + 30j, 5 + 5j, -25 - 12j, 400.0])
    k = np.arange(201)
    cases = [
        (rng.normal(size=129) + 1j * rng.normal(size=129), desk, False),
        (np.exp(-0.5 * k) * ((1 - 0.5j) / abs(1 - 0.5j)) ** k, far, True),
    ]
    for coef, z, rescaled in cases:
        c, g = specfun._sweep_constants(coef)
        assert (specfun._majorant(c, g, float(np.abs(z).max())) > specfun._SWEEP_LIMIT) == rescaled
        P, E = specfun.hermite_series_parts(coef, z)
        assert P.shape == E.shape == z.shape
        with mpmath.workdps(50):
            for P_j, E_j, z_j in zip(P, E, z):
                got = mpmath.mpc(P_j.real, P_j.imag) * mpmath.exp(mpmath.mpc(E_j.real, E_j.imag))
                ref, scale = _mp_series_exact(coef, z_j)
                # E is a double: at z = 400 (Re E ~ -8e4) its rounding alone
                # moves e^E by 1e-11 relatively
                slack = 4 * abs(E_j) * np.finfo(float).eps if abs(E_j) > 1e3 else 0.0
                assert abs(got - ref) <= (1e-12 + slack) * scale


def test_series_overflow_is_named():
    # h_0(40j) = pi^{-1/4} e^{800}: the exponent leaves +-700; at 30j the
    # exponent is in range but the product with 1e150 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError):
            hermite_series(np.array([1.0]), np.array([0.5, 40j]))
        with pytest.raises(HermiteOverflowError):
            hermite_series(np.array([1e150]), np.array([0.5, 30j]))
        # past +-700 but representable: the log-form finish
        got = hermite_series(np.array([1e-300]), np.array([38j]))
    assert got[0] == pytest.approx(PI14 * math.exp(722.0 + math.log(1e-300)), rel=1e-13)


def test_log_eval_never_overflows_at_desk_scale():
    for k in (0, 64, 128):
        for z in (30j, 20 + 30j, -25 - 12j):
            log_mod, arg = hermite_log_eval(k, z)
            assert math.isfinite(log_mod) or log_mod == -math.inf
            assert math.isfinite(arg)


def test_log_linear_consistency(rng):
    pts = rng.uniform(-3, 3, (30, 2))
    for k in (0, 1, 5, 17):
        for x, y in pts:
            z = complex(x, y)
            lin = hermite_eval(k, z)[k]
            if lin == 0:
                continue
            log_mod, arg = hermite_log_eval(k, z)
            log = math.exp(log_mod) * complex(math.cos(arg), math.sin(arg))
            assert abs(log - lin) / abs(lin) < 1e-10


def test_linear_ladder_overflow_is_named():
    # h_40(40j) and h_3(40j) exceed the largest double; the linear ladder
    # used to hand back inf/nan rows, and then warned before it raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError):
            hermite_eval(40, 40j)
        with pytest.raises(HermiteOverflowError):
            hermite_eval(40, np.array([0.5, 40j]))
        with pytest.raises(HermiteOverflowError):
            hermite_tensor((3,), (40j,))
    assert math.isfinite(hermite_log_eval(40, 40j)[0])


def test_tensor_at_origin():
    assert hermite_tensor((0, 0), [0.0, 0.0]) == pytest.approx(
        math.pi**-0.5, rel=1e-14
    )
    assert hermite_tensor((1,), [0.0]) == 0.0


def test_tensor_matches_univariate_product():
    got = hermite_tensor((2, 1), [0.3, -0.7])
    ref = hermite_closed_form(2, 0.3) * hermite_closed_form(1, -0.7)
    assert abs(got - ref) / abs(ref) < 1e-12


def test_tensor_dimension_mismatch():
    with pytest.raises(ValueError):
        hermite_tensor((1, 2), [0.0])


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        hermite_eval(3, float("nan"))
    with pytest.raises(ValueError):
        hermite_log_eval(3, complex(float("inf"), 0))


def test_laguerre_low_order():
    # L_1^a(r) = 1 + a - r
    assert laguerre_ladder(1, 0, 2.0)[1] == pytest.approx(-1.0, abs=1e-14)
    assert laguerre_ladder(1, 3, 0.5)[1] == pytest.approx(3.5, abs=1e-14)


def test_laguerre_matches_scipy(rng):
    from scipy.special import eval_genlaguerre

    r = rng.uniform(0, 10, 40)
    for a in (0, 1, 2):
        ladder = laguerre_ladder(11, a, r)
        for k in (0, 1, 2, 5, 11):
            ref = eval_genlaguerre(k, a, r)
            got = ladder[k]
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12


def test_laguerre_function_values():
    assert laguerre_function_entire(0, 0.0, 1) == pytest.approx(1.0)
    # L_3^0(1) e^{-1/2} with |z|^2 = 2
    l31 = 1.0 - 3.0 + 1.5 - 1.0 / 6.0
    expected = l31 * math.exp(-0.5)
    got = laguerre_function_entire(3, 2.0, 1)
    assert got == pytest.approx(expected, rel=1e-12)


def test_laguerre_rejects_negative_orders():
    with pytest.raises(ValueError):
        laguerre_ladder(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_ladder(2, -1, 1.0)
    with pytest.raises(ValueError):
        laguerre_function_entire(-1, 1.0, 1)
