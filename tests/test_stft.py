"""Gaussian-windowed Fourier transform, the bridge identity, and growth checks."""

import math
import warnings

import numpy as np
import pytest

from mehler import (
    Bump,
    Dirac,
    Gaussian,
    HermiteBasis,
    bridge_constant,
    bridge_residual,
    compact_growth_check,
    gauss_hermite_rule,
    gauss_stft,
    pw_envelope,
)
from mehler.quadrature import PlaneGrid, gauss_legendre_rule
from mehler.specfun import HermiteOverflowError
from mehler.spectral import eval_test_function
from mehler.stft import _StftHandle

PI14 = math.pi ** -0.25
INV_SQRT_2PI = (2 * math.pi) ** -0.5


def stft_gaussian_oracle(a, z, c=1.0):
    """Closed form of the transform of the ground state:
    c pi^{-1/4} (1+a)^{-1/2} e^{-z^2/(2(1+a))}."""
    return c * PI14 * (1 + a) ** -0.5 * np.exp(-(z * z) / (2 * (1 + a)))






def test_gauss_stft_ground_state(gh128):
    got = gauss_stft(HermiteBasis((0,)), 2.0, 0.0, rule=gh128)
    assert got == pytest.approx(PI14 / math.sqrt(3.0), rel=1e-12)


def test_gauss_stft_matches_oracle_at_complex_points(rng, gh128):
    pts = rng.uniform(-2, 2, (10, 2))
    for a in (0.5, 2.0):
        for x, y in pts:
            z = complex(x, y)
            got = gauss_stft(HermiteBasis((0,)), a, z, rule=gh128)
            ref = stft_gaussian_oracle(a, z)
            assert abs(got - ref) / abs(ref) < 1e-10


def test_gauss_stft_imaginary_growth(gh128):
    # |T_a h0(iy)| grows like e^{y^2/(2(1+a))}, strictly below the
    # admissible e^{y^2/(2a)}
    a = 2.0
    v1 = abs(gauss_stft(HermiteBasis((0,)), a, 1j, rule=gh128))
    v2 = abs(gauss_stft(HermiteBasis((0,)), a, 2j, rule=gh128))
    assert v2 / v1 == pytest.approx(math.exp((4 - 1) / (2 * (1 + a))), rel=1e-9)


def test_windowed_transform_off_axis_fails_by_name(gh128):
    # far off the real axis e^{yu} leaves the doubles at the rule's outer
    # nodes: the paired-point and the open-mesh evaluators both raise the
    # named error, with no numpy warning on the way, while at 20i the
    # ground state's transform is still its closed form
    a = 2.0
    handle = _StftHandle(HermiteBasis((0,)), a, gh128)
    ref = stft_gaussian_oracle(a, 20j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError, match="windowed transform"):
            gauss_stft(HermiteBasis((0,)), 0.5, 60j, rule=gh128)
        with pytest.raises(HermiteOverflowError, match="windowed transform"):
            handle.eval_grid(np.array([[0.0], [1.0]]), np.array([[0.0, 60.0]]))
        got = gauss_stft(HermiteBasis((0,)), a, 20j, rule=gh128)
        mesh = handle.eval_grid(np.array([[0.0]]), np.array([[20.0]]))
    assert got == pytest.approx(ref, rel=1e-12)
    assert mesh[0, 0] == pytest.approx(ref, rel=1e-12)


def test_gauss_stft_point_mass_is_constant():
    vals = [gauss_stft(Dirac(0.0), 1.0, z) for z in (0.0, 1.0, 2j, 1.5 - 0.5j)]
    for v in vals:
        assert v == pytest.approx(INV_SQRT_2PI, rel=1e-14)


def test_gauss_stft_parity(gh128):
    for k in (0, 1, 2, 3):
        for x in (0.5, 1.2):
            plus = gauss_stft(HermiteBasis((k,)), 1.5, x, rule=gh128)
            minus = gauss_stft(HermiteBasis((k,)), 1.5, -x, rule=gh128)
            assert abs(minus - (-1) ** k * plus) < 1e-8


def test_gauss_stft_entire(gh128):
    # Cauchy-Riemann residual of the entire extension
    h = 1e-3
    pts = [(0.3, 0.4), (-1.0, 0.2), (0.8, -0.6), (0.0, 1.0), (1.5, 0.5),
           (-0.4, -0.9), (0.2, 0.0), (1.1, 1.0), (-1.4, 0.3), (0.6, -0.2)]

    def T(z):
        return gauss_stft(Gaussian(1.0), 1.5, z, rule=gh128)

    for x, y in pts:
        z = complex(x, y)
        fx = (T(z - 2 * h) - 8 * T(z - h) + 8 * T(z + h) - T(z + 2 * h)) / (12 * h)
        fy = (
            T(z - 2j * h) - 8 * T(z - 1j * h) + 8 * T(z + 1j * h) - T(z + 2j * h)
        ) / (12 * h)
        assert 0.5 * abs(fx + 1j * fy) < 1e-6


def test_oscillation_guard_refuses():
    tiny = gauss_hermite_rule(8)
    with pytest.raises(ValueError, match="too coarse"):
        gauss_stft(HermiteBasis((0,)), 1.0, 6.0, rule=tiny)


def test_bump_guard_reads_the_rule_it_integrates_with():
    # a bump integrates with Gauss-Legendre of max(order, 96) nodes over its
    # support: 96 meet the guard at z = 20 (8 * 20 / pi = 51), where the
    # order 32 of the rule passed in was once tested and refused
    v = gauss_stft(Bump(1.0), 2.0, 20.0, rule=gauss_hermite_rule(32))
    leg = gauss_legendre_rule(2000, -1.0, 1.0)
    u = leg.nodes
    ref = np.sum(leg.weights * eval_test_function(Bump(1.0), u) * np.exp(-u * u - 20j * u))
    ref *= (2 * math.pi) ** -0.5
    assert abs(v - ref) <= 1e-11 * abs(ref)
    with pytest.raises(ValueError, match=r"rule order 96 too coarse for frequency 40 \(need >= 102\)"):
        gauss_stft(Bump(1.0), 2.0, 40.0, rule=gauss_hermite_rule(32))


def test_bridge_constant_value():
    a = 1.0 / math.tanh(0.8)
    assert bridge_constant(a) == pytest.approx(math.sinh(0.8) ** -0.5, rel=1e-13)
    with pytest.raises(ValueError):
        bridge_constant(0.9)


@pytest.mark.parametrize("t", [0.3, 0.5])
def test_bridge_identity_five_functions(t, gh128):
    fns = [
        HermiteBasis((0,)),
        HermiteBasis((1,)),
        HermiteBasis((2,)),
        Gaussian(1.0),
        Dirac(0.3),
    ]
    for f in fns:
        rep = bridge_residual(f, t, rule=gh128)
        assert rep.max_residual <= 1e-6
        assert rep.c == pytest.approx((rep.a**2 - 1) ** 0.25, rel=1e-13)


def _trap_grid(box, res):
    return PlaneGrid(boxes=(box,), resolution=res, kind="trapezoid")


def test_pw_envelope_both_regimes(gh128):
    grid = _trap_grid((-6.0, 6.0, -4.0, 4.0), 49)
    for a in (0.5, 2.0):
        rep = pw_envelope(HermiteBasis((0,)), a, 0, grid, rule=gh128)
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.stable
        # closed form: ratio maximal at the origin, value pi^{-1/4}(1+a)^{-1/2}
        assert rep.sup_ratio == pytest.approx(PI14 / math.sqrt(1 + a), rel=1e-6)


def test_pw_envelope_point_mass(gh128):
    grid = _trap_grid((-4.0, 4.0, -3.0, 3.0), 49)
    rep = pw_envelope(Dirac(0.0), 1.0, 0, grid)
    assert rep.sup_ratio == pytest.approx(INV_SQRT_2PI, rel=1e-9)
    assert rep.stable


@pytest.mark.parametrize(
    "call",
    [
        lambda f: gauss_stft(f, 2.0, 0.5 + 0.1j),
        lambda f: pw_envelope(f, 2.0, 0, _trap_grid((-4.0, 4.0, -3.0, 3.0), 17)),
    ],
    ids=["gauss_stft", "pw_envelope"],
)
def test_point_mass_outside_r1_is_refused(call):
    # the transform is on R^1; a point mass in R^2 once read as the R^1 one
    # at its first coordinate
    with pytest.raises(ValueError, match=r"point mass in R\^2"):
        call(Dirac((0.3, 5.0)))


def test_pw_envelope_necessity_some_order(gh128):
    # each tempered test input passes at some order m <= 3
    grid = _trap_grid((-5.0, 5.0, -3.0, 3.0), 49)
    for f in (HermiteBasis((2,)), Gaussian(0.5), Dirac(0.4)):
        finite = False
        for m in range(4):
            rep = pw_envelope(f, 1.5, m, grid, rule=gh128)
            if math.isfinite(rep.sup_ratio) and rep.stable:
                finite = True
                break
        assert finite


def test_compact_check_exact_radius(gh128):
    grid = _trap_grid((-14.0, 14.0, -6.0, 6.0), 97)
    rep = compact_growth_check(Dirac(0.5), 0.5, grid)
    expected = (2 * math.pi * math.sinh(1.0)) ** -0.5 * math.exp(
        -0.125 / math.tanh(1.0)
    )
    assert rep.sup_ratio == pytest.approx(expected, rel=1e-2)
    assert rep.stable
    wide = compact_growth_check(Dirac(0.5), 0.5, grid.widen(2.0))
    assert wide.sup_ratio == pytest.approx(rep.sup_ratio, rel=1e-6)


def test_compact_check_understated_radius_blows_up(gh128):
    grid = _trap_grid((-14.0, 14.0, -6.0, 6.0), 97)
    base = compact_growth_check(Dirac(0.5), 0.5, grid, radius=0.3)
    wide = compact_growth_check(Dirac(0.5), 0.5, grid.widen(2.0), radius=0.3)
    assert wide.sup_ratio / base.sup_ratio >= 10.0


def test_compact_check_bump():
    grid = _trap_grid((-10.0, 10.0, -5.0, 5.0), 65)
    rep = compact_growth_check(Bump(1.0), 0.4, grid)
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    assert rep.stable
    wide = compact_growth_check(Bump(1.0), 0.4, grid.widen(1.5))
    assert wide.sup_ratio == pytest.approx(rep.sup_ratio, rel=0.05)


def test_compact_check_requires_support_data(gh128):
    with pytest.raises(ValueError, match="point mass or a bump"):
        compact_growth_check(Gaussian(1.0), 0.4, _trap_grid((-4, 4, -3, 3), 33))
