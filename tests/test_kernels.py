"""Closed-form kernels, weights, derivative weights, and growth bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehler import (
    Bump,
    Dirac,
    Gaussian,
    Gaussian2n,
    HermiteOverflowError,
    PolyGaussian,
    schwartz_image_bound,
    bergman_weight,
    bergman_weight_dt,
    compact_bound,
    hermite_eval,
    integrate_plane,
    integrate_rn,
    mehler_kernel,
    mehler_spectral,
    sobolev_embed_bound,
    special_heat_kernel,
    special_plain_bound,
    special_schwartz_bound,
    stft_bound,
    tempered_bound,
    twisted_bergman_weight,
)
from mehler import taylor
from mehler.kernels import BoundSpec, _time_jets, _weight_jets
from mehler.special import HeatProfile
from mehler.taylor import TaylorScalar
from mehler.quadrature import PlaneGrid


def test_heat_kernel_at_origin():
    got = mehler_kernel(0.5, 0.0, 0.0)
    assert got == pytest.approx((2 * math.pi * math.sinh(1.0)) ** -0.5, rel=1e-14)


def test_heat_kernel_symmetry(rng):
    z = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-1, 1, 10)
    w = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-1, 1, 10)
    assert np.allclose(mehler_kernel(0.4, z, w), mehler_kernel(0.4, w, z), rtol=1e-14)


def test_heat_kernel_matches_spectral_sum_real_pairs(rng):
    # independent spectral oracle on real pairs
    z = rng.uniform(-2, 2, 10)
    w = rng.uniform(-2, 2, 10)
    closed = mehler_kernel(0.3, z, w)
    spectral = mehler_spectral(0.3, z, w, truncation=48)
    assert np.max(np.abs(closed - spectral) / np.abs(closed)) < 1e-8


def test_heat_kernel_matches_spectral_sum_complex(rng):
    # The truncated sum carries a tail ~ e^{(|Im z|+|Im w|) sqrt(2N) - 2Nt},
    # which must stay below 1e-8 relative to the smallest kernel value over
    # the box; that fixes how far off the real axis N = 48 can certify.
    for t, re_box, im_box in ((0.5, 2.0, 1.0), (0.3, 1.0, 0.3)):
        z = rng.uniform(-re_box, re_box, 20) + 1j * rng.uniform(-im_box, im_box, 20)
        w = rng.uniform(-re_box, re_box, 20) + 1j * rng.uniform(-im_box, im_box, 20)
        closed = mehler_kernel(t, z, w)
        spectral = mehler_spectral(t, z, w, truncation=48)
        assert np.max(np.abs(closed - spectral) / np.abs(closed)) < 1e-8


def test_heat_kernel_truncation_tail_visible_off_axis(rng):
    # at |Im| = 2 and t = 0.3 the N = 48 tail is demonstrably non-negligible:
    # the same points converge once the truncation is raised
    z = np.array([1.5 - 1.9j])
    w = np.array([0.8 + 1.9j])
    closed = mehler_kernel(0.3, z, w)
    coarse = mehler_spectral(0.3, z, w, truncation=48)
    fine = mehler_spectral(0.3, z, w, truncation=140)
    assert np.abs(closed - coarse) / np.abs(closed) > 1e-8
    assert np.abs(closed - fine) / np.abs(closed) < 1e-10


def test_heat_kernel_eigenfunction_integral(gh128):
    # integral of K_t(x, u) h_0(u) du = e^{-t} h_0(x)
    x, t = 1.0, 0.3
    val = integrate_rn(
        lambda u: mehler_kernel(t, np.full_like(u, x), u) * hermite_eval(0, u)[0],
        gh128,
    )
    expected = math.exp(-t) * math.pi**-0.25 * math.exp(-0.5)
    assert val == pytest.approx(expected, rel=1e-12)


def test_heat_kernel_matches_mpmath_spectral_sum():
    # Mehler's formula sum_k e^{-(2k+1)t} h_k(z) h_k(w) at 50 digits, with
    # h_k from the three-term recurrence in mpmath
    import mpmath

    t = 0.4
    for z, w in [(0.5 + 0.5j, -0.2), (2.0 + 1.5j, 1.0 - 0.7j)]:
        with mpmath.workdps(50):
            zm, wm = mpmath.mpc(z), mpmath.mpc(w)
            h0 = mpmath.pi ** mpmath.mpf("-0.25")
            hz, hz_prev = h0 * mpmath.exp(-zm * zm / 2), mpmath.mpc(0)
            hw, hw_prev = h0 * mpmath.exp(-wm * wm / 2), mpmath.mpc(0)
            ref = mpmath.mpc(0)
            for k in range(250):
                ref += mpmath.exp(-(2 * k + 1) * mpmath.mpf(t)) * hz * hw
                a = mpmath.sqrt(mpmath.mpf(2) / (k + 1))
                b = mpmath.sqrt(mpmath.mpf(k) / (k + 1))
                hz, hz_prev = a * zm * hz - b * hz_prev, hz
                hw, hw_prev = a * wm * hw - b * hw_prev, hw
            ref = complex(ref)
        got = complex(mehler_kernel(t, z, w))
        assert abs(got - ref) / abs(ref) < 1e-12


def test_heat_kernel_rejects_bad_time():
    with pytest.raises(ValueError):
        mehler_kernel(0.0, 0.0, 0.0)


def test_weight_values():
    assert bergman_weight(0.25, 0j) == pytest.approx(
        2.0 / math.sqrt(math.sinh(1.0)), rel=1e-14
    )
    ratio = bergman_weight(0.25, 1j) / bergman_weight(0.25, 0j)
    assert ratio == pytest.approx(math.exp(-1.0 / math.tanh(0.5)), rel=1e-13)


def test_weight_even_symmetry(rng):
    pts = rng.uniform(-3, 3, (10, 2))
    for x, y in pts:
        base = bergman_weight(0.3, complex(x, y))
        assert bergman_weight(0.3, complex(-x, y)) == pytest.approx(base, rel=1e-14)
        assert bergman_weight(0.3, complex(x, -y)) == pytest.approx(base, rel=1e-14)


def test_weight_derivative_order_zero_is_weight():
    z = 0.4 + 0.9j
    assert bergman_weight_dt(0.3, 0, z) == pytest.approx(
        bergman_weight(0.3, z), rel=1e-14
    )


def test_weight_derivative_hand_value():
    # d^2/dt^2 [2 (sinh 4t)^{-1/2}] at t = 1/4:
    # -16 (sinh 1)^{-1/2} + 24 cosh(1)^2 (sinh 1)^{-5/2}
    expected = -16 * math.sinh(1.0) ** -0.5 + 24 * math.cosh(1.0) ** 2 * math.sinh(
        1.0
    ) ** -2.5
    assert bergman_weight_dt(0.25, 1, 0j) == pytest.approx(expected, rel=1e-13)


def _fresh_weight_jets(t, m, x2, y2):
    """The jets of :func:`mehler.kernels._weight_jets` with every Taylor
    series built afresh."""
    T = TaylorScalar.variable(t, 2 * m)
    pref = (taylor.sinh(T * 4.0).power(-0.5) * 2.0).coef

    def shifted(f, s):
        s = np.asarray(s, dtype=float)
        return np.array(TaylorScalar([np.zeros_like(s)] + [c * s for c in f.coef[1:]]).exp().coef)

    jx = shifted(taylor.tanh(T * 2.0), x2)
    jy = shifted(-taylor.coth(T * 2.0), y2)
    rank = 2 * m - np.add.outer(np.arange(2 * m + 1), np.arange(2 * m + 1))
    H = np.where(rank >= 0, np.array(pref)[np.maximum(rank, 0)], 0.0)
    return math.factorial(2 * m) * H, jx, jy


@pytest.mark.parametrize("t", [0.25, 0.4])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_memoized_weight_jets_match_fresh_taylor_bit_for_bit(t, m):
    x = np.linspace(-6.0, 6.0, 9)
    y = np.linspace(-4.0, 4.0, 7)
    ref = _fresh_weight_jets(t, m, x * x, y * y)
    first = _weight_jets(t, m, x * x, y * y)
    hits = _time_jets.cache_info().hits
    second = _weight_jets(t, m, x * x, y * y)
    assert _time_jets.cache_info().hits == hits + 1
    for got, again, want in zip(first, second, ref):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(again, got)


def test_weight_derivative_matches_finite_differences():
    z, t, h = 0.7 + 0.4j, 0.3, 1e-3
    fd = (
        -bergman_weight(t + 2 * h, z)
        + 16 * bergman_weight(t + h, z)
        - 30 * bergman_weight(t, z)
        + 16 * bergman_weight(t - h, z)
        - bergman_weight(t - 2 * h, z)
    ) / (12 * h * h)
    assert bergman_weight_dt(t, 1, z) == pytest.approx(fd, rel=1e-5)


def test_weight_derivative_spectral_identity(calibration_025, bergman_grid_025):
    # integral of |Phi_k|^2 d^{2m}/dt^{2m} U_t equals
    # kappa^{-1} 2^{2m} (2k+1)^{2m} e^{2(2k+1)t}
    t = 0.25
    kappa = calibration_025.kappa
    X, Y, W = bergman_grid_025.nodes()
    Z = X + 1j * Y
    ladder = hermite_eval(3, Z)
    for m in (1, 2):
        weight = bergman_weight_dt(t, m, Z)
        for k in range(4):
            val = float(np.sum(W * np.abs(ladder[k]) ** 2 * weight).real)
            lam = 2 * k + 1
            expected = 2.0 ** (2 * m) * lam ** (2 * m) * math.exp(2 * lam * t) / kappa
            assert val == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize(
    "spectral_sum", [lambda: mehler_spectral(0.3, 30j, 30j)], ids=["mehler_spectral"]
)
def test_spectral_sum_overflow_is_named(spectral_sum):
    # each h_k(30j) fits a double, but the products h_k(z) h_k(w) do not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HermiteOverflowError):
            spectral_sum()


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=100, deadline=None)
def test_weight_exponent_identity(x, y, t):
    # -coth(4t)(x^2-y^2) + cosech(4t)(x^2+y^2) = -x^2 tanh 2t + y^2 coth 2t
    lhs = -(x * x - y * y) / math.tanh(4 * t) + (x * x + y * y) / math.sinh(4 * t)
    rhs = -x * x * math.tanh(2 * t) + y * y / math.tanh(2 * t)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_twisted_heat_kernel_values():
    got = special_heat_kernel(0.5, [0j, 0j])
    assert got == pytest.approx(1.0 / (2 * math.pi * math.sinh(0.5)), rel=1e-14)
    # real point with x^2 + u^2 = 2
    got2 = special_heat_kernel(0.5, [1.0 + 0j, 1.0 + 0j])
    expected = (
        1.0 / (2 * math.pi * math.sinh(0.5)) * math.exp(-0.5 / math.tanh(0.5))
    )
    assert got2 == pytest.approx(expected, rel=1e-13)


def test_twisted_heat_kernel_depends_on_square_only(rng):
    t = 0.5
    base = special_heat_kernel(t, [math.sqrt(2.0) + 0j, 0j])
    for theta in rng.uniform(0, 2 * math.pi, 5):
        p = [math.sqrt(2.0) * math.cos(theta) + 0j, math.sqrt(2.0) * math.sin(theta) + 0j]
        assert special_heat_kernel(t, p) == pytest.approx(base, rel=1e-13)


def test_twisted_weight_values():
    got = twisted_bergman_weight(0.5, 0, 0j, 0j)
    assert got == pytest.approx(2.0 / (math.pi * math.sinh(1.0)), rel=1e-14)
    # independent of (x, u) on the real section
    for x, u in [(1.0, 0.0), (0.0, 2.0), (1.5, -0.5)]:
        got2 = twisted_bergman_weight(0.5, 0, complex(x, 0.0), complex(u, 0.0))
        assert got2 == pytest.approx(got, rel=1e-14)


def test_twisted_weight_derivative_matches_finite_differences():
    z, w, t, h = 0.3 + 0.5j, -0.2 + 0.4j, 0.4, 1e-3
    fd = (
        -twisted_bergman_weight(t + 2 * h, 0, z, w)
        + 16 * twisted_bergman_weight(t + h, 0, z, w)
        - 30 * twisted_bergman_weight(t, 0, z, w)
        + 16 * twisted_bergman_weight(t - h, 0, z, w)
        - twisted_bergman_weight(t - 2 * h, 0, z, w)
    ) / (12 * h * h)
    assert twisted_bergman_weight(t, 1, z, w) == pytest.approx(fd, rel=1e-5)


def test_bound_sobolev_embed_normalization():
    b = sobolev_embed_bound(0.3, 0)
    assert b.eval(0.0, 0.0) == pytest.approx(1.0)
    assert not b.on_modulus


def test_bound_tempered_value():
    b = tempered_bound(0.3, 1)
    got = b.eval(1.0, 1.0)
    expected = 9.0 * math.exp(-math.tanh(0.6) + 1.0 / math.tanh(0.6))
    assert got == pytest.approx(expected, rel=1e-13)


def test_bound_compact_value():
    b = compact_bound(0.5, 0.5)
    got = b.eval(2.0, 0.0)
    expected = math.exp(-0.5 / math.tanh(1.0) * 4.0) * math.exp(
        0.5 * 2.0 / math.sinh(1.0)
    )
    assert got == pytest.approx(expected, rel=1e-13)
    assert b.on_modulus


def test_bound_stft_is_modulus_kind():
    b = stft_bound(2.0, 1)
    assert b.on_modulus
    assert b.eval(0.0, 0.0) == pytest.approx(1.0)


def _log_bound_unsimplified(b: BoundSpec, X, Y, U, V):
    """Each bound's log as written, with the order-m term at every m."""
    if b.kind in ("sobolev-embed", "schwartz-image", "tempered"):
        power = 2 * b.m if b.kind == "tempered" else -2 * b.m
        return (
            power * np.log1p(X**2 + Y**2)
            - math.tanh(2 * b.t) * X**2
            + (1.0 / math.tanh(2 * b.t)) * Y**2
        )
    if b.kind in ("special-schwartz", "special-plain"):
        c4 = 1.0 / math.tanh(4 * b.t)
        core = V * X - U * Y + c4 * (Y**2 + V**2)
        if b.kind == "special-schwartz":
            return core - 2 * b.m * np.log1p(X**2 + Y**2 + U**2 + V**2)
        return core - 2 * b.m * np.log1p(Y**2 + V**2)
    if b.kind == "pw-stft":
        return b.m * np.log1p(X**2 + Y**2) + Y**2 / (2.0 * b.a)
    return -0.5 / math.tanh(2 * b.t) * (X**2 - Y**2) + b.radius * np.abs(X) / math.sinh(2 * b.t)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize(
    "make",
    [
        lambda m: sobolev_embed_bound(0.3, m),
        lambda m: schwartz_image_bound(0.4, m),
        lambda m: tempered_bound(0.3, m),
        lambda m: special_schwartz_bound(0.5, m),
        lambda m: special_plain_bound(0.5, m),
        lambda m: stft_bound(2.0, m),
        lambda m: compact_bound(0.5, 0.3 * m),
    ],
    ids=["sobolev-embed", "schwartz-image", "tempered", "special-schwartz",
         "special-plain", "pw-stft", "compact"],
)
def test_bound_log_matches_unsimplified_formula(make, m, rng):
    # on an open mesh and on flat node arrays the log is the formula's to
    # the last bit, shaped like the coordinates' broadcast, at m = 0 too,
    # where the order-m term is not formed
    b = make(m)
    axes = [np.sort(rng.uniform(-6.0, 6.0, n)) for n in (5, 6, 7, 8)]
    mesh = np.ix_(*axes)
    flat = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    for coords in (mesh, flat):
        ncoords = 4 if b.kind.startswith("special") else 2
        got = b.log_eval(*coords[:ncoords])
        expected = _log_bound_unsimplified(b, *coords)
        shape = np.broadcast_shapes(*(c.shape for c in coords[:ncoords]))
        expected = np.broadcast_to(expected, shape)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)


BOUND_KINDS = {
    "sobolev-embed": lambda m: sobolev_embed_bound(0.3, m),
    "schwartz-image": lambda m: schwartz_image_bound(0.4, m),
    "tempered": lambda m: tempered_bound(0.3, m),
    "special-schwartz": lambda m: special_schwartz_bound(0.5, m),
    "special-plain": lambda m: special_plain_bound(0.5, m),
    "pw-stft": lambda m: stft_bound(2.0, m),
    "compact": lambda m: compact_bound(0.5, 0.3 * m),
}


def _open_mesh(kind):
    axes = [np.linspace(-3.0, 3.0, n) + 0.1 * n for n in (5, 6, 7, 8)]
    return np.ix_(*axes)[: 4 if kind.startswith("special") else 2]


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("kind", list(BOUND_KINDS))
def test_bound_log_is_a_fresh_writable_array(kind, m):
    # pw-stft at m = 0 once returned a read-only broadcast view
    mesh = _open_mesh(kind)
    got = BOUND_KINDS[kind](m).log_eval(*mesh)
    assert got.flags.writeable and got.flags.owndata
    assert got.shape == np.broadcast_shapes(*(c.shape for c in mesh))
    before = got.copy()
    got += 1.0
    np.testing.assert_array_equal(got, before + 1.0)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("kind", list(BOUND_KINDS))
def test_bound_log_parts_stay_on_their_axes(kind, m):
    # the log is the sum of the terms plus power log1p(sum of squares), and
    # on an open mesh no piece spans an axis it does not depend on: on C^2
    # every piece lies on two axes at most, on C only compact's Gaussian
    # spans the plane
    b = BOUND_KINDS[kind](m)
    mesh = _open_mesh(kind)
    terms, power, squares = b.log_parts(*mesh)
    if kind == "compact":
        assert power == 0 and squares == ()
    else:
        assert power == (m if kind == "pw-stft" else 2 * m if kind == "tempered" else -2 * m)
    widest = 2 if len(mesh) == 4 else 1
    for piece in list(terms if kind != "compact" else terms[1:]) + list(squares):
        assert sum(n > 1 for n in np.shape(piece)) <= widest
    total = sum(terms) + (power * np.log1p(sum(squares)) if power else 0.0)
    got = b.log_eval(*mesh)
    np.testing.assert_allclose(np.broadcast_to(total, got.shape), got, rtol=1e-14, atol=1e-14)


def test_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sobolev_embed_bound(0.0, 1)
    with pytest.raises(ValueError):
        stft_bound(-1.0, 0)
    with pytest.raises(ValueError):
        compact_bound(0.5, -0.1)


def test_probe_integral_matches_orthogonality_scale():
    # integral of |Phi_1|^2 U_t over C equals kappa^{-1} e^{2(2+1)t}
    t = 0.25
    grid = PlaneGrid(boxes=((-9.0, 9.0, -9.0, 9.0),), resolution=128)

    def g(x, y):
        z = x + 1j * y
        return np.abs(hermite_eval(1, z)[1]) ** 2 * bergman_weight(t, z)

    val = integrate_plane(g, grid)
    expected = math.sqrt(2 * math.pi) * math.exp(6 * t)
    assert val == pytest.approx(expected, rel=1e-9)


NAN = float("nan")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gaussian(NAN), "width parameter a must be positive"),
        (lambda: PolyGaussian((1.0,), NAN), "width parameter a must be positive"),
        (lambda: Bump(NAN), "radius must be positive"),
        (lambda: Gaussian2n(NAN), "width parameter a must be positive"),
        (lambda: HeatProfile(NAN), "t must be positive"),
        (lambda: mehler_kernel(NAN, 0.1, 0.2), "t must be positive"),
        (lambda: bergman_weight(NAN, 0.5), "t must be positive"),
        (lambda: special_heat_kernel(NAN, [0.1, 0.2]), "t must be positive"),
        (lambda: tempered_bound(NAN, 1), "t must be positive"),
        (lambda: stft_bound(NAN, 0), "a must be positive"),
        (lambda: compact_bound(0.3, NAN), "radius must be >= 0"),
        (lambda: Dirac(NAN), "point coordinates must be finite"),
    ],
    ids=[
        "gaussian-width", "poly-gaussian-width", "bump-radius", "gaussian2n-width",
        "heat-profile-time", "mehler-kernel-time", "bergman-weight-time",
        "special-heat-kernel-time", "bound-time", "bound-window", "compact-radius",
        "point-mass",
    ],
)
def test_nan_widths_times_and_points_are_refused_by_name(build, message):
    # a NaN once passed every "<= 0" check: Gaussian(nan) expanded to NaN
    # coefficients and mehler_kernel(nan, ...) returned nan+nanj, silently;
    # the image of Dirac(nan) raised an overflow error that named neither
    with pytest.raises(ValueError, match=message):
        build()
