"""Special Hermite basis, twisted convolution, twisted semigroup, weights."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from mehler import (
    Gaussian2n,
    PolyGaussian2n,
    SpecialHermiteBasis,
    bergman_norm_special,
    calibrate_weight_special,
    composed_intertwine_residual,
    default_special_grid,
    default_twisted_grid,
    heat_profile,
    intertwine_check,
    laguerre_function_entire,
    laguerre_profile,
    laguerre_project,
    laguerre_sobolev_norm,
    special_envelope,
    special_expand,
    special_hermite_eval,
    special_semigroup_apply,
    twisted_conv,
)
from mehler import semigroup, special
from mehler.kernels import twisted_bergman_weight
from mehler.quadrature import PlaneGrid, QuadratureError, gauss_hermite_rule
from mehler.special import (
    GaussianImage,
    SpecialEigenHandle,
    special_hermite_matrix,
    twisted_eval,
)
from mehler.specfun import hermite_eval
from mehler.spectral import ClosedFormHandle

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def tw_grid():
    return default_twisted_grid(0.4)


@pytest.fixture(scope="module")
def grid4():
    return default_special_grid(0.4, resolution=32)


@pytest.fixture(scope="module")
def kappa_star(grid4):
    return calibrate_weight_special(0.4, None, grid4)


def test_ground_state_value():
    got = special_hermite_eval((0,), (0,), 0.0, 0.0)
    assert got == pytest.approx(TWO_PI**-0.5, rel=1e-12)


def test_ground_state_radial_profile():
    # Phi_00(z) = (2 pi)^{-1/2} e^{-|z|^2/4}; |z|^2 = 4
    got = special_hermite_eval((0,), (0,), 2.0, 0.0)
    assert got == pytest.approx(TWO_PI**-0.5 * math.exp(-1.0), rel=1e-12)
    got2 = special_hermite_eval((0,), (0,), 0.0, 2.0)
    assert got2 == pytest.approx(got, rel=1e-12)


def _defining_integral(a, b, z, w):
    """Oracle: Phi_ab(z, w) = (2 pi)^{-1/2} int e^{i z xi} h_a(xi + w/2)
    h_b(xi - w/2) dxi by the 64-node compensated Gauss-Hermite sum."""
    rule = gauss_hermite_rule(64)
    xi = rule.nodes
    cw = rule.weights * np.exp(xi**2)
    zx = np.asarray(z)[..., None]
    wx = np.asarray(w)[..., None]
    hp = hermite_eval(max(a, b), xi + wx / 2.0)
    hm = hermite_eval(max(a, b), xi - wx / 2.0)
    return TWO_PI**-0.5 * np.sum(cw * np.exp(1j * zx * xi) * hp[a] * hm[b], axis=-1)


def _complex_points(rng, size):
    return rng.uniform(-4, 4, size) + 1j * rng.uniform(-2, 2, size)


def test_closed_form_matches_defining_integral():
    rng = np.random.default_rng(7)
    z, w = _complex_points(rng, 200), _complex_points(rng, 200)
    for a in range(6):
        for b in range(6):
            ref = _defining_integral(a, b, z, w)
            got = special_hermite_eval((a,), (b,), z, w)
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-13


def test_closed_form_product_in_two_dimensions():
    rng = np.random.default_rng(8)
    z = _complex_points(rng, (50, 2))
    w = _complex_points(rng, (50, 2))
    got = special_hermite_eval((1, 3), (2, 0), z, w)
    ref = _defining_integral(1, 2, z[:, 0], w[:, 0]) * _defining_integral(
        3, 0, z[:, 1], w[:, 1]
    )
    assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-13


@pytest.mark.parametrize(
    "a, b, z, w",
    [
        (3, 5, 0.7 + 0.3j, -0.4 + 0.5j),
        (10, 12, -1.2 - 0.4j, 0.9 + 0.2j),
        (15, 15, 0.7 + 0.3j, -0.4 + 0.5j),
        (20, 7, -1.2 - 0.4j, 0.9 + 0.2j),
    ],
    ids=["3-5", "10-12", "15-15", "20-7"],
)
def test_closed_form_matches_mpmath_integral(a, b, z, w):
    import mpmath

    def h(k, x):
        norm = mpmath.sqrt(mpmath.mpf(2) ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        return mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / norm

    with mpmath.workdps(20):
        zm, wm = mpmath.mpc(z), mpmath.mpc(w)
        integral = mpmath.quad(
            lambda xi: mpmath.exp(1j * zm * xi) * h(a, xi + wm / 2) * h(b, xi - wm / 2),
            [-mpmath.inf, -8, -4, 0, 4, 8, mpmath.inf],
        )
        ref = complex(integral / mpmath.sqrt(2 * mpmath.pi))
    got = complex(special_hermite_eval((a,), (b,), z, w))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_rejects_non_finite_arguments():
    for z, w in [(np.nan, 0.0), (0.5, complex(0.0, np.inf))]:
        with pytest.raises(ValueError, match="finite"):
            special_hermite_eval((1,), (0,), z, w)


def test_orthonormality_on_plane():
    grid = PlaneGrid(boxes=((-9.0, 9.0, -9.0, 9.0),), resolution=96)
    X, U, W = grid.nodes()
    vals = {}
    for a in range(3):
        for b in range(3):
            vals[(a, b)] = special_hermite_eval((a,), (b,), X, U)
    for a1 in range(3):
        for b1 in range(3):
            for a2 in range(3):
                for b2 in range(3):
                    ip = np.sum(W * vals[(a1, b1)] * np.conj(vals[(a2, b2)]))
                    expected = 1.0 if (a1, b1) == (a2, b2) else 0.0
                    assert abs(ip - expected) < 1e-7


def test_twisted_conv_ground_states(tw_grid):
    # phi_0 x phi_0 at the origin is the plain Gaussian integral 2 pi
    got = twisted_conv(laguerre_profile(0), laguerre_profile(0), 0.0, 0.0, tw_grid)
    assert got == pytest.approx(TWO_PI, rel=1e-12)


def test_twisted_conv_eigenspace_orthogonality(tw_grid):
    got = twisted_conv(laguerre_profile(0), laguerre_profile(1), 0.0, 0.0, tw_grid)
    assert abs(got) < 1e-8


def test_twisted_conv_heat_eigenfunction(tw_grid):
    f = SpecialHermiteBasis((0,), (0,))
    got = twisted_conv(f, heat_profile(0.5), 0.0, 0.0, tw_grid)
    expected = math.exp(-0.5) * TWO_PI**-0.5
    assert got == pytest.approx(expected, rel=1e-10)




def test_semigroup_eigen_relation_origin():
    got = special_semigroup_apply(SpecialHermiteBasis((0,), (0,)), 0.5, 0.0, 0.0)
    assert got == pytest.approx(math.exp(-0.5) * TWO_PI**-0.5, rel=1e-10)


def test_semigroup_eigen_relation_beta_one():
    f = SpecialHermiteBasis((0,), (1,))
    ref = math.exp(-0.9) * special_hermite_eval((0,), (1,), 0.3, -0.2)
    got = special_semigroup_apply(f, 0.3, 0.3, -0.2)
    assert abs(got - ref) < 1e-9


def test_semigroup_eigen_relation_complex_points():
    pts = [(0.6 + 0.3j, -0.4 + 0.5j), (0.2 - 0.6j, 1.0 + 0.4j)]
    for ab in [((0,), (0,)), ((1,), (1,)), ((0,), (1,))]:
        lam = 2 * sum(ab[1]) + 1
        for z, w in pts:
            got = special_semigroup_apply(SpecialHermiteBasis(*ab), 0.4, z, w)
            ref = math.exp(-lam * 0.4) * special_hermite_eval(*ab, z, w)
            assert abs(got - ref) / (1 + abs(ref)) < 1e-6


def test_semigroup_matches_gaussian_closed_form():
    # independent oracle: complete the square in the defining integral
    z, w = 0.5 + 0.4j, -0.3 + 0.6j
    oracle = GaussianImage(1.0, 0.4)(z, w)
    got = special_semigroup_apply(Gaussian2n(1.0), 0.4, z, w)
    assert abs(got - oracle) / abs(oracle) < 1e-12


@pytest.mark.parametrize(
    "run",
    [
        lambda: special_semigroup_apply(Gaussian2n(1.0), 0.4, 0.0, 40j),
        lambda: special_semigroup_apply(SpecialHermiteBasis((1,), (0,)), 0.4, 0.0, 40j),
        lambda: GaussianImage(1.0, 0.4)(0.0, 40j),
    ],
    ids=["gaussian-kernel", "phi10-kernel", "gaussian-closed-form"],
)
def test_twisted_image_overflow_is_loud(run):
    # at w = 40i the twisted heat image leaves the doubles; the value must
    # not come back as NaN, nor as a RuntimeWarning before the named error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(special.HermiteOverflowError, match="largest double"):
            run()


def test_laguerre_projection_identity(tw_grid):
    got = laguerre_project(SpecialHermiteBasis((0,), (0,)), 0, 0.0, 0.0, tw_grid)
    assert got == pytest.approx(TWO_PI**-0.5, rel=1e-10)
    got1 = laguerre_project(SpecialHermiteBasis((0,), (0,)), 1, 0.0, 0.0, tw_grid)
    assert abs(got1) < 1e-7


def test_projection_algebra_at_points(tw_grid):
    pts = [(0.0, 0.0), (0.4, -0.7), (1.0, 0.3), (-0.6, -0.2), (0.8, 0.9)]
    for k, j in [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)]:
        for x, u in pts:
            got = laguerre_project(laguerre_profile(k), j, x, u, tw_grid)
            ref = laguerre_function_entire(k, x * x + u * u, 1) if k == j else 0.0
            assert abs(got - ref) < 1e-6


def test_reconstruction_from_projections(tw_grid):
    # all 13 projections from one call: one ladder, one pair of moment tables
    parts = laguerre_project(Gaussian2n(1.0), range(13), 0.0, 0.0, tw_grid)
    assert parts.shape == (13,)
    assert abs(sum(parts) - 1.0) < 1e-4


# |one call - single-profile call| <= MULTI_PROFILE_TOL (1 + |single|): the
# shared tables sum their moments in other BLAS blocks than a lone
# profile's, so the two agree to roundoff (64 ulp), not bit for bit
MULTI_PROFILE_TOL = 64 * np.finfo(float).eps


@pytest.mark.parametrize(
    "f",
    [
        Gaussian2n(1.0),
        SpecialHermiteBasis((2,), (1,)),
        PolyGaussian2n((((0, 0), 1.0), ((1, 0), 0.5j), ((0, 2), -0.3)), 1.0),
        laguerre_profile(2),
    ],
    ids=["gaussian", "phi21", "polygauss", "laguerre2-input"],
)
@pytest.mark.parametrize("kind", ["origin", "real", "complex"])
def test_profile_sets_match_single_profile_calls(tw_grid, f, kind):
    rng = np.random.default_rng(3)
    if kind == "origin":
        z, w = 0.0, 0.0
    else:
        z, w = rng.uniform(-1.0, 1.0, (2, 6))
        if kind == "complex":
            z, w = z + 1j * rng.uniform(-1.0, 1.0, 6), w + 1j * rng.uniform(-1.0, 1.0, 6)
    ks = [0, 3, 1, 12, 5]
    got = twisted_conv(f, [laguerre_profile(k) for k in ks], z, w, tw_grid)
    assert got.shape == (len(ks),) + np.shape(z)
    for row, k in zip(got, ks):
        one = twisted_conv(f, laguerre_profile(k), z, w, tw_grid)
        assert np.all(np.abs(row - one) <= MULTI_PROFILE_TOL * (1.0 + np.abs(one))), k
    projected = laguerre_project(f, ks, z, w, tw_grid)
    np.testing.assert_array_equal(projected, got / TWO_PI)


def test_profile_sets_share_one_ladder(tw_grid, monkeypatch):
    orders = []

    def recording(k_max, z):
        orders.append(k_max)
        return hermite_eval(k_max, z)

    monkeypatch.setattr(special, "hermite_eval", recording)
    laguerre_project(Gaussian2n(1.0), range(13), 0.0, 0.0, tw_grid)
    assert orders == [24]


def test_profile_sets_are_laguerre_profiles(tw_grid):
    with pytest.raises(TypeError, match="several profiles only as Laguerre"):
        twisted_conv(Gaussian2n(1.0), [heat_profile(0.4), laguerre_profile(1)], 0.0, 0.0, tw_grid)
    with pytest.raises(ValueError, match="at least one profile"):
        twisted_conv(Gaussian2n(1.0), [], 0.0, 0.0, tw_grid)


def test_negative_laguerre_order_is_refused_when_built(tw_grid):
    # it once built LaguerreProfile(k=-1) and failed later, inside the
    # Hermite ladder, with "k_max must be >= 0"
    with pytest.raises(ValueError, match="Laguerre profile order k must be >= 0, got -1"):
        laguerre_profile(-1)
    with pytest.raises(ValueError, match="Laguerre profile order k must be >= 0, got -2"):
        laguerre_project(Gaussian2n(1.0), [0, -2], 0.0, 0.0, tw_grid)


def test_intertwine_exactly_one_convention():
    for t in (0.4, 0.5):
        for f in (Gaussian2n(1.0 / math.tanh(t)), Gaussian2n(1.0),
                  SpecialHermiteBasis((0,), (0,))):
            plus, minus = intertwine_check(f, t)
            assert (plus.convention, minus.convention) == (+1, -1)
            assert plus.a_value == -minus.a_value == 0.5 / math.tanh(t)
            assert plus.residual <= 1e-6
            assert minus.residual > 1e-3
            assert plus.passes() and not minus.passes()


@pytest.mark.parametrize("ab", [(1, 0), (2, 1), (0, 3)], ids=["phi10", "phi21", "phi03"])
def test_intertwine_exact_route_for_basis_members(ab):
    # every n = 1 member is a polynomial Gaussian on the real plane, so its
    # derivatives are exact: the residual is roundoff (a 4th-order finite
    # difference read 2.1e-14 for Phi_10 and 7.7e-14 for Phi_21)
    f = SpecialHermiteBasis((ab[0],), (ab[1],))
    x = np.linspace(-4.0, 4.0, 41)[:, None]
    u = np.linspace(-3.5, 4.5, 37)[None, :]
    np.testing.assert_allclose(
        special._polygauss_eval(*special._as_polygauss(f), x, u), twisted_eval(f, x, u),
        rtol=0, atol=1e-15,
    )
    plus, minus = intertwine_check(f, 0.4)
    assert plus.residual <= 1e-14
    assert minus.residual > 1e-3
    assert composed_intertwine_residual(f, 0.4) <= 1e-14


@pytest.mark.parametrize(
    "f",
    [lambda X, U: np.exp(-(X * X + U * U)), SpecialHermiteBasis((0, 1), (1, 0))],
    ids=["callable", "n2-member"],
)
def test_intertwine_refuses_inputs_without_a_polynomial_gaussian_form(f):
    with pytest.raises(ValueError, match="polynomial Gaussian"):
        intertwine_check(f, 0.4)
    with pytest.raises(ValueError, match="polynomial Gaussian"):
        composed_intertwine_residual(f, 0.4)


def test_intertwine_checks_evaluate_the_heat_profile_once(monkeypatch):
    # the image e^{-tL} f and every left side are polynomial Gaussians of
    # one width, contracted against one pair of heat-profile moment tables:
    # one evaluation of the profile's axis factors per call
    calls = []
    axis_factors = special.HeatProfile.axis_factors

    def recording(self, a, b):
        calls.append(self.t)
        return axis_factors(self, a, b)

    monkeypatch.setattr(special.HeatProfile, "axis_factors", recording)
    for f in (Gaussian2n(1.0), SpecialHermiteBasis((2,), (1,))):
        calls.clear()
        plus, minus = intertwine_check(f, 0.4)
        assert calls == [0.4]
        assert plus.residual <= 1e-14 and minus.residual > 1e-3
        calls.clear()
        assert composed_intertwine_residual(f, 0.5) <= 1e-14
        assert calls == [0.5]


def test_composed_relation():
    for t in (0.4, 0.5):
        assert composed_intertwine_residual(Gaussian2n(1.0), t) <= 1e-5


def test_twisted_weight_calibration(kappa_star):
    # the weight is built from the profile normalized 2^n above the
    # spectral one; the calibration absorbs exactly that factor
    assert kappa_star.kappa == pytest.approx(0.5, rel=1e-4)
    assert kappa_star.spread < 1e-3
    diag_scale = math.exp(2 * 0.4)  # smallest diagonal, e^{2(2|b|+1)t} scale
    assert kappa_star.max_offdiagonal < 1e-5 * diag_scale


def test_twisted_isometry(grid4, kappa_star):
    handle = SpecialEigenHandle((0,), (0,), 0.4)
    val = bergman_norm_special(handle, 0.4, 0, grid4, kappa_star=kappa_star.kappa)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_twisted_sobolev_identity(grid4, kappa_star):
    handle = SpecialEigenHandle((0,), (1,), 0.4)
    val = bergman_norm_special(handle, 0.4, 1, grid4, kappa_star=kappa_star.kappa)
    assert val == pytest.approx(36.0, rel=1e-3)


def test_calibration_rejects_empty_pairs(grid4):
    with pytest.raises(ValueError, match="pairs"):
        calibrate_weight_special(0.4, [], grid4)


def test_calibration_rejects_a_repeated_probe(grid4):
    # a repeated probe was summed as an off-diagonal pair with itself
    # (max_offdiagonal 4.45) and its ratio kept once
    with pytest.raises(ValueError, match=r"probe \(\(0,\), \(0,\)\) is repeated"):
        calibrate_weight_special(0.4, [((0,), (0,)), ((0,), (0,))], grid4)


def test_calibration_names_a_probe_of_the_wrong_length(grid4):
    with pytest.raises(ValueError, match=r"pairs: calibration probe \(\(0, 1\), \(0,\)\) is not of"):
        calibrate_weight_special(0.4, [((0,), (0,)), ((0, 1), (0,))], grid4)


@pytest.mark.parametrize("m, message", [(1.5, "an integer, got 1.5"), (-1, ">= 0, got -1")])
def test_twisted_norm_names_a_bad_order(grid4, m, message):
    # 1.5 once failed inside the Taylor jets with a bare TypeError
    handle = SpecialEigenHandle((0,), (1,), 0.4)
    with pytest.raises(ValueError, match=f"weighted-norm order m must be {message}"):
        bergman_norm_special(handle, 0.4, m, grid4, kappa_star=0.5)


def test_default_twisted_grid_is_shared():
    grid = default_twisted_grid(0.3)
    assert default_twisted_grid(0.3) is grid
    assert default_twisted_grid(0.3).nodes()[0] is grid.nodes()[0]
    assert default_twisted_grid(0.4) is not grid
    assert grid.resolution == 65


def _grid_planes(grid):
    """Flattened z- and w-plane points with their quadrature weights."""
    (x, wx), (y, wy), (u, wu), (v, wv) = (grid.axis(k) for k in range(4))
    Z = (x[:, None] + 1j * y[None, :]).ravel()
    W = (u[:, None] + 1j * v[None, :]).ravel()
    return Z, np.outer(wx, wy).ravel(), W, np.outer(wu, wv).ravel()


def _dense_weight(t, m, grid):
    """Quadrature weights times d^{2m}/dt^{2m} W_t on the whole 4-D product."""
    Z, wz, W, ww = _grid_planes(grid)
    return wz[:, None] * twisted_bergman_weight(t, m, Z[:, None], W[None, :]) * ww[None, :]


def _dense_calibration(t, pairs, grid):
    Z, _, W, _ = _grid_planes(grid)
    weight = _dense_weight(t, 0, grid)
    mats = [special_hermite_matrix(a[0], b[0], Z, W) for a, b in pairs]
    raw = [float(np.sum(np.abs(F) ** 2 * weight)) for F in mats]
    ratios = {
        (a, b): math.exp(2 * (2 * b[0] + 1) * t) / r for (a, b), r in zip(pairs, raw)
    }
    off = [abs(np.sum(mats[0] * np.conj(F) * weight)) for F in mats[1:3]]
    return ratios, max(off, default=0.0), max(raw)


@pytest.mark.parametrize(
    "pairs, t",
    [
        (None, 0.4),
        ([((0,), (0,))], 0.4),
        ([((1,), (1,)), ((0,), (1,))], 0.4),
        ([((0,), (0,)), ((2,), (0,)), ((1,), (1,)), ((0,), (2,)), ((2,), (2,))], 0.4),
        (None, 0.25),
        (None, 0.6),
    ],
    ids=["default", "one-pair", "two-pairs", "five-pairs", "t0.25", "t0.6"],
)
def test_calibration_matches_dense_reference(grid4, pairs, t):
    grid = grid4 if t == 0.4 else default_special_grid(t, resolution=32)
    cal = calibrate_weight_special(t, pairs, grid)
    ref_pairs = pairs or [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    ratios, max_off, diag_scale = _dense_calibration(t, ref_pairs, grid)
    assert list(cal.ratios) == list(ratios)
    for key, r in ratios.items():
        assert cal.ratios[key] == pytest.approx(r, rel=1e-12)
    kappa = math.exp(np.mean(np.log(list(ratios.values()))))
    assert cal.kappa == pytest.approx(kappa, rel=1e-12)
    assert abs(cal.max_offdiagonal - max_off) <= 1e-15 * diag_scale
    if len(ref_pairs) == 1:
        assert cal.max_offdiagonal == 0.0


def _dense_norm_terms(handle, t, m, grid):
    """|F|^2 times the quadrature weights and d^{2m}/dt^{2m} W_t, on the
    whole 4-D product of the grid's planes."""
    Z, _, W, _ = _grid_planes(grid)
    F = handle.eval_grid(Z.real[:, None], Z.imag[:, None], W.real[None, :], W.imag[None, :])
    return np.abs(F) ** 2 * _dense_weight(t, m, grid)


@pytest.mark.parametrize("m", [0, 1], ids=["m0", "m1"])
def test_blocked_norm_matches_dense_reference(grid4, m):
    # the folded tables sum the dense quadrature's terms in another order
    t = 0.4
    handle = SpecialEigenHandle((1,), (2,), t)
    terms = _dense_norm_terms(handle, t, m, grid4)
    got = bergman_norm_special(handle, t, m, grid4)
    assert abs(got - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


def test_probe_polynomial_matches_closed_form():
    rng = np.random.default_rng(20261018)
    z = rng.uniform(-2.0, 2.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    w = rng.uniform(-2.0, 2.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    gauss = np.exp(-(z * z + w * w) / 4.0)
    for a in range(5):
        for b in range(5):
            n = abs(a - b) + 2 * min(a, b) + 1
            P = special._phi1_poly(a, b, n)
            mono = [c[:, None] ** np.arange(n) for c in (z.real, z.imag, w.real, w.imag)]
            got = np.einsum("pqrs,np,nq,nr,ns->n", P, *mono) * gauss
            ref = special_hermite_eval((a,), (b,), z, w)
            # near a zero of the Laguerre factor the monomial sum and the
            # closed form agree to the scale of the values, not to the value
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
            with pytest.raises(ValueError, match="degree"):
                special._phi1_poly(a, b, n - 1)


def test_calibration_sweeps_no_four_dimensional_mesh(monkeypatch):
    # at resolution 128 the 4-D mesh holds 268 M nodes; the calibration and
    # the norms contract per-axis moment tables and evaluate nothing on it
    def refuse(*args, **kwargs):
        raise AssertionError("the 4-D mesh was walked")

    for module, name in [
        (special, "special_hermite_eval"),
        (special, "_phi1"),
        (semigroup, "_mesh_blocks"),
        (SpecialEigenHandle, "eval_grid"),
        (SpecialEigenHandle, "eval_grid_parts"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    t = 0.4
    grid = default_special_grid(t, resolution=128)
    kappa = calibrate_weight_special(t, None, grid).kappa
    assert abs(kappa - 0.5) <= 1e-12
    # Thm 3.1 and 3.2 on Phi_01: eigenvalue 3, so the order-m norm is 6^{2m}
    # (m = 2 reads 1.1e-10 off, as the mesh sum did at resolutions 32-64)
    for m in (0, 1, 2):
        val = bergman_norm_special(SpecialEigenHandle((0,), (1,), t), t, m, grid, kappa)
        assert val == pytest.approx(36.0**m, rel=1e-9)


@pytest.mark.parametrize("t", [0.0, -0.4])
def test_default_special_grid_rejects_non_positive_t(t):
    with pytest.raises(ValueError, match="t must be positive"):
        default_special_grid(t)


def test_default_special_grid_at_large_t():
    # coth 2t - 1 rounds to 0 beyond t ~ 9.5; 2/expm1(4t) does not
    grid = default_special_grid(10.0)
    assert all(math.isfinite(v) for box in grid.boxes for v in box)


@pytest.mark.parametrize("t", [0.0, -0.4])
def test_calibration_rejects_non_positive_t(grid4, t):
    with pytest.raises(ValueError, match="t must be positive"):
        calibrate_weight_special(t, None, grid4)


@pytest.mark.parametrize("t", [0.0, -0.4])
def test_twisted_norm_rejects_non_positive_t(grid4, t):
    handle = SpecialEigenHandle((0,), (0,), 0.4)
    with pytest.raises(ValueError, match="t must be positive"):
        bergman_norm_special(handle, t, 0, grid4)


def test_twisted_norm_takes_eigen_handles_only(grid4):
    # the norm folds the Gaussian of Phi_ab into the weight; a handle with
    # no polynomial form is refused, not summed over the mesh
    zero = ClosedFormHandle(lambda Z, W: np.zeros(np.broadcast(Z, W).shape, complex))
    with pytest.raises(TypeError, match="SpecialEigenHandle"):
        bergman_norm_special(zero, 0.4, 0, grid4)


def test_eigen_handle_rejects_n_above_one():
    # its grids are the four real axes of one (z, w) pair; at n = 2 it used
    # to drop the second coordinate pair without a word
    for alpha, beta in [((0, 0), (0, 0)), ((1,), (0, 0)), ((0, 1), (2,))]:
        with pytest.raises(ValueError, match="one-dimensional"):
            SpecialEigenHandle(alpha, beta, 0.4)
    with pytest.raises(ValueError, match="one-dimensional"):
        special_envelope(SpecialHermiteBasis((0, 0), (0, 0)), 0.4, 0, _env_grid())


@pytest.mark.parametrize("call", ["calibrate", "norm"])
def test_weighted_integrals_need_two_coordinates(call):
    grid = PlaneGrid(((-6.0, 6.0, -6.0, 6.0),), 32, "trapezoid")
    with pytest.raises(ValueError, match="two-coordinate grid over C\\^2"):
        if call == "calibrate":
            calibrate_weight_special(0.4, None, grid)
        else:
            bergman_norm_special(SpecialEigenHandle((0,), (0,), 0.4), 0.4, 0, grid)


def test_calibration_at_moderate_t():
    # the probe Gaussian folded into the weight keeps every table <= 1, so
    # the wide boxes at t = 1 neither overflow nor warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cal = calibrate_weight_special(1.0, None, default_special_grid(1.0, resolution=64))
    assert abs(cal.kappa / 0.5 - 1.0) <= 1e-7


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("t, res", [(1.5, 64), (1.0, 32)])
def test_eigen_norm_on_a_coarse_grid_is_named(t, res, m):
    # the split form keeps these sums finite, but the step is too coarse for
    # the unit-width ridges: the eigen handle's norm came back 14% (t = 1.5)
    # and 1.7% (t = 1, resolution 32) off the isometry, with no warning
    grid = default_special_grid(t, resolution=res)
    handle = SpecialEigenHandle((0,), (m,), t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="twice the step"):
            bergman_norm_special(handle, t, m, grid, 0.5)


@pytest.mark.parametrize("m", [0, 2])
def test_half_step_sum_is_the_nested_trapezoid_rule(m):
    # at odd resolution every second node is the grid of twice the step
    t = 0.4
    fine = default_special_grid(t, resolution=33)
    coarse = dataclasses.replace(fine, resolution=17)
    P = special._phi1_poly(2, 1, 7)  # Phi_21 has degree 3; |P|^2 has 6
    ((total, half, size),) = special._plane_sums([(P, P)], t, m, fine)
    ((want, _, want_size),) = special._plane_sums([(P, P)], t, m, coarse)
    assert abs(half - want) <= 1e-13 * want_size
    assert size >= abs(total) > 0.0


def test_split_norm_on_wide_boxes_is_the_isometry():
    # with F = P e^E the exponent 2 Re E + yu - xv - coth(2t) q is bounded,
    # so at t = 1 the norms come out finite and match Thm 3.1 and 3.2 with
    # the moment-table kappa*
    t = 1.0
    grid = default_special_grid(t, resolution=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = calibrate_weight_special(t, None, grid).kappa
        iso = bergman_norm_special(SpecialEigenHandle((0,), (0,), t), t, 0, grid, kappa)
        sob = bergman_norm_special(SpecialEigenHandle((0,), (1,), t), t, 1, grid, kappa)
    assert iso == pytest.approx(1.0, abs=1e-7)
    assert sob == pytest.approx(36.0, rel=1e-7)


def test_phi1_joins_exponents_on_wide_boxes():
    # e^{-z^2/4} underflows to 0 and e^{-w^2/4} overflows at these points,
    # but their product fits a double (it used to come back as NaN); a
    # point where the product does not fit is named
    z = np.array([60.0, 60.0 + 1j])
    w = np.array([59.0j, 59.0j + 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special._phi1(1, 2, z, w)
        with pytest.raises(special.HermiteOverflowError):
            special._phi1(0, 0, 0.0, 60.0j)
    # d = 1, k = 1: coef (z + iw) L_1^1(q/2) e^{-q/4}, L_1^1(r) = 2 - r
    _, _, coef = special._phi1_constants(1, 2)
    q = z * z + w * w
    expected = coef * (z + 1j * w) * (2.0 - 0.5 * q) * np.exp(-q / 4)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("t", [1.0, 1.5])
def test_under_resolved_calibration_fails_loudly(t):
    # each diagonal probe sums the nested rule of twice the step, which
    # moves by 0.26-1.0 of the probe here: named before the flatness test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="twice the step"):
            calibrate_weight_special(t, None, default_special_grid(t, resolution=32))


@pytest.mark.parametrize("ab", [((0,), (1,)), ((2,), (1,))], ids=["ab0", "ab1"])
def test_order_two_norm_matches_dense_reference(grid4, ab):
    t = 0.4
    handle = SpecialEigenHandle(*ab, t)
    terms = _dense_norm_terms(handle, t, 2, grid4)
    # the order-2 weight changes sign, so judge the two summation orders
    # against the sum of |terms|
    got = bergman_norm_special(handle, t, 2, grid4)
    assert abs(got - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


def _env_grid():
    return PlaneGrid(
        boxes=((-6.0, 6.0, -6.0, 6.0), (-6.0, 6.0, -6.0, 6.0)), resolution=17, kind="trapezoid"
    )


def test_special_envelope_plain_kind():
    rep = special_envelope(
        SpecialHermiteBasis((0,), (0,)), 0.5, 0, _env_grid(), kind="special-plain"
    )
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    assert rep.stable


def test_special_envelope_full_denominator():
    rep = special_envelope(
        SpecialHermiteBasis((0,), (0,)), 0.5, 1, _env_grid(), kind="special-schwartz"
    )
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    assert rep.stable


def test_special_envelope_gaussian_member():
    rep = special_envelope(Gaussian2n(1.0), 0.5, 1, _env_grid(), kind="special-schwartz")
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0


def test_special_envelope_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown envelope kind"):
        special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, 0, _env_grid(), kind="x")


@pytest.mark.parametrize("a, b", [(0, 0), (1, 2), (2, 1), (1, 1), (3, 0)])
def test_matrix_path_matches_pointwise_evaluation(a, b):
    Z = np.array([0.3 + 0.2j, -0.8 + 0.5j, 1.1 - 0.4j])
    W = np.array([0.0 + 0.0j, 0.6 - 0.3j])
    mat = special_hermite_matrix(a, b, Z, W)
    for i, z in enumerate(Z):
        for j, w in enumerate(W):
            direct = special_hermite_eval((a,), (b,), z, w)
            assert abs(mat[i, j] - direct) < 1e-12


def test_special_expand_eigenfunction(tw_grid):
    grid = PlaneGrid(boxes=((-9.0, 9.0, -9.0, 9.0),), resolution=96)
    e = special_expand(SpecialHermiteBasis((0,), (1,)), 1, grid)
    assert abs(e.coefficient((0,), (1,)) - 1.0) < 1e-8
    assert abs(e.coefficient((0,), (0,))) < 1e-8
    assert laguerre_sobolev_norm(e, 1) == pytest.approx(3.0, rel=1e-7)
    assert laguerre_sobolev_norm(e, 0) == pytest.approx(1.0, rel=1e-7)


def test_polygaussian_calculus():
    # the lowering operators D_x = d/dx - a x and D_u = d/du - a u on the
    # coefficient array, against central differences of the function
    f = PolyGaussian2n((((1, 0), 1.0), ((2, 1), -0.5j)), 0.5)  # (x - i x^2 u/2) e^{-(x^2+u^2)/4}
    C, rate = special._as_polygauss(f)
    X = np.array([0.3, -1.2])
    U = np.array([0.5, 0.0])
    h, a = 1e-6, 0.7
    fd = (twisted_eval(f, X + h, U) - twisted_eval(f, X - h, U)) / (2 * h)
    dx = special._polygauss_eval(special._lower(C, rate, a, 0), rate, X, U)
    assert np.allclose(dx, fd - a * X * twisted_eval(f, X, U), atol=1e-8)
    fdu = (twisted_eval(f, X, U + h) - twisted_eval(f, X, U - h)) / (2 * h)
    du = special._polygauss_eval(special._lower(C, rate, a, 1), rate, X, U)
    assert np.allclose(du, fdu - a * U * twisted_eval(f, X, U), atol=1e-8)


def test_polygaussian_sums_repeated_powers():
    f = PolyGaussian2n((((0, 0), 1.0), ((0, 0), 2.0)))
    assert twisted_eval(f, 0.0, 0.0) == pytest.approx(3.0)


@pytest.mark.parametrize("powers", [(-1, 0), (0, -2)], ids=["negative-x", "negative-u"])
def test_polygaussian_refuses_negative_powers(powers):
    with pytest.raises(ValueError, match="whole numbers"):
        PolyGaussian2n(((powers, 1.0),))


@pytest.mark.parametrize("powers", [(1.5, 0), (0, 0.25)], ids=["fractional-x", "fractional-u"])
def test_polygaussian_refuses_fractional_powers(powers):
    with pytest.raises(ValueError, match="whole numbers"):
        PolyGaussian2n(((powers, 1.0),))


def test_entire_evaluation_consistency(tw_grid):
    # basis member at complex arguments: conjugation symmetry of the
    # defining integral under (z, w) -> (conj z, conj w)
    z, w = 0.5 + 0.3j, -0.2 + 0.7j
    v = special_hermite_eval((1,), (1,), z, w)
    v_conj = special_hermite_eval((1,), (1,), np.conj(z), np.conj(w))
    assert abs(np.conj(v) - v_conj) < 1e-12
    g = twisted_eval(Gaussian2n(2.0), np.array([z]), np.array([w]))
    assert g[0] == pytest.approx(np.exp(-1.0 * (z * z + w * w)), rel=1e-12)


@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 2), (2, 1)])
def test_split_form_matches_eval_grid_on_open_meshes(a, b):
    # P keeps the broadcast shape of its factors (0-d for Phi_00, whose P
    # is its constant), E is the pair of an (x, y) and a (u, v) table, and
    # P e^{E_z + E_w} is the image on the open mesh
    t = 0.5
    handle = SpecialEigenHandle((a,), (b,), t)
    mesh = np.ix_(*(np.linspace(-3.0, 3.0, n) for n in (5, 6, 7, 8)))
    P, (E_z, E_w) = handle.eval_grid_parts(*mesh)
    if (a, b) == (0, 0):
        assert P.shape == ()
    assert E_z.shape == (5, 6, 1, 1) and E_w.shape == (1, 1, 7, 8)
    assert np.broadcast_shapes(P.shape, E_z.shape, E_w.shape) == (5, 6, 7, 8)
    expected = handle.eval_grid(*mesh)
    floor = 1e-15 * np.max(np.abs(expected))
    np.testing.assert_allclose(P * np.exp(E_z + E_w), expected, rtol=1e-13, atol=floor)
