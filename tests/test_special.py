"""Special Hermite basis, twisted convolution, twisted semigroup, weights."""

import math

import numpy as np
import pytest

from mehler import (
    Gaussian2n,
    PolyGaussian2n,
    SampledGrid,
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
from mehler.quadrature import PlaneGrid, gauss_hermite_rule
from mehler.special import (
    GaussianImage,
    SpecialEigenHandle,
    special_hermite_matrix,
    twisted_eval_entire,
)
from mehler.specfun import hermite_eval

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


def test_twisted_conv_refuses_sampled_data_at_complex_points(tw_grid):
    f = SampledGrid((0.0, 1.0), (0.0, 1.0), ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="entire"):
        twisted_conv(laguerre_profile(0), f, 0.5j, 0.0, tw_grid)


def test_sampled_grid_interpolation():
    f = SampledGrid((0.0, 1.0), (0.0, 1.0), ((0.0, 1.0), (1.0, 2.0)))
    from mehler.special import twisted_eval

    assert twisted_eval(f, 0.5, 0.5) == pytest.approx(1.0)
    assert twisted_eval(f, 0.0, 1.0) == pytest.approx(1.0)


def test_semigroup_eigen_relation_origin(tw_grid):
    got = special_semigroup_apply(
        SpecialHermiteBasis((0,), (0,)), 0.5, 0.0, 0.0, "kernel", tw_grid
    )
    assert got == pytest.approx(math.exp(-0.5) * TWO_PI**-0.5, rel=1e-10)


def test_semigroup_eigen_relation_beta_one(tw_grid):
    f = SpecialHermiteBasis((0,), (1,))
    ref = math.exp(-0.9) * special_hermite_eval((0,), (1,), 0.3, -0.2)
    got = special_semigroup_apply(f, 0.3, 0.3, -0.2, "kernel", default_twisted_grid(0.3))
    assert abs(got - ref) < 1e-9


def test_semigroup_eigen_relation_complex_points(tw_grid):
    pts = [(0.6 + 0.3j, -0.4 + 0.5j), (0.2 - 0.6j, 1.0 + 0.4j)]
    for ab in [((0,), (0,)), ((1,), (1,)), ((0,), (1,))]:
        lam = 2 * sum(ab[1]) + 1
        for z, w in pts:
            got = special_semigroup_apply(
                SpecialHermiteBasis(*ab), 0.4, z, w, "kernel", tw_grid
            )
            ref = math.exp(-lam * 0.4) * special_hermite_eval(*ab, z, w)
            assert abs(got - ref) / (1 + abs(ref)) < 1e-6


def test_semigroup_modes_agree_on_gaussian(tw_grid):
    z, w = 0.5 + 0.4j, -0.3 + 0.6j
    a = special_semigroup_apply(Gaussian2n(1.0), 0.4, z, w, "kernel", tw_grid)
    b = special_semigroup_apply(Gaussian2n(1.0), 0.4, z, w, "spectral", tw_grid)
    assert abs(a - b) / abs(a) < 1e-6


def test_semigroup_matches_gaussian_closed_form(tw_grid):
    # independent oracle: complete the square in the defining integral
    z, w = 0.5 + 0.4j, -0.3 + 0.6j
    oracle = GaussianImage(1.0, 0.4)(z, w)
    got = special_semigroup_apply(Gaussian2n(1.0), 0.4, z, w, "kernel", tw_grid)
    assert abs(got - oracle) / abs(oracle) < 1e-12


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
    total = sum(
        laguerre_project(Gaussian2n(1.0), k, 0.0, 0.0, tw_grid) for k in range(13)
    )
    assert abs(total - 1.0) < 1e-4


def test_intertwine_exactly_one_convention():
    for t in (0.4, 0.5):
        for f in (Gaussian2n(1.0 / math.tanh(t)), Gaussian2n(1.0),
                  SpecialHermiteBasis((0,), (0,))):
            plus = intertwine_check(f, t, +1)
            minus = intertwine_check(f, t, -1)
            assert plus.residual <= 1e-6
            assert minus.residual > 1e-3
            assert plus.passes() and not minus.passes()


def test_intertwine_finite_difference_route():
    # a basis member beyond the closed-form table exercises the FD path
    f = SpecialHermiteBasis((1,), (0,))
    rep = intertwine_check(f, 0.4, +1)
    assert rep.residual <= 1e-6


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


def test_twisted_norm_zero_function(grid4):
    from mehler.special import ClosedFormSpecialHandle

    zero = ClosedFormSpecialHandle(
        fn=lambda Z, W: np.zeros(np.broadcast(Z, W).shape, dtype=complex),
        label="zero",
    )
    assert bergman_norm_special(zero, 0.4, 0, grid4) == 0.0


def test_calibration_rejects_empty_pairs(grid4):
    with pytest.raises(ValueError, match="pairs"):
        calibrate_weight_special(0.4, [], grid4)


def test_default_twisted_grid_is_shared():
    grid = default_twisted_grid(0.3)
    assert default_twisted_grid(0.3) is grid
    assert default_twisted_grid(0.3).nodes()[0] is grid.nodes()[0]
    assert default_twisted_grid(0.3, 64) is not grid


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


@pytest.mark.parametrize(
    "t, m, entries",
    [(t, m, None) for t in (0.25, 0.6) for m in (0, 1, 2)] + [(0.6, 2, 5 * 48**3)],
)
def test_weight_blocks_match_pointwise_weight(monkeypatch, t, m, entries):
    # the default budget gives 24 blocks of 2 x-rows at resolution 48;
    # 5 x-rows per block leaves a ragged last block of 3
    if entries is not None:
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", entries)
    grid = default_special_grid(t, resolution=48)
    Z, wz, W, ww = _grid_planes(grid)
    # e^{yu} e^{-xv} against e^{yu - xv}: both round the exponent, whose
    # terms reach |yu| + |xv|; subnormal entries keep only absolute accuracy
    reach = 2 * max(abs(Z.imag).max() * abs(W.real).max(), 1.0)
    rtol = 4 * reach * np.finfo(float).eps
    atol = np.finfo(float).tiny
    blocks = list(special._weight_blocks(grid, t, m))
    assert len(blocks) > 2
    stop = 0
    for rows, block in blocks:
        assert rows.start == stop and rows.stop - rows.start == len(block)
        assert rows.start % 48 == 0 and rows.stop % 48 == 0
        assert block.shape == (len(block), len(W))
        assert block.size <= max(semigroup._BLOCK_ENTRIES, 48**3)
        ref = (
            wz[rows, None]
            * twisted_bergman_weight(t, m, Z[rows, None], W[None, :])
            * ww[None, :]
        )
        np.testing.assert_allclose(block, ref, rtol=rtol, atol=atol)
        stop = rows.stop
    assert stop == len(Z)
    if entries is not None:
        assert len(blocks[-1][1]) == 3 * 48


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
    "pairs",
    [
        None,
        [((0,), (0,))],
        [((1,), (1,)), ((0,), (1,))],
        [((0,), (0,)), ((2,), (0,)), ((1,), (1,)), ((0,), (2,)), ((2,), (2,))],
    ],
    ids=["default", "one-pair", "two-pairs", "five-pairs"],
)
def test_calibration_matches_dense_reference(grid4, pairs):
    t = 0.4
    cal = calibrate_weight_special(t, pairs, grid4)
    ref_pairs = pairs or [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]
    ratios, max_off, diag_scale = _dense_calibration(t, ref_pairs, grid4)
    assert list(cal.ratios) == list(ratios)
    for key, r in ratios.items():
        assert cal.ratios[key] == pytest.approx(r, rel=1e-12)
    kappa = math.exp(np.mean(np.log(list(ratios.values()))))
    assert cal.kappa == pytest.approx(kappa, rel=1e-12)
    assert abs(cal.max_offdiagonal - max_off) <= 1e-15 * diag_scale
    if len(ref_pairs) == 1:
        assert cal.max_offdiagonal == 0.0


@pytest.mark.parametrize("ab", [((0,), (1,)), ((2,), (1,))])
def test_order_two_norm_matches_dense_reference(grid4, ab):
    t = 0.4
    Z, _, W, _ = _grid_planes(grid4)
    handle = SpecialEigenHandle(*ab, t)
    F = handle.eval_grid(Z.real[:, None], Z.imag[:, None], W.real[None, :], W.imag[None, :])
    terms = np.abs(F) ** 2 * _dense_weight(t, 2, grid4)
    # the order-2 weight changes sign, so judge the two summation orders
    # against the sum of |terms|
    got = bergman_norm_special(handle, t, 2, grid4)
    assert abs(got - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


def _env_grid():
    return PlaneGrid(
        boxes=((-6.0, 6.0, -6.0, 6.0), (-6.0, 6.0, -6.0, 6.0)), resolution=16
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


def test_special_envelope_zero_function():
    rep = special_envelope(None, 0.5, 0, _env_grid())
    assert rep.sup_ratio == 0.0


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
    from mehler.special import pg_dx, pg_du, twisted_eval

    f = PolyGaussian2n((((1, 0), 1.0),), 0.5)  # x e^{-(x^2+u^2)/4}
    d = pg_dx(f)
    X = np.array([0.3, -1.2])
    U = np.array([0.5, 0.0])
    h = 1e-6
    fd = (twisted_eval(f, X + h, U) - twisted_eval(f, X - h, U)) / (2 * h)
    assert np.allclose(twisted_eval(d, X, U), fd, atol=1e-8)
    du = pg_du(f)
    fdu = (twisted_eval(f, X, U + h) - twisted_eval(f, X, U - h)) / (2 * h)
    assert np.allclose(twisted_eval(du, X, U), fdu, atol=1e-8)


def test_entire_evaluation_consistency(tw_grid):
    # basis member at complex arguments: conjugation symmetry of the
    # defining integral under (z, w) -> (conj z, conj w)
    z, w = 0.5 + 0.3j, -0.2 + 0.7j
    v = special_hermite_eval((1,), (1,), z, w)
    v_conj = special_hermite_eval((1,), (1,), np.conj(z), np.conj(w))
    assert abs(np.conj(v) - v_conj) < 1e-12
    g = twisted_eval_entire(Gaussian2n(2.0), np.array([z]), np.array([w]))
    assert g[0] == pytest.approx(np.exp(-1.0 * (z * z + w * w)), rel=1e-12)
