"""Expansions, Sobolev norms, entire evaluation."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from mehler import (
    Bump,
    CoefficientList,
    Dirac,
    Gaussian,
    HermiteBasis,
    HermiteExpansion,
    HermiteOverflowError,
    PolyGaussian,
    eval_entire,
    expand,
    gauss_hermite_rule,
    hermite_log_eval,
    hermite_log_ladder,
    integrate_rn,
    mehler_kernel,
    sobolev_norm,
)
from mehler.spectral import SpectralHandle, eval_test_function

PI14 = math.pi ** -0.25


def hermite_at_zero(k: int) -> float:
    """Closed form h_k(0): zero for odd k, (-1)^m pi^{-1/4}
    sqrt((2m-1)!!/(2m)!!) for k = 2m."""
    if k % 2 == 1:
        return 0.0
    m = k // 2
    num = den = 1.0
    for j in range(1, m + 1):
        num *= 2 * j - 1
        den *= 2 * j
    return (-1) ** m * PI14 * math.sqrt(num / den)


def test_expand_basis_is_exact(gh128):
    e = expand(HermiteBasis((1,)), 8, rule=gh128, dimension=1)
    assert e.coefficient((1,)) == 1.0
    assert np.sum(np.abs(e.values)) == 1.0


def test_expand_dirac_gives_basis_values():
    e = expand(Dirac(0.0), 4, dimension=1)
    expected = [hermite_at_zero(k) for k in range(5)]
    got = [e.coefficient((k,)).real for k in range(5)]
    assert got == pytest.approx(expected, abs=1e-14)
    # spot values from the closed form
    assert expected[0] == pytest.approx(0.7511255444649425)
    assert expected[2] == pytest.approx(-0.5311259660135985)
    assert expected[4] == pytest.approx(0.45996857917732664)


def test_expand_dirac_in_two_dimensions_is_the_product_of_ladders():
    from mehler import hermite_eval

    point = (0.3, -0.7)
    e = expand(Dirac(point), 12, dimension=2)
    hx, hy = (hermite_eval(12, np.asarray(p)) for p in point)
    # the product of the two basis values, index by index
    assert [e.coefficient(a) for a in e.indices] == [hx[a] * hy[b] for a, b in e.indices]


def test_expand_gaussian_unit_width(gh128):
    # e^{-x^2/2} = pi^{1/4} h_0 exactly
    e = expand(Gaussian(1.0), 16, rule=gh128, dimension=1)
    assert e.coefficient((0,)) == pytest.approx(math.pi**0.25, rel=1e-12)
    rest = np.sum(np.abs(e.values[1:]))
    assert rest < 1e-12


def test_expand_refuses_coarse_rule():
    with pytest.raises(ValueError, match="too coarse"):
        expand(Gaussian(1.0), 48, rule=gauss_hermite_rule(32), dimension=1)


def test_expand_two_dimensional(gh128):
    e = expand(Gaussian(1.0), 6, rule=gh128, dimension=2)
    # (f, Phi_00) = integral of e^{-|x|^2/2} pi^{-1/2} e^{-|x|^2/2} = sqrt(pi)
    assert e.coefficient((0, 0)) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert abs(e.coefficient((1, 0))) < 1e-12
    # point mass in two dimensions: products of basis values
    from mehler import hermite_tensor

    d = expand(Dirac((0.5, -0.3)), 4, dimension=2)
    ref = hermite_tensor((2, 1), [0.5, -0.3])
    assert d.coefficient((2, 1)) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "f", [Gaussian(1.0), PolyGaussian((1.0, -0.5, 0.25), 0.8), Bump(1.5)],
    ids=["gaussian", "poly-gaussian", "bump"],
)
def test_expand_two_dimensional_matches_index_by_index_sum(f):
    # the coefficient matrix ladder @ W @ ladder.T gathered at the
    # multi-indices, against sum_il h_a(x_i) h_b(x_l) W_il one index at a time
    from mehler import gauss_legendre_rule, hermite_eval

    N = 12
    e = expand(f, N, rule=gauss_hermite_rule(64), dimension=2)
    if isinstance(f, Bump):
        rule = gauss_legendre_rule(64, -f.radius, f.radius)
        nodes, w = rule.nodes, rule.weights
    else:
        rule = gauss_hermite_rule(64)
        nodes, w = rule.nodes, rule.plain_weights
    ladder = hermite_eval(N, nodes)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    weighted = np.outer(w, w) * eval_test_function(f, X.ravel(), Y.ravel()).reshape(X.shape)
    ref = [np.sum(np.outer(ladder[a], ladder[b]) * weighted) for a, b in e.indices]
    np.testing.assert_allclose(e.values, ref, rtol=0, atol=1e-14)


def test_spectral_eval_agrees_with_eval_grid():
    # the per-point log-domain sum (eval_entire) and the grid's Clenshaw
    # sweep are two evaluators of one dense series
    e = expand(Gaussian(1.0), 48, rule=gauss_hermite_rule(128), dimension=1)
    handle = SpectralHandle(e, 0.3)
    z = np.array([0.0, 0.7 - 0.2j, -1.5 + 1.0j, 2.0 + 0.5j, -0.3 - 2.0j, 3.5 + 3.0j])
    grid = handle.eval_grid(z.real, z.imag)
    for z_j, grid_j in zip(z, grid):
        assert handle.eval(z_j) == pytest.approx(grid_j, rel=1e-13, abs=0)


def test_expand_bump_has_compact_support_coefficients():
    e = expand(Bump(1.0), 12, dimension=1)
    # even function: odd coefficients vanish
    for k in (1, 3, 5, 7):
        assert abs(e.coefficient((k,))) < 1e-14
    assert abs(e.coefficient((0,))) > 0.1







def test_sobolev_norm_on_basis(gh128):
    e = expand(HermiteBasis((2,)), 8, rule=gh128, dimension=1)
    assert sobolev_norm(e, 1) == pytest.approx(5.0, rel=1e-14)
    assert sobolev_norm(e, -1) == pytest.approx(0.2, rel=1e-14)


def test_sobolev_norm_dirac_negative_order_converges():
    e32 = expand(Dirac(0.0), 32, dimension=1)
    e48 = expand(Dirac(0.0), 48, dimension=1)
    n32 = sobolev_norm(e32, -1) ** 2
    n48 = sobolev_norm(e48, -1) ** 2
    direct = sum((2 * k + 1) ** -2 * hermite_at_zero(k) ** 2 for k in range(49))
    assert n48 == pytest.approx(direct, rel=1e-14)
    assert abs(n48 - n32) < 1e-4


def test_parseval_for_polygaussian(gh128):
    f = PolyGaussian((1.0, -0.5, 0.25), 1.0)
    e = expand(f, 48, rule=gh128, dimension=1)
    lhs = float(np.sum(np.abs(e.values) ** 2))
    rhs = integrate_rn(
        lambda x: np.abs(eval_test_function(f, x)) ** 2, gh128, 1
    )
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_eval_entire_eigenfunction(gh128):
    e = expand(HermiteBasis((0,)), 8, rule=gh128, dimension=1)
    got = eval_entire(e, 0.3, [0.0])
    assert got == pytest.approx(math.exp(-0.3) * PI14, rel=1e-13)


def test_eval_entire_dirac_matches_heat_kernel():
    # the spectral route to the closed-form kernel, t >= 0.2, N = 48
    e = expand(Dirac(0.0), 48, dimension=1)
    for t in (0.2, 0.5):
        for x in (0.0, 0.7, -1.4):
            got = eval_entire(e, t, [x])
            ref = complex(mehler_kernel(t, x, 0.0))
            assert abs(got - ref) / abs(ref) < 1e-8
    got = eval_entire(e, 0.5, [0.0])
    assert got.real == pytest.approx((2 * math.pi * math.sinh(1.0)) ** -0.5, rel=1e-10)


def test_eval_entire_large_imaginary_part(gh128):
    e = expand(HermiteBasis((0,)), 8, rule=gh128, dimension=1)
    got = eval_entire(e, 0.3, [2j])
    assert got == pytest.approx(math.exp(-0.3) * PI14 * math.exp(2.0), rel=1e-12)


def test_eval_entire_two_dimensional(gh128):
    from mehler import hermite_tensor

    e = expand(HermiteBasis((1, 0)), 4, rule=gh128, dimension=2)
    z = [0.4 + 0.3j, -0.6 + 0.1j]
    got = eval_entire(e, 0.25, z)
    # eigenvalue 2|alpha| + n = 4
    ref = math.exp(-4 * 0.25) * hermite_tensor((1, 0), z)
    assert abs(got - ref) / abs(ref) < 1e-12


def test_eval_entire_reports_truncation(gh128):
    e = expand(Gaussian(2.0), 24, rule=gh128, dimension=1)
    val, tail = eval_entire(e, 0.4, [0.5], with_tail=True)
    assert tail < 1e-10
    assert val == pytest.approx(eval_entire(e, 0.4, [0.5]))


def test_truncation_indicator_when_a_basis_value_exceeds_a_double():
    # |e^{-lam t} h_128(0.5+35i)| ~ e^866 does not fit a double, but its
    # coefficient 1e-250 brings the term and the sum back into range
    e = expand(
        CoefficientList(1, 128, (((0,), 1.0 + 0j), ((128,), 1e-250 + 0j))),
        128,
        dimension=1,
    )
    t, z = 0.01, 0.5 + 35j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, tail = eval_entire(e, t, [z], with_tail=True)
    log_tail = math.log(1e-250) - 257 * t + hermite_log_eval(128, z)[0]
    assert math.isfinite(abs(val))
    assert tail == pytest.approx(math.exp(log_tail - math.log(abs(val))), rel=1e-10)


@pytest.mark.parametrize("N", [32, 128])
@pytest.mark.parametrize("source", ["gaussian", "trailing-zeros"])
def test_spectral_handle_grid_matches_pointwise(N, source):
    if source == "gaussian":
        e = expand(Gaussian(2.0), N, rule=gauss_hermite_rule(160), dimension=1)
    else:
        entries = (((0,), 1.0 + 0j), ((3,), -0.5 + 2j), ((5,), 0.25j))
        e = expand(CoefficientList(1, N, entries), N, dimension=1)
    t = 0.4
    handle = SpectralHandle(e, t)
    X = np.array([0.0, 0.5, -1.0, 2.5, -0.5, 0.5])
    Y = np.array([0.0, 0.3, -0.8, 12.0, -25.0, 30.0])
    grid_vals = handle.eval_grid(X, Y)
    # agreement is judged against the sum of the term moduli
    log_mod, _ = hermite_log_ladder(N, X + 1j * Y)
    with np.errstate(divide="ignore"):
        log_coef = np.log(np.abs(e.values)) - e.eigenvalues() * t
    scale = np.sum(np.exp(log_mod + log_coef[:, None]), axis=0)
    for i in range(len(X)):
        point = handle.eval([complex(X[i], Y[i])])
        assert abs(grid_vals[i] - point) <= 1e-12 * scale[i]


def test_overflow_raises_named_error(gh128):
    e = expand(HermiteBasis((3,)), 48, rule=gh128, dimension=1)
    handle = SpectralHandle(e, 0.3)
    z = 0.5 + 40j
    with pytest.raises(HermiteOverflowError):
        handle.eval([z])
    with pytest.raises(HermiteOverflowError):
        handle.eval_grid(np.array([0.0, z.real]), np.array([0.0, z.imag]))
    with pytest.raises(HermiteOverflowError):
        eval_entire(e, 0.3, [z], with_tail=True)



def test_coefficient_list_expansion():
    entries = (((0,), 1.0 + 0j), ((3,), -2.0 + 1.0j))
    e = expand(CoefficientList(1, 5, entries), 5, dimension=1)
    assert e.coefficient((0,)) == 1.0
    assert e.coefficient((3,)) == -2.0 + 1.0j
    assert e.coefficient((2,)) == 0.0


@pytest.mark.parametrize(
    "entries, message",
    [
        # the last coefficient once won: c_1 = 2
        ((((1,), 1.0), ((1,), 2.0)), r"index \(1,\) is repeated"),
        # once a bare KeyError: (1, 0) inside expand
        ((((1, 0), 1.0),), r"index \(1, 0\) is not of dimension 1"),
        ((((5,), 1.0),), r"index \(5,\) exceeds the truncation 4"),
        ((((1.5,), 1.0),), "whole numbers, got 1.5"),
    ],
    ids=["repeated", "wrong-length", "above-truncation", "fractional"],
)
def test_coefficient_list_refuses_a_bad_entry_when_built(entries, message):
    with pytest.raises(ValueError, match=message):
        CoefficientList(1, 4, entries)


def test_expand_refuses_a_coefficient_above_the_requested_truncation():
    # it once dropped c_55 and the heat image of h_55 evaluated to 0j, where
    # HermiteBasis((55,)) raises
    f = CoefficientList(1, 60, (((55,), 1.0), ((60,), 0.0)))
    with pytest.raises(ValueError, match=r"index \(55,\) exceeds the requested truncation 48"):
        expand(f, 48)
    # a zero coefficient above it drops nothing
    e = expand(CoefficientList(1, 60, (((3,), 1.0), ((60,), 0.0))), 48)
    assert e.coefficient((3,)) == 1.0


def test_hermite_basis_refuses_a_fractional_index():
    # int() once truncated it: HermiteBasis((1.5,)) was h_1
    with pytest.raises(ValueError, match=r"whole numbers, got 1.5 in \(1.5,\)"):
        HermiteBasis((1.5,))
    assert HermiteBasis((2.0,)) == HermiteBasis((2,))


def test_enumeration_is_graded_lexicographic():
    from mehler import multi_indices

    idx = multi_indices(2, 2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    idx3 = multi_indices(3, 1)
    assert idx3 == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # serialization order of expansions follows the same enumeration
    e = expand(CoefficientList(2, 2, ()), 2, dimension=2)
    assert list(e.indices) == idx


def mp_hermite(k: int, z: complex) -> complex:
    """h_k(z) from the three-term recurrence at 50 digits."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        h = mpmath.pi ** mpmath.mpf("-0.25") * mpmath.exp(-zm * zm / 2)
        prev = mpmath.mpc(0)
        for j in range(k):
            a = mpmath.sqrt(mpmath.mpf(2) / (j + 1))
            b = mpmath.sqrt(mpmath.mpf(j) / (j + 1))
            h, prev = a * zm * h - b * prev, h
        return complex(h)


@pytest.mark.parametrize("k", [0, 3, 47])
def test_sparse_scalar_path_matches_its_own_truncation_and_mpmath(k):
    t = 0.3
    wide = expand(HermiteBasis((k,)), 48)
    tight = expand(HermiteBasis((k,)), k)
    for z in (0.5 + 0.5j, -1.2 + 2.0j, 2.5 - 1.0j):
        got = eval_entire(wide, t, [z])
        assert got == eval_entire(tight, t, [z])  # bit for bit
        ref = math.exp(-(2 * k + 1) * t) * mp_hermite(k, z)
        assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("dimension", [1, 2])
def test_all_zero_expansion_evaluates_to_zero(dimension):
    e = HermiteExpansion.zeros(dimension, 8)
    z = [0.5 + 1.0j] * dimension
    assert eval_entire(e, 0.3, z) == 0j
    assert eval_entire(e, 0.3, z, with_tail=True) == (0j, 0.0)


def test_tail_of_an_empty_top_shell_is_zero():
    entries = (((0,), 1.0 + 0j), ((3,), -0.5 + 2j))
    e = expand(CoefficientList(1, 10, entries), 10)
    val, tail = eval_entire(e, 0.4, [0.5 + 1.0j], with_tail=True)
    assert tail == 0.0
    assert val == eval_entire(e, 0.4, [0.5 + 1.0j])


# the value and tail of the test below, as every coefficient's term gave them
PARTLY_ZERO_SHELL = (0.26083983510502895 - 0.009848353258736297j, 0.011504487065477256)


def test_tail_of_a_partly_zero_top_shell_keeps_its_value():
    # two of the seven degree-6 members are nonzero; the zero ones added
    # exactly 0 to the tail when every coefficient entered the sum
    entries = (((0, 0), 1.0 + 0j), ((1, 2), 0.3j), ((6, 0), 0.2 + 0j), ((3, 3), -0.1j))
    e = expand(CoefficientList(2, 6, entries), 6, dimension=2)
    val, tail = eval_entire(e, 0.3, [0.4 + 0.5j, -0.7 + 0.2j], with_tail=True)
    assert val == PARTLY_ZERO_SHELL[0]
    assert tail == PARTLY_ZERO_SHELL[1]


def test_two_dimensional_sparse_term_matches_the_dense_sum():
    N, t = 20, 0.25
    entries = (((0, 0), 1.0 + 0j), ((17, 2), 0.5j))
    e = expand(CoefficientList(2, N, entries), N, dimension=2)
    z = np.array([0.4 + 0.3j, -0.6 + 0.9j])
    # every term of the truncation, each from the full ladder of order N
    log_mod, arg = hermite_log_ladder(N, z)
    dense = 0j
    for alpha, c in zip(e.indices, e.values):
        rows = list(alpha), [0, 1]
        lam = 2 * sum(alpha) + 2
        dense += c * np.exp(log_mod[rows].sum() - lam * t + 1j * arg[rows].sum())
    got = eval_entire(e, t, z)
    assert abs(got - dense) <= 1e-14 * abs(dense)


@pytest.mark.parametrize("with_tail", [False, True], ids=["value", "with-tail"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_points_axis_matches_single_point_calls_bit_for_bit(dimension, with_tail):
    # one ladder for all points, rescaled per point, and each point's terms
    # joined along their own row: every value and tail is the single call's
    rng = np.random.default_rng(11)
    N = 48 if dimension == 1 else 12
    e = expand(CoefficientList(dimension, N, ()), N, dimension=dimension)
    e = e.with_values(rng.normal(size=len(e.values)) + 1j * rng.normal(size=len(e.values)))
    # off the real axis, out to where the ladder rescales, with a point
    # where the sum is far from its terms
    pts = rng.uniform(-3.0, 3.0, (25, dimension)) + 1j * rng.uniform(-12.0, 12.0, (25, dimension))
    pts[0] = 0.0
    got = eval_entire(e, 0.3, pts, with_tail=with_tail)
    singles = [eval_entire(e, 0.3, p, with_tail=with_tail) for p in pts]
    if with_tail:
        assert got[0].shape == got[1].shape == (25,)
        assert list(got[0]) == [v for v, _ in singles]
        assert list(got[1]) == [tail for _, tail in singles]
    else:
        assert got.shape == (25,)
        assert list(got) == singles


def test_points_axis_keeps_zeros_and_refuses_bad_shapes():
    # h_1 vanishes at 0: that point keeps an exact 0 beside the others
    e = expand(HermiteBasis((1,)), 8)
    pts = np.array([[0.0], [0.5 + 0.2j]])
    vals, tails = eval_entire(e, 0.3, pts, with_tail=True)
    assert vals[0] == 0j and tails[0] == 0.0
    assert vals[1] == eval_entire(e, 0.3, pts[1])
    with pytest.raises(ValueError, match=r"shaped \(P, 1\)"):
        eval_entire(e, 0.3, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        eval_entire(e, 0.3, np.array([[0.0], [np.nan]]))


def test_scalar_ladder_stops_at_the_last_nonzero_order(monkeypatch):
    from mehler import spectral

    asked = []

    def recording(k_max, z):
        asked.append(k_max)
        return hermite_log_ladder(k_max, z)

    monkeypatch.setattr(spectral, "hermite_log_ladder", recording)
    eval_entire(expand(HermiteBasis((3,)), 48), 0.3, [0.5 + 1.0j])
    eval_entire(expand(Dirac(0.3), 48), 0.3, [0.5 + 1.0j])
    assert asked == [3, 48]


def test_expansions_share_one_read_only_index_table():
    a, b = HermiteExpansion.zeros(1, 48), HermiteExpansion.zeros(1, 48)
    assert a.indices is b.indices
    assert a.degrees() is b.degrees()
    with pytest.raises(ValueError):
        a.degrees()[0] = 1
    e = expand(CoefficientList(2, 2, ()), 2, dimension=2)
    # an equal tuple built anew is taken over by the shared one
    assert HermiteExpansion(2, 2, tuple(list(e.indices)), e.values).indices is e.indices
    swapped = (e.indices[0], e.indices[2], e.indices[1], *e.indices[3:])
    with pytest.raises(ValueError, match="graded-lexicographic"):
        HermiteExpansion(2, 2, swapped, e.values)
