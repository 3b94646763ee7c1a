"""Quadrature rules, plane grids, and their exactness guarantees."""

import math

import mpmath
import numpy as np
import pytest

from mehler import (
    PlaneGrid,
    QuadratureError,
    QuadRule,
    bergman_weight,
    default_bergman_grid,
    gauss_hermite_rule,
    gauss_legendre_rule,
    gaussian_box,
    hermite_eval,
    integrate_plane,
    integrate_rn,
)

SQRT_PI = math.sqrt(math.pi)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_one_point_rule():
    rule = gauss_hermite_rule(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([SQRT_PI])


def test_two_point_rule():
    rule = gauss_hermite_rule(2)
    assert sorted(rule.nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2])


def test_weight_sums():
    for q in (4, 64, 128, 512):
        rule = gauss_hermite_rule(q)
        assert abs(rule.weights.sum() - SQRT_PI) < 1e-12


def test_tenth_moment_q64():
    rule = gauss_hermite_rule(64)
    got = float(np.sum(rule.weights * rule.nodes**10))
    exact = double_factorial(9) * SQRT_PI / 2**5
    assert abs(got - exact) / exact < 1e-10


@pytest.mark.parametrize("q", [8, 16, 32])
def test_even_moment_exactness(q):
    rule = gauss_hermite_rule(q)
    for m in range(min(8, q)):
        got = float(np.sum(rule.weights * rule.nodes ** (2 * m)))
        exact = double_factorial(2 * m - 1) * SQRT_PI / 2**m
        assert abs(got - exact) / exact < 1e-11


def test_order_bounds():
    with pytest.raises(ValueError):
        gauss_hermite_rule(0)
    with pytest.raises(ValueError):
        gauss_hermite_rule(513)


@pytest.mark.parametrize("q", [0, -3, 2.5, float("nan"), float("inf")])
def test_legendre_order_bounds(q):
    with pytest.raises(ValueError):
        gauss_legendre_rule(q)


@pytest.mark.parametrize("rule", [gauss_hermite_rule, gauss_legendre_rule])
def test_integer_valued_orders(rule):
    with pytest.raises(ValueError):
        rule(7.5)
    assert np.array_equal(rule(7.0).nodes, rule(np.int64(7)).nodes)


def _mp_roots(q, guesses, value, slope, weight):
    """(node, weight, ...) at 40 digits: Newton from each double guess on
    mpmath's own polynomial, then ``weight(x)`` at the polished node."""
    out = []
    with mpmath.workdps(40):
        for g in guesses:
            x = mpmath.mpf(float(g))
            for _ in range(3):  # the guesses hold ~15 digits
                x -= value(x) / slope(x)
            out.append((x, *weight(x)))
    return out


def _positive_sample(q):
    """Indices of the positive nodes checked at order q: all of them at
    small q; at q >= 384 every eighth plus the outer 40, which hold the
    nodes whose plain weight leaves the doubles.  At odd q the first is 0."""
    idx = np.arange(q // 2, q)
    if q >= 384:
        idx = np.union1d(idx[::8], idx[-40:])
    return idx


@pytest.mark.parametrize("q", [1, 2, 64, 128, 129, 384, 512])
def test_gauss_hermite_matches_mpmath(q):
    rule = gauss_hermite_rule(q)
    x, w, wc = rule.nodes, rule.weights, rule.plain_weights
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.array_equal(wc, wc[::-1])
    assert np.all(np.diff(x) > 0.05)
    assert abs(w.sum() - SQRT_PI) < 1e-14 * SQRT_PI * max(1.0, math.sqrt(q))
    if q % 2:
        assert x[q // 2] == 0.0

    # w = 2^{q-1} q! sqrt(pi) / (q H_{q-1}(x))^2, and w e^{x^2}
    c = mpmath.mpf(2) ** (q - 1) * mpmath.factorial(q) * mpmath.sqrt(mpmath.pi) / q**2

    def weight(xm):
        wm = c / mpmath.hermite(q - 1, xm) ** 2
        return wm, wm * mpmath.exp(xm * xm)

    idx = _positive_sample(q)
    ref = _mp_roots(
        q, x[idx], lambda xm: mpmath.hermite(q, xm),
        lambda xm: 2 * q * mpmath.hermite(q - 1, xm), weight,
    )
    X, W, WC = (np.array([float(r[k]) for r in ref]) for k in range(3))
    assert np.max(np.abs(x[idx] - X)) <= 1e-14
    assert np.max(np.abs(wc[idx] - WC) / WC) <= 1e-12
    normal = W > 1e-300
    assert np.all(np.abs(w[idx] - W)[normal] <= 1e-12 * W[normal])
    # where w leaves the doubles it is 0 or a subnormal, never NaN
    assert np.all(np.abs(w[idx] - W)[~normal] <= 1e-310)
    if q == 512:
        assert np.count_nonzero(w == 0.0) > 0 and np.all(np.isfinite(wc))


@pytest.mark.parametrize("q", [1, 2, 3, 8, 16, 96, 128, 129, 160, 320])
def test_gauss_legendre_matches_mpmath(q):
    rule = gauss_legendre_rule(q)
    x, w = rule.nodes, rule.weights
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert rule.plain_weights is rule.weights
    assert np.all(np.diff(x) > 0)
    assert abs(w.sum() - 2.0) < 1e-14 * max(1.0, math.sqrt(q))

    def slope(xm):
        return q * (xm * mpmath.legendre(q, xm) - mpmath.legendre(q - 1, xm)) / (xm * xm - 1)

    idx = _positive_sample(q)
    ref = _mp_roots(
        q, x[idx], lambda xm: mpmath.legendre(q, xm), slope,
        lambda xm: (2 / ((1 - xm * xm) * slope(xm) ** 2),),
    )
    X, W = (np.array([float(r[k]) for r in ref]) for k in range(2))
    assert np.max(np.abs(x[idx] - X)) <= np.finfo(float).eps
    # roundoff: ~sqrt(q) eps from the recurrence, and ~eps / (1 - x^2) from
    # rounding the node itself to the doubles, which dominates at the ends
    bound = np.finfo(float).eps * (4 * math.sqrt(q) + 8 / ((1 - X) * (1 + X)))
    assert np.all(np.abs(w[idx] - W) <= bound * W)


def test_gauss_legendre_rule_on_an_interval():
    a, b = -0.5, 3.25
    rule = gauss_legendre_rule(33, a, b)
    mid = 0.5 * (a + b)
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - 2 * mid)) < 1e-15 * (b - a)
    assert rule.nodes[16] == mid
    assert abs(rule.weights.sum() - (b - a)) < 1e-14 * (b - a)
    exact = (b**9 - a**9) / 9
    assert abs(np.sum(rule.weights * rule.nodes**8) - exact) < 1e-13 * abs(exact)


def test_hermite_rule_requires_compensated_weights():
    with pytest.raises(ValueError):
        QuadRule(nodes=np.zeros(1), weights=np.ones(1), kind="gauss-hermite")


def test_integrate_rn_at_the_largest_order():
    # the outer plain weights underflow where e^{x^2} overflows
    rule = gauss_hermite_rule(512)
    val = integrate_rn(lambda x: np.exp(-x * x), rule)
    assert math.isfinite(val)
    assert abs(val - SQRT_PI) < 1e-14


def test_integrate_normalization(gh64):
    val = integrate_rn(lambda x: hermite_eval(0, x)[0] ** 2, gh64)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_integrate_orthogonality(gh64):
    val = integrate_rn(
        lambda x: hermite_eval(5, x)[3] * hermite_eval(5, x)[5], gh64
    )
    assert abs(val) < 1e-10


def test_integrate_rejects_nonfinite(gh64):
    def bad(x):
        out = np.ones_like(x)
        out[np.argmax(x)] = np.nan
        return out

    with pytest.raises(QuadratureError) as err:
        integrate_rn(bad, gh64)
    assert err.value.node is not None


def test_plane_constant():
    grid = PlaneGrid(boxes=((-1.0, 1.0, -1.0, 1.0),), resolution=16)
    val = integrate_plane(lambda x, y: np.ones_like(x), grid)
    assert val == pytest.approx(4.0, abs=1e-13)  # the box area


def test_plane_gaussian():
    grid = PlaneGrid(boxes=((-6.0, 6.0, -6.0, 6.0),), resolution=96)
    val = integrate_plane(lambda x, y: np.exp(-(x**2) - y**2), grid)
    assert val == pytest.approx(math.pi, abs=1e-9)


def test_plane_weighted_basis_probe():
    # integral of |Phi_0(x+iy)|^2 U_t(x+iy) over C at t = 0.25: the weighted
    # normalization integral, closed form sqrt(2 pi) e^{2t} by completing
    # the square.
    grid = PlaneGrid(boxes=((-8.0, 8.0, -8.0, 8.0),), resolution=128)

    def g(x, y):
        z = x + 1j * y
        h0 = hermite_eval(0, z)[0]
        return np.abs(h0) ** 2 * bergman_weight(0.25, z)

    val = integrate_plane(g, grid)
    expected = math.sqrt(2 * math.pi) * math.exp(0.5)
    assert val == pytest.approx(expected, abs=1e-6)


def test_box_growth_convergence():
    # enlarging a Gaussian-decay box from 6 to 8 half-widths changes nothing
    base = gaussian_box(1.0, 1.0, drop=math.exp(-36))
    big = gaussian_box(1.0, 1.0, drop=math.exp(-64))
    g = lambda x, y: np.exp(-(x**2) - y**2)  # noqa: E731
    v1 = integrate_plane(g, PlaneGrid(boxes=(base,), resolution=128))
    v2 = integrate_plane(g, PlaneGrid(boxes=(big,), resolution=128))
    assert abs(v1 - v2) / abs(v2) < 1e-8


def test_refinement_error_estimates_decrease():
    grid8 = PlaneGrid(boxes=((-6.0, 6.0, -6.0, 6.0),), resolution=8)
    g = lambda x, y: np.exp(-(x**2) - y**2)  # noqa: E731
    # 8, 15, 29 and 57 nodes per axis: each grid halves the step of the last
    grids = [grid8]
    for _ in range(3):
        grids.append(grids[-1].refine())
    vals = [integrate_plane(g, grid) for grid in grids]
    err8, err16, err32 = (abs(b - a) for a, b in zip(vals, vals[1:]))
    assert err8 > err16 > err32


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        PlaneGrid(boxes=((1.0, -1.0, 0.0, 1.0),), resolution=8)
    with pytest.raises(ValueError):
        PlaneGrid(boxes=((0.0, 1.0, 2.0, 2.0),), resolution=8)


def test_plane_rejects_nonfinite():
    grid = PlaneGrid(boxes=((-1.0, 1.0, -1.0, 1.0),), resolution=8)

    def bad(x, y):
        out = np.ones_like(x)
        out[0] = np.inf
        return out

    with pytest.raises(QuadratureError):
        integrate_plane(bad, grid)


def test_trapezoid_total_weight_and_refine():
    grid = PlaneGrid(boxes=((-2.0, 2.0, -1.0, 1.0),), resolution=33, kind="trapezoid")
    X, Y, W = grid.nodes()
    assert W.sum() == pytest.approx(8.0)  # the box area
    assert 0.0 in set(np.round(X, 12))  # odd resolution hits the midpoint
    fine = grid.refine()
    assert fine.resolution == 65  # node nesting preserved


def test_four_dimensional_grid_nodes():
    grid = PlaneGrid(
        boxes=((-1.0, 1.0, -1.0, 1.0), (-2.0, 2.0, -1.0, 1.0)), resolution=4
    )
    X, Y, U, V, W = grid.nodes()
    assert len(X) == 4**4
    assert W.sum() == pytest.approx(4.0 * 8.0)  # the product of the box areas


def test_plane_nodes_built_once_and_read_only():
    grid = PlaneGrid(boxes=((-1.0, 1.0, -2.0, 2.0),), resolution=8)
    first = grid.nodes()
    assert all(a is b for a, b in zip(first, grid.nodes()))
    for a in first:
        with pytest.raises(ValueError):
            a[0] = 0.0
    fresh = PlaneGrid(boxes=((-1.0, 1.0, -2.0, 2.0),), resolution=8).nodes()
    for a, b in zip(first, fresh):
        np.testing.assert_array_equal(a, b)


def test_plane_axes_built_once_and_read_only():
    grid = PlaneGrid(boxes=((-1.0, 1.0, -2.0, 2.0),), resolution=9)
    x, w = grid.axis(0)
    assert all(a is b for a, b in zip((x, w), grid.axis(0)))
    for k in range(2):
        for a in grid.axis(k):
            with pytest.raises(ValueError):
                a[0] = 0.0
    for other, scale in ((grid.refine(), 1.0), (grid.widen(2.0), 2.0)):
        (u, wu), (v, wv) = other.axis(0), other.axis(1)
        assert u is not x and wu is not w
        assert u[0] == scale * x[0] and u[-1] == scale * x[-1]
        U, V, W = other.nodes()
        np.testing.assert_array_equal(U, np.repeat(u, other.resolution))
        np.testing.assert_array_equal(V, np.tile(v, other.resolution))
        np.testing.assert_array_equal(W, np.outer(wu, wv).ravel())


# the boxes the package builds: the suite's and the benchmark's Bergman
# grids, the envelope boxes, and their refinements
SYMMETRIC_GRIDS = [
    ((-8.0, 8.0, -6.0, 6.0), 97),
    ((-6.0, 6.0, -4.0, 4.0), 161),
    ((-6.0, 6.0, -4.0, 4.0), 47),
    ((-14.0, 14.0, -6.0, 6.0), 29),
]


@pytest.mark.parametrize(
    "box, n",
    SYMMETRIC_GRIDS
    + [(default_bergman_grid(t, r).boxes[0], r + 1 - r % 2) for t, r in
       ((0.3, 65), (0.25, 81), (0.25, 128), (0.45, 161), (0.5953, 160))],
)
def test_plane_axes_on_symmetric_boxes_are_exactly_antisymmetric(box, n):
    grid = PlaneGrid(boxes=(box,), resolution=n)
    for k, (a, b) in enumerate((box[:2], box[2:])):
        x, w = grid.axis(k)
        assert x[0] == a and x[-1] == b
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        if n % 2:
            assert x[n // 2] == 0.0
        # the equispaced nodes, to the rounding of np.linspace
        assert np.max(np.abs(x - np.linspace(a, b, n))) <= 2 * np.spacing(b)


@pytest.mark.parametrize("n", [3, 9, 47, 161])
def test_folded_y_axis_is_the_lower_half_at_summed_weights(n):
    grid = PlaneGrid(boxes=((-3.0, 5.0, -4.0, 4.0),), resolution=n)
    y, w = grid.axis(1)
    half, folded, is_folded = grid.y_axis(True)
    assert is_folded and len(half) == n // 2 + 1
    np.testing.assert_array_equal(half, y[: n // 2 + 1])
    assert half[-1] == 0.0 and np.all(half <= 0.0)
    np.testing.assert_array_equal(folded[:-1], 2.0 * w[: n // 2])
    assert folded[-1] == w[n // 2]
    assert folded.sum() == pytest.approx(w.sum(), rel=1e-15)
    # even and odd functions of y: the folded rule sums the first exactly
    # as the whole axis does, and the second cancels on it
    g = np.cos(y) + y**3
    scale = float(w @ np.abs(g))
    assert abs(float(folded @ np.cos(half)) - float(w @ g)) <= 1e-14 * scale
    # the folded rule of twice the step is every second folded node at twice
    # its weight, as on the whole axis
    assert float(2.0 * folded[::2] @ np.cos(half[::2])) == pytest.approx(
        float(2.0 * w[::2] @ np.cos(y[::2])), rel=1e-14
    )
    for a in (half, folded):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize(
    "grid",
    [
        PlaneGrid(boxes=((-8.0, 8.0, -6.0, 5.0),), resolution=97),  # not symmetric in y
        PlaneGrid(boxes=((-8.0, 8.0, -6.0, 6.0),), resolution=96),  # no centre node
        PlaneGrid(boxes=((-2.0, 2.0, -1.0, 1.0), (-2.0, 2.0, -1.0, 1.0)), resolution=9),
    ],
    ids=["asymmetric", "even", "two-coordinates"],
)
def test_y_axis_stays_whole_where_it_cannot_fold(grid):
    for mirrored in (True, False):
        y, w, folded = grid.y_axis(mirrored)
        assert not folded
        assert y is grid.axis(1)[0] and w is grid.axis(1)[1]
    symmetric = PlaneGrid(boxes=((-8.0, 8.0, -6.0, 6.0),), resolution=97)
    assert symmetric.y_axis(False)[0] is symmetric.axis(1)[0]
