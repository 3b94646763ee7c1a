"""Heat transform: modes, calibration, weighted norms, envelopes."""

import math
import warnings

import numpy as np
import pytest

from mehler import (
    Bump,
    Dirac,
    Gaussian,
    HermiteBasis,
    PolyGaussian,
    bergman_norm,
    bergman_weight,
    bergman_weight_dt,
    calibrate_weight,
    compact_bound,
    default_bergman_grid,
    envelope_ratio,
    expand,
    hermite_eval,
    integrate_rn,
    mehler_kernel,
    reproduce,
    schwartz_image_bound,
    schwartz_image_check,
    semigroup_apply,
    semigroup_handle,
    sobolev_embed_bound,
    sobolev_norm,
    tempered_bound,
)
from mehler import semigroup, specfun
from mehler.quadrature import PlaneGrid, QuadratureError
from mehler.semigroup import CalibrationResult, MehlerSliceHandle
from mehler.specfun import HermiteOverflowError
from mehler.spectral import (
    ClosedFormHandle,
    CoefficientList,
    SpectralHandle,
    eval_test_function,
)

PI14 = math.pi ** -0.25


def test_eigenfunction_both_modes(gh128):
    expected = math.exp(-0.3) * PI14
    for mode in ("spectral", "kernel"):
        got = semigroup_apply(HermiteBasis((0,)), 0.3, [0.0], mode=mode, rule=gh128)
        assert got == pytest.approx(expected, rel=1e-10)


def test_point_mass_image_is_kernel_slice():
    got = semigroup_apply(Dirac(0.5), 0.5, [0.0], mode="kernel")
    expected = complex(mehler_kernel(0.5, 0.0, 0.5))
    assert got == pytest.approx(expected, rel=1e-14)
    base = (2 * math.pi * math.sinh(1.0)) ** -0.5
    assert expected.real == pytest.approx(
        base * math.exp(-0.125 / math.tanh(1.0)), rel=1e-12
    )


def test_mode_agreement_on_gaussian(gh128):
    z = 1.0 + 1.0j
    spectral = semigroup_apply(
        Gaussian(1.0), 0.4, [z], mode="spectral", truncation=48, rule=gh128
    )
    kernel = semigroup_apply(Gaussian(1.0), 0.4, [z], mode="kernel", rule=gh128)
    assert abs(spectral - kernel) / abs(kernel) < 1e-8


def test_mode_agreement_random_points(rng, gh128):
    pts = rng.uniform(-1.5, 1.5, (20, 2))
    for f in (Gaussian(2.0), PolyGaussian((0.5, 1.0), 1.0)):
        for x, y in pts:
            z = complex(x, y)
            a = semigroup_apply(f, 0.25, [z], mode="spectral", truncation=48, rule=gh128)
            b = semigroup_apply(f, 0.25, [z], mode="kernel", rule=gh128)
            assert abs(a - b) / (1e-30 + abs(b)) < 1e-7


def test_kernel_mode_bump_support_quadrature(gh128):
    got = semigroup_apply(Bump(1.0), 0.4, [0.3 + 0.2j], mode="kernel", rule=gh128)
    assert np.isfinite(got.real) and np.isfinite(got.imag)
    spectral = semigroup_apply(
        Bump(1.0), 0.4, [0.3 + 0.2j], mode="spectral", truncation=48, rule=gh128
    )
    # bump expansions converge slowly; modes agree to quadrature/truncation level
    assert abs(got - spectral) / abs(got) < 1e-5


def test_kernel_mode_overflow_raises_named_error(gh128):
    handle = semigroup_handle(HermiteBasis((3,)), 0.3, "kernel", rule=gh128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError):
            handle.eval([0.5 + 40j])
        with pytest.raises(HermiteOverflowError):
            handle.eval_grid(np.array([0.0, 0.5]), np.array([0.0, 40.0]))
        row = handle.eval_grid(np.array([0.0, 0.5]), np.array([0.0, 4.0]))
    assert np.all(np.isfinite(row))


def test_kernel_mode_refuses_dimension_two():
    # a point mass in R^2 is refused where it is built, so kernel mode never
    # receives one; a dimension passed where it once went is refused too,
    # not read as the truncation
    with pytest.raises(ValueError, match=r"\(n = 1\)"):
        semigroup_handle(Dirac((0.5, -0.3)), 0.3, "kernel")
    with pytest.raises(TypeError):
        semigroup_handle(Gaussian(1.0), 0.3, "kernel", 2)


def test_point_mass_slice_checks_its_dimension():
    # a point mass in R^2 once gave the one-coordinate slice K_t(z, 0.5)
    # silently; the point mass and the slice's source both refuse it when
    # built
    with pytest.raises(ValueError, match=r"point must be one-dimensional \(n = 1\)"):
        Dirac((0.5, -0.3))
    with pytest.raises(ValueError, match=r"point mass must be one-dimensional \(n = 1\)"):
        MehlerSliceHandle(0.3, (0.5, -0.3))
    handle = MehlerSliceHandle(0.3, (0.5,))
    assert handle.eval(0.2 + 0.1j) == complex(mehler_kernel(0.3, 0.2 + 0.1j, 0.5))


def test_calibration_constant(calibration_025):
    assert calibration_025.kappa == pytest.approx((2 * math.pi) ** -0.5, rel=1e-7)
    assert calibration_025.spread < 1e-5
    assert calibration_025.max_offdiagonal < 1e-9


def test_calibration_rejects_empty_alphas(bergman_grid_025):
    with pytest.raises(ValueError, match="alphas"):
        calibrate_weight(0.25, 1, [], bergman_grid_025)


def test_calibration_finish_is_geometric_mean_within_flatness():
    # both calibrations end here: C with flatness 1e-3, C^2 with 1e-2
    ratios = {(0,): 1.0, (1,): 1.005}
    cal = CalibrationResult.from_ratios(ratios, 2e-17, 0.3, 1e-2)
    assert cal.kappa == pytest.approx(math.sqrt(1.005), rel=1e-15)
    assert cal.ratios == ratios and cal.max_offdiagonal == 2e-17
    assert cal.t == 0.3
    with pytest.raises(RuntimeError, match="vary beyond 0.001"):
        CalibrationResult.from_ratios(ratios, 0.0, 0.3, 1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_calibration_finish_rejects_non_finite_or_non_positive_ratio(bad):
    # a NaN ratio compares False against the flatness bound, so it needs its
    # own test before the spread
    with pytest.raises(RuntimeError, match="non-finite or not positive"):
        CalibrationResult.from_ratios({(0,): 1.0, (1,): bad}, 0.0, 0.3, 1e-2)


def test_calibration_time_independent(calibration_025):
    grid = default_bergman_grid(0.4, resolution=128)
    cal2 = calibrate_weight(0.4, 1, [(k,) for k in range(5)], grid)
    assert cal2.kappa == pytest.approx(calibration_025.kappa, rel=1e-5)


def test_bergman_norm_probe_value(bergman_grid_025, gh128):
    handle = semigroup_handle(HermiteBasis((0,)), 0.25, "spectral", rule=gh128)
    raw = bergman_norm(handle, 0.25, 0, bergman_grid_025)
    assert raw == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)


def test_bergman_norm_calibrated_isometry(bergman_grid_025, calibration_025, gh128):
    handle = semigroup_handle(HermiteBasis((0,)), 0.25, "spectral", rule=gh128)
    val = bergman_norm(handle, 0.25, 0, bergman_grid_025, kappa=calibration_025.kappa)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bergman_norm_order_one_eigenfunction(gh128):
    t = 0.3
    grid = default_bergman_grid(t, resolution=128, degree_margin=14)
    cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
    handle = semigroup_handle(HermiteBasis((1,)), t, "spectral", rule=gh128)
    val = bergman_norm(handle, t, 1, grid, kappa=cal.kappa)
    assert val == pytest.approx(36.0, abs=1e-4 * 36)


@pytest.mark.parametrize("m", [1, 2])
def test_derivative_weight_identity(m, gh128):
    t = 0.3
    grid = default_bergman_grid(t, resolution=128, degree_margin=14)
    cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
    for k in range(4):
        handle = semigroup_handle(HermiteBasis((k,)), t, "spectral", rule=gh128)
        val = bergman_norm(handle, t, m, grid, kappa=cal.kappa)
        expected = 2.0 ** (2 * m) * (2 * k + 1) ** (2 * m)
        assert val == pytest.approx(expected, rel=1e-4)


def test_isometry_six_functions_two_times(gh128):
    fns = [
        HermiteBasis((0,)),
        HermiteBasis((1,)),
        HermiteBasis((2,)),
        HermiteBasis((3,)),
        Gaussian(1.0),
        PolyGaussian((1.0, 0.0, 0.5), 1.0),
    ]
    for t in (0.25, 0.5):
        grid = default_bergman_grid(t, resolution=128)
        cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
        for f in fns:
            handle = semigroup_handle(f, t, "spectral", truncation=48, rule=gh128)
            img = bergman_norm(handle, t, 0, grid, kappa=cal.kappa)
            ref = integrate_rn(
                lambda x: np.abs(eval_test_function(f, x)) ** 2, gh128
            )
            assert abs(img - ref) <= 1e-5


def test_reproduce_eigenfunction(bergman_grid_025, calibration_025, gh128):
    handle = semigroup_handle(HermiteBasis((0,)), 0.25, "spectral", rule=gh128)
    got = reproduce(handle, 0.25, [0.0], bergman_grid_025, kappa=calibration_025.kappa)
    assert got == pytest.approx(math.exp(-0.25) * PI14, abs=1e-6)


def test_reproduce_matches_direct_evaluation(gh128):
    t = 0.3
    grid = default_bergman_grid(t, resolution=128)
    cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
    handle = semigroup_handle(HermiteBasis((2,)), t, "spectral", rule=gh128)
    z = 1.0 + 0.5j
    got = reproduce(handle, t, [z], grid, kappa=cal.kappa)
    ref = handle.eval([z])
    assert abs(got - ref) / abs(ref) < 1e-6


def test_reproduce_zero_function(bergman_grid_025, calibration_025):
    zero = ClosedFormHandle(fn=lambda Z: np.zeros_like(Z, dtype=complex))
    got = reproduce(zero, 0.25, [0.5], bergman_grid_025, calibration_025.kappa)
    assert got == 0


def test_reproducing_property_ten_points(rng, gh128):
    t = 0.3
    grid = default_bergman_grid(t, resolution=128)
    cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
    pts = rng.uniform(-1.5, 1.5, (10, 2))
    for k in range(4):
        handle = semigroup_handle(HermiteBasis((k,)), t, "spectral", rule=gh128)
        for x, y in pts:
            z = complex(x, y)
            direct = handle.eval([z])
            got = reproduce(handle, t, [z], grid, kappa=cal.kappa)
            assert abs(got - direct) <= 1e-5 * (1 + abs(direct))


def _trap_grid(box=(-8.0, 8.0, -6.0, 6.0), res=65):
    return PlaneGrid(boxes=(box,), resolution=res, kind="trapezoid")


def test_envelope_ground_state_spot_value(gh128):
    handle = semigroup_handle(HermiteBasis((0,)), 0.3, "spectral", rule=gh128)
    rep = envelope_ratio(handle, sobolev_embed_bound(0.3, 0), _trap_grid())
    expected = math.exp(-0.6) / math.sqrt(math.pi)
    assert rep.sup_ratio == pytest.approx(expected, rel=1e-2)
    assert rep.stable
    assert rep.argmax == pytest.approx((0.0, 0.0), abs=1e-9)


def test_envelope_point_mass_tempered(gh128):
    handle = semigroup_handle(Dirac(0.0), 0.5, "kernel")
    rep = envelope_ratio(handle, tempered_bound(0.5, 0), _trap_grid())
    expected = 1.0 / (2 * math.pi * math.sinh(1.0))
    assert rep.sup_ratio == pytest.approx(expected, rel=1e-2)
    assert rep.stable


def test_envelope_point_mass_compact(gh128):
    handle = semigroup_handle(Dirac(0.5), 0.5, "kernel")
    rep = envelope_ratio(handle, compact_bound(0.5, 0.5), _trap_grid())
    expected = (2 * math.pi * math.sinh(1.0)) ** -0.5 * math.exp(
        -0.125 / math.tanh(1.0)
    )
    assert rep.sup_ratio == pytest.approx(expected, rel=1e-2)
    assert rep.stable


def test_sobolev_embedding_envelopes_finite_stable(gh128):
    grid = _trap_grid()
    for k in range(4):
        handle = semigroup_handle(HermiteBasis((k,)), 0.3, "spectral", rule=gh128)
        for m in range(4):
            rep = envelope_ratio(handle, sobolev_embed_bound(0.3, m), grid)
            assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
            assert rep.stable


def test_schwartz_image_check_multiple_orders(gh128):
    reports = schwartz_image_check(
        HermiteBasis((3,)), 0.3, [0, 1, 2, 3], _trap_grid(), rule=gh128
    )
    assert len(reports) == 4
    for rep in reports:
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.stable
    reports2 = schwartz_image_check(Gaussian(2.0), 0.4, [2], _trap_grid(), rule=gh128)
    assert reports2[0].stable


def test_tempered_envelope_for_coefficient_growth(gh128):
    # coefficients growing like lam^p: the order-(p+1) bound is finite
    t0 = 0.3
    grid = PlaneGrid(boxes=((-8.0, 8.0, -5.0, 5.0),), resolution=65, kind="trapezoid")
    for p in (1, 2):
        entries = tuple(((k,), float((2 * k + 1) ** p)) for k in range(49))
        f = CoefficientList(1, 48, entries)
        handle = semigroup_handle(f, t0, "spectral", truncation=48, rule=gh128)
        rep = envelope_ratio(handle, tempered_bound(t0, p + 1), grid)
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
        assert rep.stable



def test_sobolev_image_isometry_nontrivial_input(gh128):
    # order-m transfer for a function with an infinite expansion
    t, m = 0.25, 1
    grid = default_bergman_grid(t, resolution=128, degree_margin=14)
    cal = calibrate_weight(t, 1, [(k,) for k in range(5)], grid)
    f = Gaussian(2.0)
    e = expand(f, 48, rule=gh128)
    handle = semigroup_handle(f, t, "spectral", truncation=48, rule=gh128)
    val = bergman_norm(handle, t, m, grid, kappa=cal.kappa)
    ref = 4.0 * sobolev_norm(e, m) ** 2
    assert val == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("t", [0.25, 0.6])
def test_grid_jobs_sum_hermite_series_by_the_sweep(monkeypatch, t):
    # on desk-scale grids the Clenshaw sweep alone sums every spectral image:
    # the rescaled recurrence, its fallback, refuses to run
    kappa = (2 * math.pi) ** -0.5
    pts = [0.7 - 0.4j, -1.2 + 1.1j]
    handles = [
        semigroup_handle(f, t, "spectral", truncation=48)
        for f in (Gaussian(0.7), Gaussian(1.6), HermiteBasis((3,)))
    ]
    refs = [[h.eval(z) for z in pts] for h in handles]

    def refuse(*args, **kwargs):
        raise AssertionError("the rescaled recurrence ran on a desk-scale grid")

    monkeypatch.setattr(specfun, "_poly_parts", refuse)
    grid = default_bergman_grid(t)
    env_grid = PlaneGrid(boxes=((-8.0, 8.0, -6.0, 6.0),), resolution=81, kind="trapezoid")
    for handle, ref in zip(handles, refs):
        for z, r in zip(pts, ref):
            assert reproduce(handle, t, z, grid, kappa) == pytest.approx(r, rel=1e-6)
        # the heat isometry: the Bergman norm of the image is that of f
        norm2 = float(np.sum(np.abs(handle.expansion.values) ** 2))
        assert bergman_norm(handle, t, 0, grid, kappa=kappa) == pytest.approx(norm2, rel=1e-6)
        rep = envelope_ratio(handle, schwartz_image_bound(t, 1), env_grid)
        assert 0.0 < rep.sup_ratio < math.inf


@pytest.mark.parametrize("t", [0.25, 0.6])
def test_grid_jobs_take_the_split_form(monkeypatch, t):
    # the 1-D grid jobs join F = P e^E with their own Gaussians: none of them
    # multiplies F out through SpectralHandle.eval_grid
    kappa = (2 * math.pi) ** -0.5
    handle = semigroup_handle(Gaussian(0.7), t, "spectral", truncation=48)
    z = -1.2 + 1.1j
    ref = handle.eval(z)

    def refuse(*args, **kwargs):
        raise AssertionError("a grid job multiplied F out on the mesh")

    monkeypatch.setattr(SpectralHandle, "eval_grid", refuse)
    grid = default_bergman_grid(t)
    env_grid = PlaneGrid(boxes=((-8.0, 8.0, -6.0, 6.0),), resolution=49, kind="trapezoid")
    assert reproduce(handle, t, z, grid, kappa) == pytest.approx(ref, rel=1e-6)
    norm2 = float(np.sum(np.abs(handle.expansion.values) ** 2))
    assert bergman_norm(handle, t, 0, grid, kappa=kappa) == pytest.approx(norm2, rel=1e-6)
    assert 0.0 < envelope_ratio(handle, schwartz_image_bound(t, 1), env_grid).sup_ratio < math.inf
    assert calibrate_weight(t, 1, None, grid).kappa == pytest.approx(kappa, rel=1e-7)


@pytest.mark.parametrize("y_half", [30.0, 40.0])
def test_wide_y_box_keeps_the_norm_and_envelope_finite(y_half):
    # |F|^2 of the h_1 image passes the largest double past |y| ~ 26.6 and
    # U_t underflows: joined in one exponent the integrand stays bounded
    # (at y = 30 the product used to come back NaN, at y = 40 both jobs
    # raised)
    t, kappa = 0.3, (2 * math.pi) ** -0.5
    x0, x1, _, _ = default_bergman_grid(t).boxes[0]
    grid = PlaneGrid(boxes=((x0, x1, -y_half, y_half),), resolution=401, kind="trapezoid")
    handle = semigroup_handle(HermiteBasis((1,)), t, "spectral", truncation=48)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = bergman_norm(handle, t, 0, grid, kappa=kappa)
        rep = envelope_ratio(handle, schwartz_image_bound(t, 1), grid)
    assert val == pytest.approx(1.0, abs=1e-12)
    # the sup, 3.41255 at (+-2.4185, 0), sits inside both boxes and on the
    # grid's y = 0 row; only the x-sampling differs
    assert rep.sup_ratio == pytest.approx(3.4126, rel=2e-3) and rep.stable


def test_bergman_norm_raises_on_a_non_finite_total():
    grid = default_bergman_grid(0.3, resolution=16)
    handle = ClosedFormHandle(fn=lambda Z: np.where(Z.real > 0, 1e200, 1.0) + 0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError):
            bergman_norm(handle, 0.3, 0, grid)


def test_bergman_grid_resolution_is_odd():
    # odd, so every second node of an axis is the rule of twice the step
    assert default_bergman_grid(0.3, resolution=64).resolution == 65
    assert default_bergman_grid(0.3, resolution=65).resolution == 65
    assert default_bergman_grid(0.3).resolution == 129


@pytest.mark.parametrize(
    "job, message",
    [
        (lambda h, g: bergman_norm(h, -0.3, 0, g), "t must be positive"),
        (lambda h, g: bergman_norm(h, 0.0, 0, g), "t must be positive"),
        (lambda h, g: bergman_norm(h, 0.3, -1, g), "m must be >= 0"),
        (lambda h, g: bergman_norm(h, 0.3, 1.5, g), "m must be an integer, got 1.5"),
        (lambda h, g: bergman_norm(h, 0.3, (0, 1.5), g), "m must be an integer, got 1.5"),
        (lambda h, g: bergman_norm(h, 0.3, (1, -1), g), "m must be >= 0, got -1"),
        (lambda h, g: bergman_norm(h, 0.3, (), g), "at least one order"),
        (lambda h, g: calibrate_weight(-0.3, 1, None, g), "t must be positive"),
        (
            lambda h, g: calibrate_weight(0.3, 1, [(0,), (0,), (1,)], g),
            r"calibration probe \(0,\) is repeated",
        ),
        (
            # read as h_1 and paired with (1,): kappa 0.399, max_offdiagonal 15.2
            lambda h, g: calibrate_weight(0.3, 1, [(0, 1), (1,)], g),
            r"alphas: calibration probe \(0, 1\) is not of dimension 1",
        ),
        (
            # read as h_1: int() truncated the entry
            lambda h, g: calibrate_weight(0.3, 1, [(0,), (1.5,)], g),
            r"whole numbers, got 1.5 in \(1.5,\)",
        ),
        (lambda h, g: reproduce(h, -0.3, 0.5, g, 1.0), "t must be positive"),
    ],
    ids=[
        "norm-t<0", "norm-t=0", "norm-m<0", "norm-m=1.5", "norm-orders-1.5",
        "norm-orders-m<0", "norm-no-orders", "calibration-t<0", "calibration-repeat",
        "calibration-probe-length", "calibration-probe-fractional", "reproduce-t<0",
    ],
)
def test_c_weighted_jobs_name_a_bad_time_or_order(job, message):
    # as bergman_norm_special does; these once failed inside the weight
    # ("factorial() not defined for negative values", "math domain error")
    grid = default_bergman_grid(0.3, resolution=33)
    handle = semigroup_handle(HermiteBasis((1,)), 0.3, "spectral")
    with pytest.raises(ValueError, match=message):
        job(handle, grid)


@pytest.mark.parametrize("job", ["norm", "calibration", "reproduce"])
def test_c_weighted_jobs_refuse_a_grid_over_c2(job):
    # each once summed the first two axes of a grid over C^2 and returned
    # its value on C (the norm 2.5066282746310025), where the jobs on C^2
    # refuse a grid over C
    box = default_bergman_grid(0.3, 65).boxes[0]
    grid = PlaneGrid(boxes=(box, box), resolution=65)
    handle = semigroup_handle(HermiteBasis((1,)), 0.3, "spectral")
    jobs = {
        "norm": lambda: bergman_norm(handle, 0.3, 0, grid),
        "calibration": lambda: calibrate_weight(0.3, 1, None, grid),
        "reproduce": lambda: reproduce(handle, 0.3, 0.5, grid, 1.0),
    }
    with pytest.raises(ValueError, match=r"grid must be a one-coordinate grid over C, not a two"):
        jobs[job]()


@pytest.mark.parametrize(
    "f, mode",
    [
        (HermiteBasis((2,)), "spectral"),
        (CoefficientList(1, 5, (((1,), 0.3 - 1.0j), ((4,), 2.0 + 0.5j))), "spectral"),
        (Gaussian(1.3), "kernel"),
    ],
    ids=["basis", "complex-coefficients", "kernel-mode"],
)
def test_multi_order_norms_are_the_single_order_norms_bit_for_bit(f, mode):
    # one table of the image serves every order; each order's sum is the
    # one a call at that order alone makes
    t = 0.35
    grid = default_bergman_grid(t, resolution=81, degree_margin=20)
    handle = semigroup_handle(f, t, mode)
    orders = (0, 3, 1, 2)
    got = bergman_norm(handle, t, orders, grid, kappa=0.4)
    assert got == [bergman_norm(handle, t, m, grid, kappa=0.4) for m in orders]
    assert bergman_norm(handle, t, np.array([2]), grid, kappa=0.4) == [got[3]]


@pytest.mark.parametrize("job", ["norm-m0", "norm-m2", "calibration"])
def test_c_sums_on_a_coarse_grid_are_named(job):
    # at 9 nodes per axis the sums move by far more than 1e-2 of their
    # terms at twice the step: a named error, not a wrong value
    t = 0.4
    grid = default_bergman_grid(t, resolution=9)
    handle = semigroup_handle(HermiteBasis((2,)), t, "spectral")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="twice the step: 9 nodes"):
            if job == "calibration":
                calibrate_weight(t, 1, None, grid)
            else:
                bergman_norm(handle, t, int(job[-1]), grid)


@pytest.mark.parametrize("m", [0, 2])
def test_c_half_step_sum_is_the_nested_trapezoid_rule(monkeypatch, m):
    # the half-step sum of a grid of 2n - 1 nodes is the sum on n nodes
    t = 0.35
    seen = []

    def spy(total, half, size, resolution, what):
        seen.append((total, half, size))

    monkeypatch.setattr(semigroup, "_check_half_step", spy)
    fine = default_bergman_grid(t, resolution=65)
    coarse = default_bergman_grid(t, resolution=33)
    handle = semigroup_handle(PolyGaussian((1.0, 0.0, 0.5), 1.0), t, "spectral")
    bergman_norm(handle, t, m, fine)
    bergman_norm(handle, t, m, coarse)
    (total, half, size), (want, _, want_size) = seen
    assert abs(half - want) <= 1e-13 * want_size
    # summed in another order: equal to roundoff where the weight is >= 0
    assert size >= abs(total) * (1.0 - 1e-13) > 0.0
    seen.clear()
    calibrate_weight(t, 1, [(0,), (3,)], fine)
    calibrate_weight(t, 1, [(0,), (3,)], coarse)
    assert len(seen) == 4  # the two diagonal integrals per grid
    for (total, half, size), (want, _, _) in zip(seen[:2], seen[2:]):
        assert half == pytest.approx(want, rel=1e-13)
        assert size == total > 0.0


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_bergman_norm_matches_dense_reference(m):
    # per-axis jets joined by their Hankel matrix against the weight formed
    # at every flattened node
    t = 0.45
    f = CoefficientList(1, 4, (((1,), 0.8 - 0.3j), ((4,), -0.5 + 1.1j)))
    handle = semigroup_handle(f, t, "spectral", truncation=48)
    grid = default_bergman_grid(t, resolution=96, degree_margin=24)
    X, Y, W = grid.nodes()
    F = handle.eval_grid(X, Y)
    ref = float(np.sum(W * np.abs(F) ** 2 * bergman_weight_dt(t, m, X + 1j * Y)))
    assert bergman_norm(handle, t, m, grid) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alphas", [None, [(0,), (3,)]], ids=["default", "two-probes"])
def test_calibration_matches_dense_reference(alphas):
    t = 0.35
    grid = default_bergman_grid(t, resolution=64)
    cal = calibrate_weight(t, 1, alphas, grid)
    probes = [(k,) for k in range(5)] if alphas is None else alphas
    pairs = [(a, b) for i, a in enumerate(probes) for b in probes[i + 1 :]]
    X, Y, W = grid.nodes()
    Z = X + 1j * Y
    ladder = hermite_eval(4, Z)
    WU = W * bergman_weight(t, Z)
    diag = [float(np.sum(WU * np.abs(row) ** 2)) for row in ladder]
    for a in probes:
        assert cal.ratios[a] == pytest.approx(math.exp(2 * (2 * a[0] + 1) * t) / diag[a[0]], rel=1e-12)
    # the off-diagonals vanish: both sums are roundoff on the scale of the
    # diagonals they sit between
    scale = max(math.sqrt(diag[a[0]] * diag[b[0]]) for a, b in pairs)
    max_off = max(abs(np.sum(WU * ladder[a[0]] * np.conj(ladder[b[0]]))) for a, b in pairs)
    assert max(cal.max_offdiagonal, max_off) <= 1e-15 * scale


def test_calibration_probe_and_pair_edge_cases(bergman_grid_025):
    # one probe has no pairs: the ladder top comes from the probe and
    # max_offdiagonal is 0; five probes pair each with each
    single = calibrate_weight(0.25, 1, [(2,)], bergman_grid_025)
    assert single.kappa == pytest.approx((2 * math.pi) ** -0.5, rel=1e-7)
    assert single.max_offdiagonal == 0.0
    default = calibrate_weight(0.25, 1, [(k,) for k in range(5)], bergman_grid_025)
    assert default.max_offdiagonal > 0.0
    assert default.ratios[(2,)] == single.ratios[(2,)]
