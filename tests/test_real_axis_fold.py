"""Grids on C folded about the real axis: images real on R sum and scan the
y <= 0 half of a grid symmetric in y, and agree with the whole grid."""

import math

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
    calibrate_weight,
    compact_bound,
    default_bergman_grid,
    envelopes,
    gauss_hermite_rule,
    hermite_eval,
    pw_envelope,
    reproduce,
    schwartz_image_bound,
    semigroup_handle,
    sobolev_embed_bound,
    stft_bound,
    tempered_bound,
)
from mehler import semigroup
from mehler.quadrature import PlaneGrid
from mehler.semigroup import KernelImageHandle
from mehler.special import SpecialEigenHandle
from mehler.spectral import ClosedFormHandle, CoefficientList, EntireHandle
from mehler.stft import _StftHandle

KAPPA = (2.0 * math.pi) ** -0.5


class _Recording(EntireHandle):
    """``inner``, recording the y nodes of each evaluation.  Unless
    ``declared``, it does not declare ``real_on_real_axis``, so every node
    of a grid is evaluated: the whole-grid computation of the same
    function."""

    def __init__(self, inner, declared):
        self.inner = inner
        self.real_on_real_axis = declared and inner.real_on_real_axis
        self.calls = []

    def eval_grid_parts(self, *coords):
        self.calls.append(np.ravel(coords[1]))
        return self.inner.eval_grid_parts(*coords)


def _real_images(t):
    return {
        "spectral-poly-gaussian": semigroup_handle(PolyGaussian((1.0, -0.4, 0.5), 1.3), t),
        "spectral-basis-3": semigroup_handle(HermiteBasis((3,)), t),
        "point-mass": semigroup_handle(Dirac(0.7), t, "kernel"),
        "kernel-gaussian": semigroup_handle(Gaussian(1.2), t, "kernel"),
    }


def test_real_on_real_axis_is_derived_from_the_handle_data():
    t = 0.4
    assert all(h.real_on_real_axis for h in _real_images(t).values())
    assert KernelImageHandle(Bump(1.5), t, gauss_hermite_rule(64)).real_on_real_axis
    complex_data = CoefficientList(1, 3, (((1,), 1.0), ((3,), 0.5j)))
    assert not semigroup_handle(complex_data, t).real_on_real_axis
    assert not _StftHandle(HermiteBasis((0,)), 2.0, None).real_on_real_axis
    assert not ClosedFormHandle(np.exp).real_on_real_axis
    assert not SpecialEigenHandle((0,), (1,), t).real_on_real_axis
    assert not _Recording(_real_images(t)["point-mass"], False).real_on_real_axis


@pytest.mark.parametrize("name", list(_real_images(0.35)))
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_folded_bergman_norm_matches_the_whole_grid(name, m):
    t = 0.35
    handle = _real_images(t)[name]
    # the point mass's order-3 norm needs 161 nodes per axis to pass its
    # half-step check, folded or not
    grid = default_bergman_grid(t, resolution=161, degree_margin=24)
    spy = _Recording(handle, True)
    folded = bergman_norm(spy, t, m, grid, kappa=KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0][: 81])
    whole = bergman_norm(_Recording(handle, False), t, m, grid, kappa=KAPPA)
    assert folded == pytest.approx(whole, rel=1e-14)


@pytest.mark.parametrize("t, res", [(0.25, 81), (0.3, 65), (0.5953, 161)])
def test_folded_calibration_matches_the_whole_grid(monkeypatch, t, res):
    grid = default_bergman_grid(t, resolution=res)
    folded = calibrate_weight(t, 1, None, grid)
    # the probes have no handle: the whole-grid sums come from the same
    # code with the y-axis left whole
    monkeypatch.setattr(PlaneGrid, "y_axis", lambda self, mirrored: (*self.axis(1), False))
    whole = calibrate_weight(t, 1, None, grid)
    assert folded.kappa == pytest.approx(whole.kappa, rel=1e-14)
    for a, ratio in whole.ratios.items():
        assert folded.ratios[a] == pytest.approx(ratio, rel=1e-14)
    # the off-diagonals are cancelling sums, roundoff on the scale of their
    # terms' moduli (on the fold their imaginary part is exactly 0)
    X, Y, W = grid.nodes()
    Z = X + 1j * Y
    moduli = np.abs(hermite_eval(4, Z)) * (W * bergman_weight(t, Z))
    scale = max(float(np.sum(moduli[j] * np.abs(hermite_eval(4, Z)[k]))) for j in range(5) for k in range(j))
    assert abs(folded.max_offdiagonal - whole.max_offdiagonal) <= 1e-14 * scale


@pytest.mark.parametrize("name", list(_real_images(0.4)))
def test_folded_reproduce_matches_the_whole_grid(name):
    t = 0.4
    handle = _real_images(t)[name]
    grid = default_bergman_grid(t, resolution=81)
    zs = np.array([[0.0], [0.8 - 0.3j], [-1.2 + 1.1j], [0.4 + 1.5j], [1.5]])
    spy = _Recording(handle, True)
    folded = reproduce(spy, t, zs, grid, KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0][: 41])
    whole = reproduce(_Recording(handle, False), t, zs, grid, KAPPA)
    # h_3's image vanishes at 0: there both read roundoff of the integral
    np.testing.assert_allclose(folded, whole, rtol=1e-14, atol=1e-14 * np.max(np.abs(whole)))
    # one point alike
    assert reproduce(handle, t, 0.3 + 0.6j, grid, KAPPA) == pytest.approx(
        reproduce(_Recording(handle, False), t, 0.3 + 0.6j, grid, KAPPA), rel=1e-14
    )


C_BOUNDS = {
    "spectral-poly-gaussian": [sobolev_embed_bound(0.4, m) for m in range(4)]
    + [schwartz_image_bound(0.4, 2), tempered_bound(0.4, 1)],
    "spectral-basis-3": [sobolev_embed_bound(0.4, 0), schwartz_image_bound(0.4, 3)],
    "point-mass": [tempered_bound(0.4, 0), tempered_bound(0.4, 1), compact_bound(0.4, 0.7),
                   compact_bound(0.4, 0.3)],
    "kernel-gaussian": [sobolev_embed_bound(0.4, 1), tempered_bound(0.4, 2)],
}


@pytest.mark.parametrize("name", list(C_BOUNDS))
@pytest.mark.parametrize("res", [24, 33])
def test_folded_envelopes_match_the_whole_grid_bit_for_bit(name, res):
    handle = _real_images(0.4)[name]
    grid = PlaneGrid(boxes=((-8.0, 8.0, -6.0, 6.0),), resolution=res)
    spy = _Recording(handle, True)
    folded = envelopes(spy, C_BOUNDS[name], grid)
    fine_y = grid.refine().axis(1)[0]
    np.testing.assert_array_equal(spy.calls[0], fine_y[: res])
    whole = envelopes(_Recording(handle, False), C_BOUNDS[name], grid)
    for got, want in zip(folded, whole):
        assert got.sup_ratio == want.sup_ratio
        assert got.sup_coarse == want.sup_coarse
        assert got.argmax == want.argmax
        assert got.argmax[1] <= 0.0
        assert got.stable == want.stable


@pytest.mark.parametrize("rows", [None, 7], ids=["one-block", "blocks-of-7-rows"])
@pytest.mark.parametrize("name", list(C_BOUNDS))
@pytest.mark.parametrize("res", [16, 24])
def test_folded_envelopes_match_the_whole_grid_in_any_blocks(monkeypatch, name, res, rows):
    # one block, or blocks of a few rows with a ragged last one, on even
    # grids: every block joins its pieces in the order of a whole block of
    # the unfolded grid, so a node's value does not depend on the block or
    # the fold (when the folded block joined them in its own order, the
    # kernel-mode image's coarse sups moved in their last bits here)
    if rows is not None:
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", rows * res)
    handle = _real_images(0.4)[name]
    bounds = C_BOUNDS[name] + [sobolev_embed_bound(0.4, m) for m in (0, 1, 3)] + [tempered_bound(0.4, 1)]
    grid = PlaneGrid(boxes=((-10.0, 10.0, -5.0, 5.0),), resolution=res)
    spy = _Recording(handle, True)
    folded = envelopes(spy, bounds, grid)
    whole = envelopes(_Recording(handle, False), bounds, grid)
    for got, want in zip(folded, whole):
        assert (got.sup_ratio, got.argmax, got.sup_coarse) == (want.sup_ratio, want.argmax, want.sup_coarse)


def test_complex_coefficients_are_never_folded():
    t = 0.35
    f = CoefficientList(1, 4, (((1,), 0.8 - 0.3j), ((4,), -0.5 + 1.1j)))
    handle = semigroup_handle(f, t)
    grid = default_bergman_grid(t, resolution=65, degree_margin=24)
    spy = _Recording(handle, True)
    norm = bergman_norm(spy, t, 1, grid, kappa=KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0])
    assert norm == bergman_norm(_Recording(handle, False), t, 1, grid, kappa=KAPPA)
    z = np.array([[0.5 + 0.2j], [-0.3 - 0.9j]])
    spy.calls.clear()
    got = reproduce(spy, t, z, grid, KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0])
    np.testing.assert_array_equal(got, reproduce(_Recording(handle, False), t, z, grid, KAPPA))
    # F(conj z) is not conj F(z) here, so the mirrored half differs
    np.testing.assert_allclose(got.ravel(), [handle.eval(v) for v in z.ravel()], rtol=1e-10)
    spy.calls.clear()
    bound = sobolev_embed_bound(t, 1)
    coarse = PlaneGrid(((-6.0, 6.0, -4.0, 4.0),), 17)
    (env,) = envelopes(spy, [bound], coarse)
    fine = coarse.refine()
    np.testing.assert_array_equal(spy.calls[0], fine.axis(1)[0])
    # the whole-grid sup, from F at every flattened node of the refined grid
    X, Y, _ = fine.nodes()
    ratio = np.abs(handle.eval_grid(X, Y)) ** 2 / bound.eval(X, Y)
    assert env.sup_ratio == pytest.approx(float(np.max(ratio)), rel=1e-12)
    assert env.argmax == pytest.approx((X[np.argmax(ratio)], Y[np.argmax(ratio)]))


def test_windowed_transform_is_never_folded(monkeypatch):
    grid = PlaneGrid(boxes=((-4.0, 4.0, -3.0, 3.0),), resolution=16)
    seen = []
    inner = _StftHandle.eval_grid

    def spy(self, X, Y):
        seen.append(np.ravel(Y))
        return inner(self, X, Y)

    monkeypatch.setattr(_StftHandle, "eval_grid", spy)
    rep = pw_envelope(HermiteBasis((0,)), 2.0, 1, grid)
    fine = grid.refine()
    np.testing.assert_array_equal(seen[0], fine.axis(1)[0])
    # the whole-grid sup, from the transform at every flattened node
    X, Y, _ = fine.nodes()
    values = np.abs(_StftHandle(HermiteBasis((0,)), 2.0, None).eval_grid(X, Y))
    ref = np.max(values / stft_bound(2.0, 1).eval(X, Y))
    assert rep.sup_ratio == pytest.approx(ref, rel=1e-12)


def test_a_box_not_symmetric_in_y_is_never_folded():
    t = 0.35
    box = (-8.0, 8.0, -6.0, 5.0)
    handle = semigroup_handle(HermiteBasis((2,)), t)
    grid = PlaneGrid(boxes=(box,), resolution=97)
    spy = _Recording(handle, True)
    norm = bergman_norm(spy, t, 0, grid, kappa=KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0])
    # the whole-grid sum: |F|^2 U_t at every flattened node
    X, Y, W = grid.nodes()
    ref = KAPPA * float(np.sum(W * np.abs(handle.eval_grid(X, Y)) ** 2 * bergman_weight(t, X + 1j * Y)))
    assert norm == pytest.approx(ref, rel=1e-12)
    z = np.array([[0.5 + 0.2j], [-0.3 - 0.9j]])
    spy.calls.clear()
    got = reproduce(spy, t, z, grid, KAPPA)
    np.testing.assert_array_equal(spy.calls[0], grid.axis(1)[0])
    np.testing.assert_array_equal(got, reproduce(_Recording(handle, False), t, z, grid, KAPPA))
    spy.calls.clear()
    coarse = PlaneGrid(boxes=(box,), resolution=25)
    bounds = [sobolev_embed_bound(t, 0), tempered_bound(t, 1)]
    folded = envelopes(spy, bounds, coarse)
    np.testing.assert_array_equal(spy.calls[0], coarse.refine().axis(1)[0])
    for got, want in zip(folded, envelopes(_Recording(handle, False), bounds, coarse)):
        assert (got.sup_ratio, got.argmax, got.sup_coarse) == (want.sup_ratio, want.argmax, want.sup_coarse)
