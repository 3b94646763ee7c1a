"""The one envelope scan: every public envelope against a dense reference."""

import math
import warnings

import numpy as np
import pytest

from mehler import (
    Dirac,
    Gaussian2n,
    HermiteBasis,
    SpecialHermiteBasis,
    compact_bound,
    compact_growth_check,
    envelope_ratio,
    gauss_stft,
    hermite_eval,
    mehler_kernel,
    pw_envelope,
    semigroup_handle,
    sobolev_embed_bound,
    special_envelope,
    special_hermite_eval,
    special_plain_bound,
    special_schwartz_bound,
    stft_bound,
)
from mehler import semigroup
from mehler.quadrature import PlaneGrid
from mehler.special import GaussianImage
from mehler.specfun import HermiteOverflowError
from mehler.spectral import ClosedFormHandle


def _dense_sup(values, bound, grid):
    """Sup and argmax of |F|^p / bound over the whole grid.nodes() product,
    with the ratio at every node (p = 1 for bounds on the modulus)."""
    *coords, _ = grid.nodes()
    p = 1 if bound.on_modulus else 2
    ratio = np.abs(values(*coords)) ** p / bound.eval(*coords)
    i = int(np.argmax(ratio))
    return float(ratio[i]), tuple(float(c[i]) for c in coords), coords, ratio


def _plane(box, res, kind="trapezoid"):
    return PlaneGrid(boxes=(box,), resolution=res, kind=kind)


def _space(res, box_z=(-6.0, 6.0, -6.0, 6.0)):
    return PlaneGrid(boxes=(box_z, (-6.0, 6.0, -6.0, 6.0)), resolution=res)


def _hermite_image(k, t):
    return lambda X, Y: math.exp(-(2 * k + 1) * t) * hermite_eval(k, X + 1j * Y)[k]


def _special_image(a, b, t):
    damp = math.exp(-(2 * b + 1) * t)
    return lambda X, Y, U, V: damp * special_hermite_eval((a,), (b,), X + 1j * Y, U + 1j * V)


def _gaussian_image(a, t):
    return lambda X, Y, U, V: GaussianImage(a, t)(X + 1j * Y, U + 1j * V)


CASES = {
    "envelope_ratio": (
        lambda g: envelope_ratio(
            semigroup_handle(HermiteBasis((2,)), 0.3, "spectral"),
            sobolev_embed_bound(0.3, 1), g,
        ),
        _hermite_image(2, 0.3), sobolev_embed_bound(0.3, 1),
        _plane((-6.0, 6.0, -4.0, 4.0), 33),
    ),
    "pw_envelope": (
        lambda g: pw_envelope(HermiteBasis((1,)), 2.0, 1, g),
        lambda X, Y: gauss_stft(HermiteBasis((1,)), 2.0, X + 1j * Y),
        stft_bound(2.0, 1), _plane((-5.0, 5.0, -3.0, 3.0), 25),
    ),
    "compact_growth_check": (
        lambda g: compact_growth_check(Dirac(0.5), 0.5, g, radius=0.3),
        lambda X, Y: mehler_kernel(0.5, X + 1j * Y, 0.5),
        compact_bound(0.5, 0.3), _plane((-10.0, 10.0, -5.0, 5.0), 41),
    ),
    "special_envelope": (
        lambda g: special_envelope(SpecialHermiteBasis((1,), (0,)), 0.5, 1, g),
        _special_image(1, 0, 0.5), special_schwartz_bound(0.5, 1), _space(8),
    ),
    "special_envelope-ragged": (
        lambda g: special_envelope(Gaussian2n(1.0), 0.5, 1, g, kind="special-plain"),
        _gaussian_image(1.0, 0.5), special_plain_bound(0.5, 1),
        _space(10, box_z=(-2.0, 4.6, -6.0, 6.0)),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_envelope_matches_dense_reference(monkeypatch, case):
    run, values, bound, grid = CASES[case]
    ragged = case.endswith("ragged")
    if ragged:
        # the refined grid (resolution 20) scans in slices of 3 x-nodes, the
        # last one 2
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", 3 * 20**3)
        sizes = [s.stop - s.start for s, _ in semigroup._mesh_blocks(grid.refine(2))]
        assert sizes == [3] * 6 + [2]
    rep = run(grid)
    if ragged:
        # the sup sits in the last, ragged block
        assert rep.argmax[0] >= grid.refine(2).axis(0)[0][18]
    coarse, _, _, _ = _dense_sup(values, bound, grid)
    fine, argmax, coords, ratio = _dense_sup(values, bound, grid.refine(2))
    assert rep.sup_coarse == pytest.approx(coarse, rel=1e-12)
    assert rep.sup_ratio == pytest.approx(fine, rel=1e-12)
    assert len(rep.argmax) == len(argmax)
    # the reported node attains the sup; symmetric images tie at mirrored
    # nodes up to rounding
    at = np.flatnonzero(np.all([c == a for c, a in zip(coords, rep.argmax)], axis=0))
    assert len(at) == 1
    assert ratio[at[0]] == pytest.approx(fine, rel=1e-12)
    assert rep.stable == (abs(rep.sup_ratio - rep.sup_coarse) / rep.sup_ratio < 0.05)
    assert rep.bound == bound and rep.grid == grid


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "run",
    [
        # far off the real axis the transform and the twisted image leave
        # the doubles, and the NaN nodes must not read as zero ratios
        lambda: pw_envelope(HermiteBasis((0,)), 2.0, 0, _plane((-4.0, 4.0, -60.0, 60.0), 33)),
        lambda: special_envelope(
            Gaussian2n(1.0), 0.5, 0,
            PlaneGrid(boxes=((-40.0, 40.0, -40.0, 40.0),) * 2, resolution=8),
        ),
        lambda: envelope_ratio(
            ClosedFormHandle(fn=lambda Z: np.where(Z.real > 2.0, np.nan, 1.0) + 0j),
            sobolev_embed_bound(0.3, 0), _plane((-4.0, 4.0, -3.0, 3.0), 17),
        ),
    ],
    ids=["pw_envelope", "special_envelope", "nan-closed-form"],
)
def test_envelope_refuses_non_finite_values(run):
    with pytest.raises(HermiteOverflowError):
        run()


def test_point_mass_envelope_overflow_is_loud():
    # at |Im z| = 40 the point-mass image leaves the doubles
    grid = _plane((-40.0, 40.0, -40.0, 40.0), 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteOverflowError):
            compact_growth_check(Dirac(0.5), 0.5, grid)
        handle = semigroup_handle(Dirac(0.5), 0.5, "kernel")
        with pytest.raises(HermiteOverflowError):
            handle.eval([0.5 + 40j])
        with pytest.raises(HermiteOverflowError):
            handle.eval_grid(np.array([0.0, 0.5]), np.array([0.0, 40.0]))
        row = handle.eval_grid(np.array([0.0, 0.5]), np.array([0.0, 4.0]))
    assert np.all(np.isfinite(row))


def test_scan_runs_past_the_flattened_node_limit():
    # the refined grid has 68 nodes per axis, 21 381 376 in all: too many to
    # flatten, but the scan walks x-slices of its open mesh
    grid = _space(34)
    rep = special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, 1, grid)
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    assert rep.stable
    with pytest.raises(ValueError, match="21381376 nodes"):
        grid.refine(2).nodes()
