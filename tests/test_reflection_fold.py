"""Grids on C^2 folded by the reflections rho_1: (x, v) -> (-x, -v) and
rho_2: (y, u) -> (-y, -u), which leave |Phi_ab|, the modulus of a
Gaussian's twisted heat image and every bound on C^2 unchanged: the
envelope scan walks the x <= 0, y <= 0 quarter of a grid symmetric about 0
and agrees with the whole grid bit for bit."""

import numpy as np
import pytest

from mehler import envelopes, special_plain_bound, special_schwartz_bound
from mehler import semigroup
from mehler.kernels import _MODULUS_KINDS, _SQUARED_KINDS, BoundSpec
from mehler.quadrature import PlaneGrid
from mehler.special import (
    Gaussian2n,
    GaussianImage,
    GaussianImageHandle,
    SpecialEigenHandle,
    special_image_handle,
)
from mehler.spectral import ClosedFormHandle, EntireHandle

SPACE_BOUNDS = (
    special_schwartz_bound(0.5, 0), special_schwartz_bound(0.5, 1),
    special_plain_bound(0.5, 0), special_plain_bound(0.5, 2),
)

# symmetric about 0 in every coordinate, with boxes of four different widths
BOXES = ((-6.0, 6.0, -5.0, 5.0), (-7.0, 7.0, -4.0, 4.0))


class _Recording(EntireHandle):
    """``inner`` on C^2, recording the open mesh of each evaluation.  Unless
    ``declared``, it does not declare ``reflection_invariant``, so every
    node of a grid is evaluated: the whole-grid scan of the same function."""

    def __init__(self, inner, declared):
        self.inner = inner
        self.reflection_invariant = declared and inner.reflection_invariant
        self.calls = []

    def eval_grid_parts(self, *coords):
        self.calls.append(tuple(np.ravel(c) for c in coords))
        return self.inner.eval_grid_parts(*coords)


@pytest.mark.parametrize(
    "res, block_entries",
    # the suite's resolution, an odd one, an even one (the refined grid is
    # odd at every resolution), and blocks of a few rows with a ragged last
    [(17, None), (9, None), (8, None), (9, 2000)],
    ids=["17", "9", "8", "9-small-blocks"],
)
@pytest.mark.parametrize("ab", [(0, 0), (0, 1), (2, 1), (1, 3)], ids=lambda ab: "phi%d%d" % ab)
def test_quarter_folded_envelopes_match_the_whole_grid_bit_for_bit(monkeypatch, ab, res, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", block_entries)
    handle = SpecialEigenHandle((ab[0],), (ab[1],), 0.5)
    grid = PlaneGrid(boxes=BOXES, resolution=res)
    spy = _Recording(handle, True)
    folded = envelopes(spy, SPACE_BOUNDS, grid)
    # the scan walks x <= 0 and y <= 0, and u and v whole
    fine = grid.refine()
    x, y, u, v = (fine.axis(k)[0] for k in range(4))
    np.testing.assert_array_equal(np.concatenate([c[0] for c in spy.calls]), x[:res])
    for call in spy.calls:
        for got, want in zip(call[1:], (y[:res], u, v)):
            np.testing.assert_array_equal(got, want)
    whole = envelopes(_Recording(handle, False), SPACE_BOUNDS, grid)
    for got, want in zip(folded, whole):
        assert got.sup_ratio == want.sup_ratio
        assert got.sup_coarse == want.sup_coarse
        assert got.argmax == want.argmax
        assert got.argmax[0] <= 0.0 and got.argmax[1] <= 0.0
        assert got.stable == want.stable


@pytest.mark.parametrize(
    "res, block_entries", [(17, None), (8, None), (9, 2000)], ids=["17", "8", "9-small-blocks"]
)
@pytest.mark.parametrize(
    "boxes",
    # symmetric about 0; then a box not symmetric in x, folded by rho_2 alone
    [BOXES, ((-2.0, 4.6, -6.0, 6.0), (-6.0, 6.0, -6.0, 6.0))],
    ids=["symmetric", "x-asymmetric"],
)
@pytest.mark.parametrize("a, t", [(1.0, 0.5), (2.5, 0.3), (0.4, 1.1)])
def test_gaussian_image_envelopes_fold_bit_for_bit(monkeypatch, a, t, boxes, res, block_entries):
    # the Gaussian's twisted heat image declares the two reflections too;
    # folded, it reads what a handle that declares nothing reads, bit for bit
    if block_entries is not None:
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", block_entries)
    handle = special_image_handle(Gaussian2n(a), t)
    assert isinstance(handle, GaussianImageHandle) and handle.reflection_invariant
    grid = PlaneGrid(boxes=boxes, resolution=res)
    spy = _Recording(handle, True)
    folded = envelopes(spy, SPACE_BOUNDS, grid)
    fine = grid.refine()
    n = fine.resolution
    walked = sum(len(c[0]) * len(c[1]) for c in spy.calls) * n * n
    # the quarter x <= 0, y <= 0 on the symmetric boxes, the half y <= 0 on
    # the other
    x_nodes = res if boxes[0][0] == -boxes[0][1] else n
    assert walked == x_nodes * res * n * n
    whole = envelopes(ClosedFormHandle(GaussianImage(a, t)), SPACE_BOUNDS, grid)
    for got, want in zip(folded, whole):
        assert got.sup_ratio == want.sup_ratio
        assert got.sup_coarse == want.sup_coarse
        assert got.argmax == want.argmax
        assert got.stable == want.stable


def _mirrored_nodes(n_points=200, seed=3):
    """Random nodes of an antisymmetric grid on C^2, as four coordinate
    arrays, with their images under rho_1 and rho_2 read off the mirrored
    node indices."""
    grid = PlaneGrid(boxes=BOXES, resolution=33)
    axes = [grid.axis(k)[0] for k in range(4)]
    idx = np.random.default_rng(seed).integers(0, 33, size=(4, n_points))
    node = [a[i] for a, i in zip(axes, idx)]
    mirror = [a[32 - i] for a, i in zip(axes, idx)]
    # the mirrored node is the negated one, exactly
    for got, want in zip(mirror, node):
        np.testing.assert_array_equal(got, -want)
    rho1 = [mirror[0], node[1], node[2], mirror[3]]
    rho2 = [node[0], mirror[1], mirror[2], node[3]]
    return node, rho1, rho2


def _c2_bounds():
    """One bound of every kind that lives on C^2 (a kind that refuses a
    point of C) at several orders and times."""
    kinds = []
    for kind in sorted(_SQUARED_KINDS | _MODULUS_KINDS):
        try:
            BoundSpec(kind, t=0.4, m=1, a=1.5, radius=0.5).log_parts(np.zeros(1), np.zeros(1))
        except ValueError:
            kinds.append(kind)
    assert {"special-schwartz", "special-plain"} <= set(kinds)
    return [BoundSpec(kind, t=t, m=m, a=1.5, radius=0.5)
            for kind in kinds for t in (0.3, 0.5, 1.2) for m in (0, 1, 3)]


def test_every_c2_bound_is_bit_invariant_under_both_reflections():
    # the fold reads the bound at a walked node for its mirror; a bound
    # kind on C^2 that is not invariant under rho_1 and rho_2 must not
    # come in silently
    node, rho1, rho2 = _mirrored_nodes()
    for bound in _c2_bounds():
        want = bound.log_eval(*node)
        terms, _, squares = bound.log_parts(*node)
        for image in (rho1, rho2):
            np.testing.assert_array_equal(bound.log_eval(*image), want)
            # the pieces the scan sums, one by one
            got_terms, _, got_squares = bound.log_parts(*image)
            for got, piece in zip(got_terms + got_squares, terms + squares):
                np.testing.assert_array_equal(np.broadcast_to(got, np.shape(want)),
                                              np.broadcast_to(piece, np.shape(want)))


@pytest.mark.parametrize("ab", [(0, 0), (0, 1), (1, 0), (2, 1), (1, 3), (3, 3), (4, 2), (0, 5)])
def test_special_eigen_modulus_is_bit_invariant_under_both_reflections(ab):
    # |Phi_ab|, and the log|P| + Re E that the scan forms, at a node and at
    # its two mirrors
    handle = SpecialEigenHandle((ab[0],), (ab[1],), 0.4)
    node, rho1, rho2 = _mirrored_nodes()
    want = np.abs(handle.eval_grid(*node))
    P, (Ez, Ew) = handle.eval_grid_parts(*node)
    for image in (rho1, rho2):
        np.testing.assert_array_equal(np.abs(handle.eval_grid(*image)), want)
        Q, (Fz, Fw) = handle.eval_grid_parts(*image)
        np.testing.assert_array_equal(np.abs(Q), np.abs(P))
        np.testing.assert_array_equal(Fz.real, Ez.real)
        np.testing.assert_array_equal(Fw.real, Ew.real)


def test_reflection_invariance_is_declared_by_the_special_image_handles():
    assert SpecialEigenHandle((2,), (1,), 0.5).reflection_invariant
    assert special_image_handle(Gaussian2n(1.0), 0.5).reflection_invariant
    assert not EntireHandle.reflection_invariant
    # a closed form declares nothing unless its handle class does
    assert not ClosedFormHandle(GaussianImage(1.0, 0.5)).reflection_invariant
    # on the suite's grid the fold reaches the quarter of the refined nodes
    from mehler.suite import _special_envelope_grid

    spy = _Recording(SpecialEigenHandle((0,), (0,), 0.5), True)
    envelopes(spy, SPACE_BOUNDS[:1], _special_envelope_grid())
    walked = sum(len(c[0]) * len(c[1]) * len(c[2]) * len(c[3]) for c in spy.calls)
    assert walked == 17 * 17 * 33 * 33
