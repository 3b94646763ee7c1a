"""The one envelope scan: every public envelope against a dense reference."""

import math
import warnings

import numpy as np
import pytest

from mehler import (
    Bump,
    Dirac,
    Gaussian,
    Gaussian2n,
    HermiteBasis,
    SpecialHermiteBasis,
    compact_bound,
    compact_growth_check,
    envelope,
    envelope_ratio,
    envelopes,
    gauss_stft,
    hermite_eval,
    mehler_kernel,
    pw_envelope,
    schwartz_image_bound,
    semigroup_handle,
    sobolev_embed_bound,
    special_envelope,
    special_hermite_eval,
    special_plain_bound,
    special_schwartz_bound,
    stft_bound,
    tempered_bound,
)
from mehler import semigroup
from mehler.quadrature import PlaneGrid
from mehler.special import GaussianImage, SpecialEigenHandle, special_image_handle
from mehler.specfun import HermiteOverflowError
from mehler.spectral import ClosedFormHandle, EntireHandle


def _dense_sup(values, bound, grid):
    """Sup and argmax of |F|^p / bound over the whole grid.nodes() product,
    with the ratio at every node (p = 1 for bounds on the modulus)."""
    *coords, _ = grid.nodes()
    p = 1 if bound.on_modulus else 2
    ratio = np.abs(values(*coords)) ** p / bound.eval(*coords)
    i = int(np.argmax(ratio))
    return float(ratio[i]), tuple(float(c[i]) for c in coords), coords, ratio


def _plane(box, res):
    return PlaneGrid(boxes=(box,), resolution=res, kind="trapezoid")


def _space(res, box_z=(-6.0, 6.0, -6.0, 6.0)):
    return PlaneGrid(boxes=(box_z, (-6.0, 6.0, -6.0, 6.0)), resolution=res, kind="trapezoid")


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
        _special_image(1, 0, 0.5), special_schwartz_bound(0.5, 1), _space(9),
    ),
    "special_envelope-ragged": (
        lambda g: special_envelope(Gaussian2n(1.0), 0.5, 1, g, kind="special-plain"),
        _gaussian_image(1.0, 0.5), special_plain_bound(0.5, 1),
        _space(12, box_z=(-2.0, 4.6, -6.0, 6.0)),
    ),
    # an even resolution: no node at the box's midpoint
    "special_envelope-trapezoid": (
        lambda g: special_envelope(SpecialHermiteBasis((1,), (0,)), 0.5, 1, g),
        _special_image(1, 0, 0.5), special_schwartz_bound(0.5, 1), _space(8),
    ),
    # blocks of the refined trapezoid grid that start at odd rows, whose
    # nodes of the coarse grid sit at their odd local rows
    "envelope_ratio-odd-blocks": (
        lambda g: envelope_ratio(
            semigroup_handle(HermiteBasis((3,)), 0.3, "spectral"),
            tempered_bound(0.3, 1), g,
        ),
        _hermite_image(3, 0.3), tempered_bound(0.3, 1),
        _plane((-6.0, 6.0, -4.0, 4.0), 17),
    ),
    "special_envelope-trapezoid-odd-blocks": (
        lambda g: special_envelope(Gaussian2n(1.0), 0.5, 1, g, kind="special-plain"),
        _gaussian_image(1.0, 0.5), special_plain_bound(0.5, 1),
        _space(10, box_z=(-2.0, 4.6, -6.0, 6.0)),
    ),
}

# the image each case scans, x-rows per block of the axes the scan walks,
# and the block sizes that gives
BLOCK_ROWS = {
    "special_envelope-ragged": (
        lambda: special_image_handle(Gaussian2n(1.0), 0.5), 3, [3] * 7 + [2]
    ),
    "envelope_ratio-odd-blocks": (
        lambda: semigroup_handle(HermiteBasis((3,)), 0.3, "spectral"), 5, [5] * 6 + [3]
    ),
    # a last row of its own joins the block before it
    "special_envelope-trapezoid-odd-blocks": (
        lambda: special_image_handle(Gaussian2n(1.0), 0.5), 3, [3] * 5 + [4]
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_envelope_matches_dense_reference(monkeypatch, case):
    run, values, bound, grid = CASES[case]
    fine_grid = grid.refine(2)
    walked = []
    if case in BLOCK_ROWS:
        # the layout is read on the axes the scan walks, folded or not
        handle, rows, expected = BLOCK_ROWS[case]
        axes = semigroup._scan_axes(handle(), fine_grid)
        monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", rows * math.prod(map(len, axes[1:])))
        blocks = [s for s, _ in semigroup._mesh_blocks(axes)]
        assert [s.stop - s.start for s in blocks] == expected
        assert any(s.start % 2 for s in blocks)
        scan_axes = semigroup._scan_axes

        def recording(*args):
            got = scan_axes(*args)
            walked.append(got)
            return got

        monkeypatch.setattr(semigroup, "_scan_axes", recording)
    rep = run(grid)
    if case in BLOCK_ROWS:
        # the scan walked the axes the layout was read on
        assert len(walked) == 1 and len(walked[0]) == len(axes)
        for got, want in zip(walked[0], axes):
            np.testing.assert_array_equal(got, want)
    if case == "special_envelope-ragged":
        # the sup sits in the last, ragged block
        assert rep.argmax[0] >= fine_grid.axis(0)[0][21]
    coarse = _dense_sup(values, bound, grid)[0]
    fine, argmax, coords, ratio = _dense_sup(values, bound, fine_grid)
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


def _brute_force(values, bound, grid):
    """Sup and argmax of |F|^p / exp(log_eval) over the open mesh of the
    refined grid, formed in full, and the sup over the grid's nodes: every
    second refined node on each axis."""
    fine = grid.refine(2)
    mesh = np.ix_(*(fine.axis(k)[0] for k in range(2 * grid.ncoords)))
    p = 1 if bound.on_modulus else 2
    ratio = np.abs(values(*mesh)) ** p
    ratio /= np.exp(bound.log_eval(*mesh))
    i = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    argmax = tuple(float(np.broadcast_to(c, ratio.shape)[i]) for c in mesh)
    coarse = ratio[(slice(None, None, 2),) * ratio.ndim]
    return float(ratio[i]), argmax, float(coarse.max())


def _plane_kinds():
    # an off-centre box, so no node mirrors another and the argmax is one node
    grid = _plane((-5.3, 6.1, -3.7, 4.2), 25)
    handle = semigroup_handle(HermiteBasis((2,)), 0.3, "spectral")
    makers = {
        "sobolev-embed": lambda m: sobolev_embed_bound(0.3, m),
        "schwartz-image": lambda m: schwartz_image_bound(0.3, m),
        "tempered": lambda m: tempered_bound(0.3, m),
        "pw-stft": lambda m: stft_bound(2.0, m),
        "compact": lambda m: compact_bound(0.3, 0.5 * m),
    }
    for kind, make in makers.items():
        for m in (0, 1, 2):
            yield pytest.param(handle, make(m), grid, id=f"plane-{kind}-{m}")


def _space_kinds():
    from mehler.suite import _special_envelope_grid

    # the suite's two twisted checks, and Phi_10, whose P spans the block
    phi00 = SpecialEigenHandle((0,), (0,), 0.5)
    yield pytest.param(phi00, special_schwartz_bound(0.5, 1), _special_envelope_grid(),
                       id="space-special-schwartz-1")
    yield pytest.param(phi00, special_plain_bound(0.5, 0), _special_envelope_grid(),
                       id="space-special-plain-0")
    phi10 = SpecialEigenHandle((1,), (0,), 0.5)
    for bound in (special_schwartz_bound(0.5, 2), special_plain_bound(0.5, 1)):
        yield pytest.param(phi10, bound, _space(9, box_z=(-5.3, 6.1, -3.7, 4.2)),
                           id=f"space-phi10-{bound.kind}-{bound.m}")


@pytest.mark.parametrize("handle, bound, grid", [*_plane_kinds(), *_space_kinds()])
def test_scan_matches_brute_force_ratio(handle, bound, grid):
    # the scan sums per-axis pieces of log|F| and of the bound's log in its
    # block buffers; the reference forms |F|^p / bound on the whole mesh
    sup, argmax, coarse = _brute_force(handle.eval_grid, bound, grid)
    rep = envelope(handle, bound, grid)
    assert rep.sup_ratio == pytest.approx(sup, rel=1e-13)
    assert rep.sup_coarse == pytest.approx(coarse, rel=1e-13)
    assert rep.argmax == argmax


@pytest.mark.parametrize(
    "kind, m, limit_mib",
    [("special-schwartz", 1, 5.5), ("special-plain", 0, 3.5)],
    ids=["twisted-schwartz", "twisted-plain"],
)
def test_twisted_scan_memory(kind, m, limit_mib):
    # the suite's twisted checks scan 33^4 nodes in blocks of 2^18 entries;
    # the scan holds one block buffer (Phi_00's P is a constant), the
    # grid's |F| table and per-axis pieces, where it once held some 8 MiB
    import tracemalloc

    from mehler.suite import _special_envelope_grid

    grid = _special_envelope_grid()
    special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, m, grid, kind=kind)
    tracemalloc.start()
    try:
        special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, m, grid, kind=kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


class _CountingHandle(EntireHandle):
    """Delegates to ``inner``, declaring its symmetries, and records the
    open mesh of every ``eval_grid_parts`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.real_on_real_axis = inner.real_on_real_axis
        self.reflection_invariant = inner.reflection_invariant
        self.calls = []

    def eval_grid(self, *coords):
        raise AssertionError("the scan evaluates F in split form")

    def eval_grid_parts(self, *coords):
        self.calls.append(tuple(np.ravel(c) for c in coords))
        return self.inner.eval_grid_parts(*coords)


def _counted_scan(inner, bounds, grid):
    handle = _CountingHandle(inner)
    reports = envelopes(handle, bounds, grid)
    assert len(reports) == len(bounds)
    return handle.calls


def _walked_axes(grid, halved):
    """The nodes of each real axis of ``grid``: its half <= 0 (centre node
    included) on the axes in ``halved``, else all of them."""
    h = (grid.resolution + 1) // 2
    axes = [grid.axis(k)[0] for k in range(2 * grid.ncoords)]
    return [a[:h] if k in halved else a for k, a in enumerate(axes)]


def _assert_covers(calls, grid, halved):
    """The calls walk every node of ``grid`` once, or of the halves <= 0 of
    the axes in ``halved``: their x-slices tile the walked x-axis in order,
    and every call spans the walked part of its other axes."""
    axes = _walked_axes(grid, halved)
    np.testing.assert_array_equal(np.concatenate([c[0] for c in calls]), axes[0])
    for call in calls:
        assert len(call) == len(axes)
        for got, axis in zip(call[1:], axes[1:]):
            np.testing.assert_array_equal(got, axis)


PLANE_BOUNDS = (
    sobolev_embed_bound(0.3, 0), sobolev_embed_bound(0.3, 3),
    schwartz_image_bound(0.3, 2), tempered_bound(0.3, 1),
)
SPACE_BOUNDS = (
    special_schwartz_bound(0.5, 0), special_schwartz_bound(0.5, 1),
    special_plain_bound(0.5, 0), special_plain_bound(0.5, 2),
)


@pytest.mark.parametrize(
    "inner, bounds, grid, halved",
    [
        # an image real on R, on a box symmetric in y: the half y <= 0
        (semigroup_handle(HermiteBasis((2,)), 0.3, "spectral"), PLANE_BOUNDS,
         _plane((-6.0, 6.0, -4.0, 4.0), 33), (1,)),
        (semigroup_handle(HermiteBasis((2,)), 0.3, "spectral"), PLANE_BOUNDS,
         _plane((-6.0, 6.0, -4.0, 3.5), 33), ()),
        # Phi_10 on a box symmetric in every coordinate: the quarter
        # x <= 0, y <= 0, at an odd resolution and at an even one, whose
        # refined grid is odd as well
        (SpecialEigenHandle((1,), (0,), 0.5), SPACE_BOUNDS, _space(9), (0, 1)),
        (SpecialEigenHandle((1,), (0,), 0.5), SPACE_BOUNDS, _space(8), (0, 1)),
        # not symmetric in x or y: each reflection negates an axis that is
        # not mirrored, so nothing folds; symmetric in y and u alone, only
        # rho_2 folds
        (SpecialEigenHandle((1,), (0,), 0.5), SPACE_BOUNDS,
         _space(9, box_z=(-5.3, 6.1, -3.7, 4.2)), ()),
        (SpecialEigenHandle((1,), (0,), 0.5), SPACE_BOUNDS,
         _space(9, box_z=(-5.3, 6.1, -6.0, 6.0)), (1,)),
        # a closed form declares no symmetry
        (ClosedFormHandle(GaussianImage(1.0, 0.5)), SPACE_BOUNDS, _space(9), ()),
    ],
    ids=["plane", "plane-asymmetric", "space", "space-even", "space-asymmetric",
         "space-asymmetric-x", "space-gaussian"],
)
def test_trapezoid_envelope_evaluates_only_the_refined_grid(monkeypatch, inner, bounds, grid, halved):
    # the coarse sup comes from the refined grid's nested nodes, so F is
    # evaluated once per node of the refined grid that the scan walks, and
    # nowhere else; in several blocks of three rows, one of them starting at
    # an odd row
    fine = grid.refine(2)
    walked = _walked_axes(fine, halved)
    monkeypatch.setattr(semigroup, "_BLOCK_ENTRIES", 3 * math.prod(map(len, walked[1:])))
    one = _counted_scan(inner, bounds[:1], grid)
    assert len(one) > 2
    assert any(len(np.concatenate([c[0] for c in one[:k]])) % 2 for k in range(1, len(one)))
    _assert_covers(one, fine, halved)
    # one scan serves every bound
    assert len(_counted_scan(inner, bounds, grid)) <= len(one)


@pytest.mark.parametrize(
    "box", [((-6.0, 6.0, -4.0, 4.0),), ((-6.0, 6.0, -6.0, 6.0),) * 2], ids=["plane", "space"]
)
def test_gauss_legendre_plane_grid_is_refused(box):
    # every plane grid is a trapezoid one, whose refinement keeps its nodes,
    # so no envelope can be handed a grid whose sup it cannot read off the
    # refined scan
    with pytest.raises(ValueError, match="trapezoid"):
        PlaneGrid(boxes=box, resolution=8, kind="gauss-legendre")


@pytest.mark.parametrize("space", [False, True], ids=["plane-trapezoid", "space-trapezoid"])
def test_envelopes_equal_one_envelope_per_bound(space):
    # bounds on |F|^2 and on |F| mixed in one scan
    if space:
        handle = SpecialEigenHandle((2,), (1,), 0.5)
        bounds = SPACE_BOUNDS
        grid = _space(7)
    else:
        handle = semigroup_handle(HermiteBasis((1,)), 0.3, "spectral")
        bounds = (
            sobolev_embed_bound(0.3, 2), stft_bound(2.0, 1), tempered_bound(0.3, 0),
            compact_bound(0.3, 0.5), schwartz_image_bound(0.3, 1), stft_bound(0.5, 0),
        )
        grid = _plane((-6.0, 6.0, -4.0, 4.0), 25)
    reports = envelopes(handle, bounds, grid)
    assert [r.bound for r in reports] == list(bounds)
    for bound, rep in zip(bounds, reports):
        single = envelope(handle, bound, grid)
        assert rep == single


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "run",
    [
        # far off the real axis the transform and the twisted image leave
        # the doubles, and the NaN nodes must not read as zero ratios
        lambda: pw_envelope(HermiteBasis((0,)), 2.0, 0, _plane((-4.0, 4.0, -60.0, 60.0), 33)),
        lambda: special_envelope(
            Gaussian2n(1.0), 0.5, 0,
            PlaneGrid(boxes=((-40.0, 40.0, -40.0, 40.0),) * 2, resolution=8, kind="trapezoid"),
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
    # the refined grid has 67 nodes per axis, 20 151 121 in all: too many to
    # flatten, but the scan walks x-slices of its open mesh
    grid = _space(34)
    rep = special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, 1, grid)
    assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0
    assert rep.stable
    with pytest.raises(ValueError, match="20151121 nodes"):
        grid.refine(2).nodes()


@pytest.mark.parametrize("t, x0", [(0.3, 0.0), (0.5, 0.5), (0.4, -1.3)])
def test_point_mass_split_form_multiplies_out_to_the_kernel(t, x0):
    x = np.linspace(-14.0, 14.0, 29)
    y = np.linspace(-6.0, 6.0, 13)
    P, E = semigroup.MehlerSliceHandle(t, x0).eval_grid_parts(x[:, None], y[None, :])
    assert P.shape == E.shape == (29, 13)
    ref = mehler_kernel(t, x[:, None] + 1j * y[None, :], x0)
    np.testing.assert_allclose(P * np.exp(E), ref, rtol=1e-14, atol=0)


@pytest.mark.parametrize("radius", [0.5, 0.3])
def test_point_mass_envelope_split_form_matches_the_exp_route(radius):
    # the kernel's values, exponentiated and logged again by the scan, give
    # the sups that the split form gives; the argmax is not compared, since
    # for these bounds the ratio is constant along y
    t = 0.5
    grid = _plane((-14.0, 14.0, -6.0, 6.0), 49)
    bound = compact_bound(t, radius)
    split = envelope(semigroup.MehlerSliceHandle(t, 0.5), bound, grid)
    exp_route = envelope(ClosedFormHandle(fn=lambda Z: mehler_kernel(t, Z, 0.5)), bound, grid)
    assert split.sup_ratio == pytest.approx(exp_route.sup_ratio, rel=1e-13, abs=0)
    assert split.sup_coarse == pytest.approx(exp_route.sup_coarse, rel=1e-13, abs=0)
    assert split.stable == exp_route.stable


def test_one_scan_of_two_compact_bounds_equals_two_checks():
    # compact-support's grid: the exact and the understated radius share a scan
    t = 0.5
    grid = _plane((-14.0, 14.0, -6.0, 6.0), 97)
    shared = envelopes(
        semigroup.MehlerSliceHandle(t, 0.5), [compact_bound(t, 0.5), compact_bound(t, 0.3)], grid
    )
    for rep, radius in zip(shared, (None, 0.3)):
        alone = compact_growth_check(Dirac(0.5), t, grid, radius=radius)
        assert rep.sup_ratio == alone.sup_ratio
        assert rep.argmax == alone.argmax
        assert rep.stable == alone.stable


# sup_ratio, sup_coarse and argmax of fixed envelope calls, one per handle
# class the scan meets (spectral, point-mass slice, kernel-mode bump,
# windowed transform, closed form, special Hermite, Gaussian on C^2), pinned
# by their repr: the scan reads them in logs, and a change to what else it
# computes must leave every one of them bit for bit
PINNED_C = (-8.0, 8.0, -6.0, 6.0)
PINNED_CALLS = {
    "spectral-h3": lambda: envelopes(
        semigroup_handle(HermiteBasis((3,)), 0.35),
        [schwartz_image_bound(0.35, m) for m in (0, 1, 2)] + [sobolev_embed_bound(0.35, 1)],
        _plane(PINNED_C, 33),
    ),
    "point-mass": lambda: envelopes(
        semigroup_handle(Dirac((0.6,)), 0.4, "kernel"),
        [tempered_bound(0.4, 0), tempered_bound(0.4, 1)], _plane(PINNED_C, 32),
    ),
    "point-mass-compact": lambda: [compact_growth_check(Dirac((-0.8,)), 0.4, _plane(PINNED_C, 33))],
    "bump-compact": lambda: [
        compact_growth_check(Bump(1.0), 0.45, _plane((-6.0, 6.0, -4.0, 4.0), 25))
    ],
    "pw-envelope": lambda: [
        pw_envelope(Gaussian(1.5), a, m, _plane((-6.0, 6.0, -4.0, 4.0), 25))
        for a, m in ((2.0, 0), (0.7, 1))
    ],
    "closed-form": lambda: [
        envelope(
            ClosedFormHandle(lambda Z: np.exp(-Z * Z / 3.0) * (1 + Z)), stft_bound(1.5, 1),
            _plane((-5.0, 5.0, -3.0, 3.0), 24),
        )
    ],
    "phi00": lambda: [
        special_envelope(SpecialHermiteBasis((0,), (0,)), 0.5, m, _space(13)) for m in (0, 1)
    ],
    "phi12": lambda: [
        special_envelope(SpecialHermiteBasis((1,), (2,)), 0.5, 1, _space(13), kind)
        for kind in ("special-schwartz", "special-plain")
    ],
    "gaussian2n": lambda: [special_envelope(Gaussian2n(1.3), 0.4, m, _space(12)) for m in (0, 1)],
}
PINNED_VALUES = {
    "spectral-h3": [
        (0.08059309863611262, 0.08059309863611262, (-3.0, 0.0)),
        (10.937037337470121, 10.937037337470121, (-3.5, 0.0)),
        (2887.71986178798, 2804.3889770094133, (-4.25, 0.0)),
        (10.937037337470121, 10.937037337470121, (-3.5, 0.0)),
    ],
    "point-mass": [
        (0.17908663542925846, 0.17908663542925846, (0.7741935483870968, -6.0)),
        (0.12274174090653837, 0.11455373182158979, (0.25806451612903225, 0.0)),
    ],
    "point-mass-compact": [
        (0.26145124382255336, 0.26145124382255336, (-3.0, -6.0)),
    ],
    "bump-compact": [
        (0.4283375079758993, 0.4283375079758993, (0.0, 0.0)),
    ],
    "pw-envelope": [
        (0.5345224838248485, 0.5345224838248485, (0.0, 0.0)),
        (0.6741998624632421, 0.6741998624632421, (0.0, 0.0)),
    ],
    "closed-form": [
        (1.144286211207264, 1.1324384244362997, (0.21739130434782608, 0.0)),
    ],
    "phi00": [
        (0.05854983152431917, 0.05854983152431917, (0.0, 0.0, 0.0, 0.0)),
        (92.72871210618248, 92.72871210618248, (-6.0, -4.0, -4.0, 6.0)),
    ],
    "phi12": [
        (5234.865316410155, 4861.393425645542, (-6.0, -6.0, -6.0, 4.5)),
        (1538.4986728357019, 1463.9945963019256, (-5.5, -6.0, -5.0, 6.0)),
    ],
    "gaussian2n": [
        (0.21652880678276604, 0.20585083105204452, (0.0, 0.0, 0.0, 0.0)),
        (1914.442326767159, 1871.0544892658813, (-4.363636363636363, -6.0, -4.363636363636363, 6.0)),
    ],
}


@pytest.mark.parametrize("name", list(PINNED_CALLS))
def test_envelope_results_are_pinned_bit_for_bit(name):
    got = [(r.sup_ratio, r.sup_coarse, r.argmax) for r in PINNED_CALLS[name]()]
    assert repr(got) == repr(PINNED_VALUES[name])
