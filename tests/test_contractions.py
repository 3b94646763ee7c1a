"""Tensor-grid contractions against the dense per-point sums they replace.

The windowed transform, the twisted heat convolution and the reproducing
integral each factor over the real axes of a plane grid and run as one
matrix product over all requested points.  Every such path is checked here
against the sum over ``grid.nodes()`` written out in the test, and every
``EntireHandle.eval_grid`` and ``eval_grid_parts`` against the shape
contract of the envelope scan's open mesh.
"""

import math

import numpy as np
import pytest

from mehler import (
    Bump,
    Dirac,
    Gaussian,
    Gaussian2n,
    HermiteBasis,
    HermiteOverflowError,
    bergman_weight,
    compact_growth_check,
    default_bergman_grid,
    envelope_ratio,
    gauss_stft,
    mehler_kernel,
    pw_envelope,
    reproduce,
    semigroup_handle,
    sobolev_embed_bound,
    special_semigroup_apply,
    twisted_conv,
)
from mehler import special
from mehler.quadrature import PlaneGrid
from mehler.semigroup import MehlerSliceHandle
from mehler.special import (
    GaussianImage,
    GaussianImageHandle,
    SpecialEigenHandle,
    SpecialHermiteBasis,
    default_twisted_grid,
    heat_profile,
    laguerre_profile,
    laguerre_project,
    twisted_eval,
)
from mehler.spectral import ClosedFormHandle, EntireHandle
from mehler.stft import _StftHandle

KAPPA = (2 * math.pi) ** -0.5

# ---------------------------------------------------------------------------
# The eval_grid shape contract
# ---------------------------------------------------------------------------

HANDLES = {
    "SpectralHandle": lambda: semigroup_handle(HermiteBasis((2,)), 0.3, "spectral"),
    "ClosedFormHandle": lambda: ClosedFormHandle(fn=lambda Z: np.exp(-0.5 * Z * Z)),
    "ClosedFormHandle-C2": lambda: ClosedFormHandle(GaussianImage(1.0, 0.4)),
    "MehlerSliceHandle": lambda: MehlerSliceHandle(0.3, 0.5),
    "KernelImageHandle": lambda: semigroup_handle(Gaussian(1.0), 0.3, "kernel"),
    "SpecialEigenHandle": lambda: SpecialEigenHandle((1,), (0,), 0.4),
    "GaussianImageHandle": lambda: GaussianImageHandle(GaussianImage(1.0, 0.4)),
    "_StftHandle": lambda: _StftHandle(HermiteBasis((1,)), 2.0, None),
}

C2_HANDLES = ("SpecialEigenHandle", "ClosedFormHandle-C2", "GaussianImageHandle")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _package_handles():
    return [c for c in _subclasses(EntireHandle) if c.__module__.startswith("mehler.")]


def test_every_handle_class_is_covered():
    names = {c.__name__ for c in _package_handles()}
    assert names == {name.split("-")[0] for name in HANDLES}


@pytest.mark.parametrize("cls", _package_handles(), ids=lambda c: c.__name__)
def test_every_handle_implements_exactly_one_grid_evaluator(cls):
    # EntireHandle derives each grid evaluator from the other: a handle
    # that defines neither, itself or in a base class below EntireHandle,
    # recurses, one that defines both has two paths
    below = cls.__mro__[: cls.__mro__.index(EntireHandle)]
    own = {"eval_grid", "eval_grid_parts"} & set().union(*map(vars, below))
    assert len(own) == 1, (cls.__name__, sorted(own))


@pytest.mark.parametrize(
    "name", [n for n in HANDLES if n not in C2_HANDLES]
)
@pytest.mark.parametrize("z", [0.4 - 0.7j, -1.2 + 0.3j, 0.8])
def test_eval_is_eval_grid_at_the_point(name, z):
    # eval at a point of C: the spectral handle's own per-point evaluator
    # agrees with its grid sum, every other handle's is that grid sum
    handle = HANDLES[name]()
    grid = handle.eval_grid(np.array([z.real]), np.array([z.imag]))[0]
    point = handle.eval(z)
    assert isinstance(point, complex)
    rel = 1e-13 if name == "SpectralHandle" else 1e-15
    assert point == pytest.approx(grid, rel=rel, abs=0)


@pytest.mark.parametrize("name", list(HANDLES))
def test_eval_grid_returns_the_broadcast_shape(name):
    handle = HANDLES[name]()
    x = np.linspace(-1.5, 1.5, 5)
    y = np.linspace(-1.0, 1.0, 4)
    if name in C2_HANDLES:
        # the C^2 scan: z-rows (column) against the w-plane (row)
        cols = (x[:, None], 0.5 * x[:, None], y[None, :], -0.5 * y[None, :])
    else:
        cols = (x[:, None], y[None, :])
    mesh = handle.eval_grid(*cols)
    assert mesh.shape == (5, 4)
    flat = handle.eval_grid(*(np.broadcast_to(c, (5, 4)).ravel() for c in cols))
    np.testing.assert_allclose(mesh, flat.reshape(5, 4), rtol=1e-12, atol=0)
    # the split form F = P e^E: P on the mesh, E broadcasting against it;
    # on C^2 E may be the pair of its z- and w-tables, whose sum is E
    P, E = handle.eval_grid_parts(*cols)
    if isinstance(handle, SpecialEigenHandle):
        E_z, E_w = E
        assert E_z.shape == (5, 1) and E_w.shape == (1, 4)
        E = E_z + E_w
    assert P.shape == (5, 4) and np.broadcast(P, E).shape == (5, 4)
    np.testing.assert_allclose(P * np.exp(E), mesh, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# Windowed transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, a",
    [(HermiteBasis((1,)), 2.0), (Gaussian(1.0), 0.5), (Bump(1.5), 1.0), (Dirac(0.3), 1.5)],
    ids=["hermite", "gaussian", "bump", "point-mass"],
)
def test_stft_mesh_product_matches_gauss_stft(f, a):
    x = np.linspace(-5.0, 5.0, 21)
    y = np.linspace(-3.0, 3.0, 13)
    handle = _StftHandle(f, a, None)
    mesh = handle.eval_grid(x[:, None], y[None, :])
    Z = x[:, None] + 1j * y[None, :]
    flat = gauss_stft(f, a, Z.ravel()).reshape(Z.shape)
    assert mesh.shape == Z.shape
    np.testing.assert_allclose(mesh, flat, rtol=1e-12, atol=1e-12 * np.max(np.abs(flat)))


# ---------------------------------------------------------------------------
# Twisted convolution
# ---------------------------------------------------------------------------


def _dense_conv(f, g, z, w, grid):
    """The convolution sum at one point over grid.nodes(), and the sum of
    the moduli of its terms."""
    X, U, Wt = grid.nodes()
    terms = (
        Wt * twisted_eval(f, X, U) * twisted_eval(g, z - X, w - U)
        * np.exp(-0.5j * (X * w - z * U))
    )
    return terms.sum(), np.abs(terms).sum()


def _points(kind):
    rng = np.random.default_rng(7)
    z, w = rng.uniform(-1.5, 1.5, (2, 6))
    if kind == "complex":
        z = z + 1j * rng.uniform(-0.8, 0.8, 6)
        w = w + 1j * rng.uniform(-0.8, 0.8, 6)
    return z, w


# profile id -> profile at t; "laguerre" is phi_2
PROFILES = {
    "heat": heat_profile,
    "laguerre": lambda t: laguerre_profile(2),
    **{f"laguerre{k}": lambda t, k=k: laguerre_profile(k) for k in (0, 1, 7, 12)},
}


# input id -> input f: every basis member up to degree 3, Gaussians and
# Laguerre functions
INPUTS = {
    **{
        f"phi{a}{b}": SpecialHermiteBasis((a,), (b,))
        for a in range(4) for b in range(4) if abs(a - b) + 2 * min(a, b) <= 3
    },
    "gaussian": Gaussian2n(1.0),
    "gaussian-narrow": Gaussian2n(2.5),
    **{f"laguerre{k}-input": laguerre_profile(k) for k in (0, 1, 3)},
}


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("t", [0.4, 0.5])
def test_twisted_conv_point_arrays_match_dense_sum(t, profile, kind):
    # every profile runs as a sum of per-axis products (one for the heat
    # profile, k + 1 for phi_k), and so does every input kind; the oracle is
    # the dense sum of f and g themselves over the plane's nodes
    grid = default_twisted_grid(t)
    g = PROFILES[profile](t)
    z, w = _points(kind)
    for name, f in INPUTS.items():
        got = twisted_conv(f, g, z, w, grid)
        assert got.shape == z.shape
        for p in range(len(z)):
            ref, scale = _dense_conv(f, g, z[p], w[p], grid)
            assert abs(got[p] - ref) <= 1e-12 * scale, (name, p)
        # one point still gives a complex
        one = twisted_conv(f, g, z[0], w[0], grid)
        assert isinstance(one, complex) and one == pytest.approx(got[0], rel=1e-12)


def test_twisted_conv_refuses_a_profile_without_axis_factors():
    f = Gaussian2n(1.0)
    with pytest.raises(TypeError, match="per-axis factors"):
        twisted_conv(f, lambda z, w: np.exp(-(z * z + w * w)), 0.1, 0.2, default_twisted_grid(0.4))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: lambda X, U: np.exp(-(X * X + U * U)), TypeError, "polynomial Gaussian"),
        (lambda: heat_profile(0.4), TypeError, "polynomial Gaussian"),
        # an n = 2 member is refused where it is built, before it reaches
        # the twisted layer
        (lambda: SpecialHermiteBasis((0, 1), (1, 0)), ValueError, r"one-dimensional \(n = 1\)"),
    ],
    ids=["callable", "heat-profile", "n2-member"],
)
def test_twisted_conv_refuses_an_input_without_an_axis_form(make, error, message):
    with pytest.raises(error, match=message):
        twisted_conv(make(), heat_profile(0.4), 0.1, 0.2, default_twisted_grid(0.4))
    with pytest.raises(error, match=message):
        special_semigroup_apply(make(), 0.4, 0.1, 0.2)


def test_twisted_conv_never_tables_the_input_on_the_plane(monkeypatch):
    # the input enters by its per-axis form alone: no value of f is taken
    # at the plane's nodes through twisted_eval
    def refuse(*args):
        raise AssertionError("twisted_eval ran inside twisted_conv")

    monkeypatch.setattr(special, "twisted_eval", refuse)
    z, w = _points("complex")
    grid = default_twisted_grid(0.4)
    for f in INPUTS.values():
        for g in (heat_profile(0.4), laguerre_profile(2)):
            assert np.all(np.isfinite(twisted_conv(f, g, z, w, grid)))


def test_twisted_kernel_route_holds_to_im_six():
    # the trusted region of the twisted kernel route on its default grid
    # (trapezoid, 65 nodes), at |Re z|, |Re w| <= 1 and
    # |Im z|^2 + |Im w|^2 <= 36: 3.6e-9 at most (5.7e-10 at z = 1 + 6i,
    # w = 0), where the 96-node Gauss-Legendre grid gave 3.0e-7.  The error
    # grows about 10x per 0.5 of radius and passes 1e-5 by radius 7
    t = 0.4
    angle = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    im = np.concatenate([[0.0], 3.0 * np.exp(1j * angle), 6.0 * np.exp(1j * angle)])
    re = np.array([-1.0, 0.0, 1.0])
    rz, rw, i = np.meshgrid(re, re, im)
    z, w = rz + 1j * i.real, rw + 1j * i.imag
    got = special_semigroup_apply(Gaussian2n(1.0), t, z, w)
    ref = GaussianImage(1.0, t)(z, w)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-8
    one = special_semigroup_apply(Gaussian2n(1.0), t, 1.0 + 6.0j, 0.0)
    assert abs(one / GaussianImage(1.0, t)(1.0 + 6.0j, 0.0) - 1.0) <= 1e-9


def test_semigroup_kernel_mode_takes_point_arrays():
    z, w = _points("complex")
    got = special_semigroup_apply(Gaussian2n(1.0), 0.4, z, w)
    assert got.shape == z.shape
    np.testing.assert_allclose(got, GaussianImage(1.0, 0.4)(z, w), rtol=1e-9)


def test_twisted_semigroup_is_the_damped_laguerre_sum():
    # the spectral identity e^{-tL} f = sum_k e^{-(2k+1)t} (2 pi)^{-1} f x phi_k
    # (Thangavelu 1993) as an oracle for the heat-profile route and the
    # closed form, on the same grid and at the same point arrays
    t = 0.4
    z, w = _points("complex")
    f = Gaussian2n(1.0)
    grid = default_twisted_grid(t)
    damped = sum(
        math.exp(-(2 * k + 1) * t) * laguerre_project(f, k, z, w, grid) for k in range(25)
    )
    assert damped.shape == z.shape
    np.testing.assert_allclose(special_semigroup_apply(f, t, z, w), damped, rtol=1e-12)
    np.testing.assert_allclose(GaussianImage(1.0, t)(z, w), damped, rtol=1e-12)


# ---------------------------------------------------------------------------
# Reproducing integral
# ---------------------------------------------------------------------------


def _dense_reproduce(handle, t, z, grid):
    X, Y, W = grid.nodes()
    Wc = X + 1j * Y
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (
            KAPPA * W * handle.eval_grid(X, Y) * mehler_kernel(2 * t, z, np.conj(Wc))
            * bergman_weight(t, Wc)
        )
    return terms.sum(), np.abs(terms).sum()


def test_reproduce_points_match_single_calls():
    t = 0.3
    grid = default_bergman_grid(t, resolution=64)
    handle = semigroup_handle(HermiteBasis((2,)), t, "spectral")
    rng = np.random.default_rng(3)
    zs = (rng.uniform(-1.5, 1.5, 7) + 1j * rng.uniform(-1.5, 1.5, 7))[:, None]
    got = reproduce(handle, t, zs, grid, KAPPA)
    assert got.shape == (7,)
    single = np.array([reproduce(handle, t, z, grid, KAPPA) for z in zs])
    np.testing.assert_allclose(got, single, rtol=1e-13)
    for z, g in zip(zs[:, 0], got):
        ref, scale = _dense_reproduce(handle, t, z, grid)
        assert abs(g - ref) <= 1e-12 * scale
    with pytest.raises(ValueError, match=r"\(P, 1\)"):
        reproduce(handle, t, np.zeros((3, 2)), grid, KAPPA)


@pytest.mark.parametrize("z", [30.0, -30.0 + 0.5j, 30.0 - 4.0j])
def test_split_reproducing_kernel_far_along_the_real_axis(z):
    # e^{-c z^2/2} and e^{zx/s} share one exponent, so |Re z| = 30 neither
    # underflows the Gaussian nor overflows the linear term
    t = 0.3
    grid = default_bergman_grid(t, resolution=64)
    handle = semigroup_handle(HermiteBasis((1,)), t, "spectral")
    got = reproduce(handle, t, [z], grid, KAPPA)
    ref, scale = _dense_reproduce(handle, t, z, grid)
    assert np.isfinite(got) and np.isfinite(scale) and scale > 0
    assert abs(got - ref) <= 1e-12 * scale


def test_split_reproducing_kernel_overflow_is_named():
    t = 0.3
    grid = default_bergman_grid(t, resolution=64)
    handle = semigroup_handle(HermiteBasis((1,)), t, "spectral")
    with pytest.raises(HermiteOverflowError):
        reproduce(handle, t, [0.5 + 40j], grid, KAPPA)


# ---------------------------------------------------------------------------
# The envelope scan's open mesh
# ---------------------------------------------------------------------------


def test_one_coordinate_envelope_builds_no_flattened_nodes(monkeypatch):
    def refuse(self):
        raise AssertionError("the scan built the flattened nodes")

    monkeypatch.setattr(PlaneGrid, "nodes", refuse)
    grid = PlaneGrid(boxes=((-6.0, 6.0, -4.0, 4.0),), resolution=25, kind="trapezoid")
    handle = semigroup_handle(HermiteBasis((2,)), 0.3, "spectral")
    assert envelope_ratio(handle, sobolev_embed_bound(0.3, 1), grid).sup_ratio > 0
    assert pw_envelope(HermiteBasis((0,)), 2.0, 0, grid).sup_ratio > 0
    assert compact_growth_check(Dirac(0.5), 0.5, grid).sup_ratio > 0
    assert compact_growth_check(Bump(1.0), 0.5, grid).sup_ratio > 0

