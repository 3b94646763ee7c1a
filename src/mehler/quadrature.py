"""Quadrature rules and grids for R^n, C^n and C^{2n} integrals.

Gauss-Hermite rules handle integrals over R^n of Gaussian-decay integrands.
Plane integrals over C^n ~ R^{2n} use the tensor-product trapezoid rule on
truncated boxes sized from the integrand's Gaussian decay rate, so the
truncation error is certifiable a priori.  The plane integrands are entire
with Gaussian decay, where the trapezoid rule converges geometrically
(Trefethen and Weideman, SIAM Review 56, 2014).  At an odd resolution
every second node of an axis, at twice its weight, is the rule of twice
the step, so a plane sum checks its own step in the same pass
(:func:`_check_half_step`).  The axes of a box symmetric about 0 are
exactly antisymmetric, so a summand whose value at x - iy is the conjugate
of the one at x + iy is summed on the half y <= 0 at folded weights
(:meth:`PlaneGrid.y_axis`), and a scan whose values repeat at mirrored
nodes walks the half <= 0 of each mirrored axis it folds
(:meth:`PlaneGrid.mirrored`).  The 1-D Gauss-Legendre rule serves compact
supports (bumps) and the kernel's s-integral.

Both Gauss rules come from their three-term recurrences: Newton's method
on the nonnegative nodes, started from asymptotic zeros, then mirrored
(Golub & Welsch, "Calculation of Gauss quadrature rules", 1969, for the
weights; Hale & Townsend, SIAM J. Sci. Comput. 35, 2013, for Newton from
asymptotic starts).  No eigen-solve is needed, so building a rule makes no
LAPACK call and wakes no BLAS thread pool; the work is O(q^2).

A Gauss-Hermite rule also carries its compensated weights w e^{x^2} =
1 / (q h_{q-1}(x)^2), formed once from the bounded Hermite functions.  At
q >= 384 the outer weights w underflow to 0 where e^{x^2} overflows, so
forming w * exp(x^2) at the point of use would give 0 * inf = NaN.

All integration sums run through ``np.sum`` on arrays in fixed node order,
so results are bit-reproducible for a given rule/grid.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .specfun import hermite_eval

MAX_GAUSS_HERMITE = 512
_MAX_PLANE_NODES = 20_000_000
# Newton stops after a step below this (relative to the node past 1).  The
# convergence is quadratic, so that last step leaves the node at roundoff.
_NEWTON_STEP = 1e-13
_NEWTON_MAX = 10


# Largest move of a plane sum at twice the step, relative to the sum of its
# terms' moduli.  On the twisted images of Phi_ab (a, b <= 2, m <= 2,
# 0.25 <= t <= 1.5, default boxes) every grid within it gave the norm to
# 2e-4, and those beyond it were off by 6e-5 up to 35%.
_HALF_STEP_TOL = 1e-2


class QuadratureError(RuntimeError):
    """Raised when a quadrature sum cannot be trusted: an integrand sample
    is non-finite (the node is carried), or the sum moves at half the
    resolution (the grid is too coarse for the integrand)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


@dataclass(frozen=True)
class QuadRule:
    """A one-dimensional quadrature rule.

    For ``kind == "gauss-hermite"`` the weights integrate against
    exp(-x^2) dx on R; for ``kind == "gauss-legendre"`` against dx on the
    rule's interval.  ``plain_weights`` integrate the plain integrand g
    against dx in both cases, sum(plain_weights * g(nodes)).
    For Gauss-Hermite they are the compensated weights w e^{x^2}, finite
    where w underflows; for Gauss-Legendre they are the weights.
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    plain_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.plain_weights is None:
            if self.kind == "gauss-hermite":
                raise ValueError("a gauss-hermite rule needs its compensated weights")
            object.__setattr__(self, "plain_weights", self.weights)
        if not self.nodes.shape == self.weights.shape == self.plain_weights.shape:
            raise ValueError("nodes and weights must have matching lengths")

    @property
    def order(self) -> int:
        return len(self.nodes)


def _order(q) -> int:
    """``q`` as an int; a non-integer order is a ValueError."""
    if not float(q).is_integer():
        raise ValueError(f"q must be an integer, got {q}")
    return int(q)


def _mirror(v: np.ndarray, odd: bool, sign: float = 1.0) -> np.ndarray:
    """A symmetric rule's array from its values at the nonnegative nodes,
    in increasing order (v[0] belongs to the node 0 when ``odd``)."""
    return np.concatenate([sign * v[int(odd) :][::-1], v])


@lru_cache(maxsize=64)
def _hermite_nodes(q: int):
    """(nodes, weights, compensated weights) of the q-point Gauss-Hermite
    rule; the rules below never hand out these arrays.

    The k-th largest node starts at sqrt(nu) cos(T/2), where
    T - sin T = (4k - 1) pi / nu and nu = 2q + 1: the WKB zero of h_q,
    within a few percent of the node spacing up to the turning point.
    Newton on h_q, with h_q' = sqrt(2q) h_{q-1} - x h_q, then converges in
    three steps at every q <= 512.  The ladder runs in linear form: at the
    nodes of q <= 512, h_0 = pi^(-1/4) e^{-x^2/2} > 1e-223, |h_k| grows
    with k up to the turning point k ~ x^2/2 and stays below 1 past it, so
    no value leaves the doubles.
    """
    odd = bool(q % 2)
    nu = 2.0 * q + 1.0
    r = (4.0 * np.arange(q // 2, 0, -1) - 1.0) * math.pi / nu
    t = np.cbrt(6.0 * r)  # T - sin T <= T^3/6, so T starts left of its root
    for _ in range(_NEWTON_MAX):
        step = (t - np.sin(t) - r) / (1.0 - np.cos(t))
        t -= step
        if np.max(np.abs(step), initial=0.0) < _NEWTON_STEP:
            break
    x = math.sqrt(nu) * np.cos(0.5 * t)
    if odd:
        x = np.concatenate([[0.0], x])
    for _ in range(_NEWTON_MAX):
        h_low, h_q = hermite_eval(q, x)[q - 1 :]
        step = h_q / (math.sqrt(2.0 * q) * h_low - x * h_q)
        x -= step
        if np.max(np.abs(step) / np.maximum(1.0, x)) < _NEWTON_STEP:
            break
    else:
        raise RuntimeError(f"Gauss-Hermite nodes did not converge at q = {q}")
    ladder = hermite_eval(q, x)
    h0, h_low = ladder[0], ladder[q - 1]
    compensated = 1.0 / (q * h_low * h_low)
    # w = e^{-x^2} / (q h_{q-1}^2) = sqrt(pi) (h_0 / h_{q-1})^2 / q: e^{-x^2/2}
    # cancels in the ratio, whose square underflows only where w does
    weights = (h0 / h_low) ** 2 * (math.sqrt(math.pi) / q)
    return _mirror(x, odd, -1.0), _mirror(weights, odd), _mirror(compensated, odd)


def _legendre_top(q: int, x: np.ndarray):
    """(P_{q-1}, P_q) at x, by (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    prev, cur = np.ones_like(x), x
    for k in range(1, q):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return prev, cur


@lru_cache(maxsize=64)
def _legendre_nodes(q: int):
    """(nodes, weights) of the q-point Gauss-Legendre rule on [-1, 1]; the
    rules below never hand out these arrays.

    The k-th largest node starts at (1 - 1/(8q^2) + 1/(8q^3))
    cos(pi (k - 1/4) / (q + 1/2)) (Tricomi), and Newton on P_q, with
    P_q' = q (P_{q-1} - x P_q) / (1 - x^2), takes at most four steps.  The
    weight is 2 / ((1 - x^2) P_q'(x)^2), with 1 - x^2 as (1 - x)(1 + x).
    """
    odd = bool(q % 2)
    k = np.arange(q // 2, 0, -1)
    x = (1.0 - (1.0 - 1.0 / q) / (8.0 * q * q)) * np.cos(math.pi * (k - 0.25) / (q + 0.5))
    if odd:
        x = np.concatenate([[0.0], x])
    for _ in range(_NEWTON_MAX):
        p_low, p_q = _legendre_top(q, x)
        step = p_q * (1.0 - x) * (1.0 + x) / (q * (p_low - x * p_q))
        x -= step
        if np.max(np.abs(step)) < _NEWTON_STEP:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes did not converge at q = {q}")
    p_low, p_q = _legendre_top(q, x)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    weights = 2.0 * one_minus_x2 / (q * (p_low - x * p_q)) ** 2
    return _mirror(x, odd, -1.0), _mirror(weights, odd)


def gauss_hermite_rule(q: int) -> QuadRule:
    """The q-point Gauss-Hermite rule for weight exp(-x^2) on R.

    Nodes are the roots of the degree-q Hermite polynomial; the rule is
    exact on polynomials of degree <= 2q - 1 and sum(weights) = sqrt(pi).
    Nodes and weights are symmetric about 0, and ``plain_weights`` holds
    the compensated weights w e^{x^2} = 1 / (q h_{q-1}(x)^2), which stay
    finite where w underflows (the outer nodes of q >= 384).
    """
    if not 1 <= q <= MAX_GAUSS_HERMITE:
        raise ValueError(f"q must be in [1, {MAX_GAUSS_HERMITE}], got {q}")
    x, w, wc = _hermite_nodes(_order(q))
    return QuadRule(nodes=x.copy(), weights=w.copy(), kind="gauss-hermite", plain_weights=wc.copy())


def gauss_legendre_rule(q: int, a: float = -1.0, b: float = 1.0) -> QuadRule:
    """The q-point Gauss-Legendre rule on [a, b], symmetric about its
    midpoint."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if not (math.isfinite(a) and math.isfinite(b)) or a >= b:
        raise ValueError(f"invalid interval [{a}, {b}]")
    x, w = _legendre_nodes(_order(q))
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadRule(nodes=mid + half * x, weights=half * w, kind="gauss-legendre")


def integrate_rn(g, rule: QuadRule, dimension: int):
    """Integrate g over R^dimension with a tensorized Gauss-Hermite rule.

    ``g`` must be vectorized: it receives ``dimension`` flat coordinate
    arrays and returns samples.  The rule's compensated weights carry the
    exp(+x^2) per axis, so ``g`` is the plain integrand; it should decay at
    least like a Gaussian times a polynomial.
    """
    if rule.kind != "gauss-hermite":
        raise ValueError("integrate_rn expects a gauss-hermite rule")
    if not 1 <= dimension <= 4:
        raise ValueError("integrate_rn supports 1 <= dimension <= 4")
    x = rule.nodes
    w = rule.plain_weights
    if dimension == 1:
        coords = [x]
        weights = w
    else:
        grids = np.meshgrid(*([x] * dimension), indexing="ij")
        coords = [c.ravel() for c in grids]
        wgrids = np.meshgrid(*([w] * dimension), indexing="ij")
        weights = np.prod([c.ravel() for c in wgrids], axis=0)
    samples = np.asarray(g(*coords))
    if not np.all(np.isfinite(samples)):
        bad = int(np.argmin(np.isfinite(samples if samples.ndim else [samples])))
        node = tuple(float(c[bad]) for c in coords)
        raise QuadratureError(f"non-finite integrand sample at node {node}", node=node)
    total = np.sum(weights * samples)
    return complex(total) if np.iscomplexobj(samples) else float(total)


def _half_width(gamma: float, drop: float, degree: int) -> float:
    """Half-width h with exp(-gamma h^2) * (1+h^2)^(degree/2) <= drop."""
    if gamma <= 0:
        raise ValueError("decay rate must be positive")
    budget = -math.log(drop)
    h2 = budget / gamma
    for _ in range(4):
        h2 = (budget + 0.5 * degree * math.log1p(h2)) / gamma
    return math.sqrt(h2)


def gaussian_box(
    gamma_x: float,
    gamma_y: float,
    drop: float = 1e-18,
    degree: int = 0,
) -> tuple[float, float, float, float]:
    """A box [-hx, hx] x [-hy, hy] sized from per-axis Gaussian decay rates.

    ``degree`` adds polynomial-growth margin for integrands of the form
    poly * Gaussian.
    """
    hx = _half_width(gamma_x, drop, degree)
    hy = _half_width(gamma_y, drop, degree)
    return (-hx, hx, -hy, hy)


def _check_half_step(total, half, size: float, resolution: int, what: str) -> None:
    """QuadratureError unless a plane sum ``total`` and the sum ``half`` of
    the nested rule of twice the step agree to _HALF_STEP_TOL of ``size``,
    the sum of the terms' moduli; ``what`` names the sum in the message."""
    move = abs(total - half)
    if not move <= _HALF_STEP_TOL * size:
        raise QuadratureError(
            f"the {what} moves by {move:.3g} (terms of total size {size:.3g}) "
            f"at twice the step: {resolution} nodes per axis are too few for "
            "this integrand on this box"
        )


@dataclass(frozen=True)
class PlaneGrid:
    """Tensor-product trapezoid grid over one or two complex planes.

    Each entry of ``boxes`` is (x_min, x_max, y_min, y_max) for one complex
    coordinate; ``resolution`` is the number of equispaced nodes per real
    axis, the end nodes at half weight, so the total weight is the box
    volume.  ``kind`` names the rule and accepts only "trapezoid".

    The axes and the flattened nodes are built once per grid, on first use,
    and shared by every caller, so their arrays are read-only; ``refine``
    and ``widen`` return new grids with axes of their own.
    """

    boxes: tuple[tuple[float, float, float, float], ...]
    resolution: int
    kind: str = "trapezoid"

    def __post_init__(self):
        if isinstance(self.boxes[0], (int, float)):
            object.__setattr__(self, "boxes", (tuple(self.boxes),))
        boxes = tuple(tuple(float(v) for v in b) for b in self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if len(boxes) not in (1, 2):
            raise ValueError("PlaneGrid supports 1 or 2 complex coordinates")
        for b in boxes:
            if len(b) != 4 or not all(math.isfinite(v) for v in b):
                raise ValueError(f"invalid box {b}")
            if b[0] >= b[1] or b[2] >= b[3]:
                raise ValueError(f"degenerate box {b}")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")
        if self.kind != "trapezoid":
            raise ValueError(f"plane grids are trapezoid ones, not {self.kind!r}")

    @property
    def ncoords(self) -> int:
        return len(self.boxes)

    def axis(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of real axis k (0: x, 1: y, 2: u, 3: v);
        read-only arrays shared by every caller.

        Node k of n on [a, b] is mid + half (2k - (n - 1)) / (n - 1), with
        the end nodes set to a and b: the nodes of a box symmetric about 0
        are then exactly antisymmetric, which ``np.linspace`` is not (it
        misses by up to 1.8e-15 on ``default_bergman_grid(0.3, 65)``)."""
        return self._axes[k]

    def y_axis(self, mirrored: bool) -> tuple[np.ndarray, np.ndarray, bool]:
        """(nodes, weights, folded): the y-axis that a weighted sum over a
        grid on C runs on.

        ``mirrored`` states that the summand at x - iy is the conjugate of
        the one at x + iy.  So it is for |F|^2, F conj(G) and F times a
        kernel table when F and G are real on R (F(conj z) = conj F(z),
        Schwarz reflection), since every weight, kernel factor and growth
        bound on C depends on y through y^2 alone.  When it holds, the grid
        is over one complex coordinate, and its y nodes are exactly
        antisymmetric about a centre node 0 (an odd resolution), the nodes
        are the half y <= 0, each mirrored node's weight added to its
        partner's and the centre's counted once, and ``folded`` is True.
        Every second folded node, at twice its weight, is the folded rule of
        twice the step, as on the whole axis.  Otherwise they are
        ``axis(1)``.  The arrays are read-only and shared.
        """
        if mirrored and self._folded_y is not None:
            return (*self._folded_y, True)
        return (*self._axes[1], False)

    def mirrored(self, k: int) -> bool:
        """Whether the nodes of real axis k are exactly antisymmetric about
        a centre node 0: an odd resolution on a box symmetric about 0 in
        that coordinate (see :meth:`axis`)."""
        return self._mirrored[k]

    @cached_property
    def _mirrored(self) -> tuple[bool, ...]:
        odd = self.resolution % 2 == 1
        return tuple(odd and bool(np.array_equal(x, -x[::-1])) for x, _ in self._axes)

    @cached_property
    def _axes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        n = self.resolution
        steps = (2.0 * np.arange(n) - (n - 1)) / (n - 1)
        axes = []
        for box in self.boxes:
            for a, b in ((box[0], box[1]), (box[2], box[3])):
                x = 0.5 * (a + b) + 0.5 * (b - a) * steps
                x[0], x[-1] = a, b
                w = np.full(n, (b - a) / (n - 1))
                w[0] *= 0.5
                w[-1] *= 0.5
                x.flags.writeable = False
                w.flags.writeable = False
                axes.append((x, w))
        return tuple(axes)

    @cached_property
    def _folded_y(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The y <= 0 nodes and their folded weights, or None where the
        y-axis does not fold (see :meth:`y_axis`)."""
        y, w = self._axes[1]
        if self.ncoords != 1 or not self._mirrored[1]:
            return None
        half = self.resolution // 2 + 1
        folded = w[:half] + w[::-1][:half]
        folded[-1] = w[half - 1]
        folded.flags.writeable = False
        return y[:half], folded

    def nodes(self) -> tuple[np.ndarray, ...]:
        """Flattened coordinate arrays plus the weight array (last).

        Built once per grid and shared by every caller, so read-only.
        """
        return self._nodes

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, ...]:
        n_nodes = self.resolution ** (2 * self.ncoords)
        if n_nodes > _MAX_PLANE_NODES:
            raise ValueError(
                f"grid would have {n_nodes} nodes; refusing beyond {_MAX_PLANE_NODES}"
            )
        grids = np.meshgrid(*[a[0] for a in self._axes], indexing="ij")
        coords = [g.ravel() for g in grids]
        wgrids = np.meshgrid(*[a[1] for a in self._axes], indexing="ij")
        weights = wgrids[0].ravel().copy()
        for wg in wgrids[1:]:
            weights *= wg.ravel()
        out = (*coords, weights)
        for a in out:
            a.flags.writeable = False
        return out

    def refine(self, factor: int = 2) -> "PlaneGrid":
        """The grid with ``factor`` times as many intervals per axis; it
        keeps every node of its own (the nested trapezoid rule)."""
        return replace(self, resolution=factor * (self.resolution - 1) + 1)

    def widen(self, factor: float) -> "PlaneGrid":
        boxes = tuple(
            (factor * b[0], factor * b[1], factor * b[2], factor * b[3])
            for b in self.boxes
        )
        return replace(self, boxes=boxes)


def integrate_plane(g, grid: PlaneGrid):
    """Integrate g over the grid's truncated box(es).

    ``g`` receives the flattened coordinate arrays (x, y) for one complex
    coordinate or (x, y, u, v) for two, and must return samples of the
    same length.
    """
    *coords, weights = grid.nodes()
    samples = np.asarray(g(*coords))
    if not np.all(np.isfinite(samples)):
        bad = int(np.argmin(np.isfinite(samples)))
        node = tuple(float(c[bad]) for c in coords)
        raise QuadratureError(f"non-finite integrand sample at node {node}", node=node)
    total = np.sum(weights * samples)
    return complex(total) if np.iscomplexobj(samples) else float(total)


# Most multiply-adds (rows x inner x columns) one real matrix product holds.
_PRODUCT_ENTRIES = 1 << 18


def real_matmul(a, b) -> np.ndarray:
    """``a @ b`` for real or complex 2-D ``a`` and ``b``, by small real
    matrix products.

    The tensor-grid contractions join per-axis tables with one matrix
    product.  A complex product is split into the real products of its
    parts, and the rows of ``a`` into blocks of at most 2^18 multiply-adds
    per product.  Both keep OpenBLAS on its calling thread: it hands larger
    real products, and complex matrix-vector products already at 96 x 96,
    to its thread pool.  On a 2-CPU machine, waking that pool between the
    elementwise work of a scan cost 8-15 ms per product, where the blocked
    real products of a 97 x 128 by 128 x 97 complex-by-real product take
    0.1-0.2 ms.  The flops are the same.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rows = max(1, _PRODUCT_ENTRIES // max(1, b.size))
    if a.shape[0] > rows:
        return np.concatenate(
            [real_matmul(a[i : i + rows], b) for i in range(0, a.shape[0], rows)]
        )
    if not np.iscomplexobj(b):
        if not np.iscomplexobj(a):
            return a @ b
        return (a.real @ b) + 1j * (a.imag @ b)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return (ar @ br - ai @ bi) + 1j * (ar @ bi + ai @ br)
