"""Multi-indices and points of complexified Euclidean space.

Everything in this package is indexed by multi-indices ``alpha`` in N^n and
evaluated at points ``z`` in C^n.  A multi-index is a plain tuple of
non-negative ints; a point is a 1-D complex ndarray.  The quadratic form
``z**2`` always means the bilinear square ``sum(z_j**2)`` (no conjugation),
which is the convention under which all kernels here are entire.
"""

import numpy as np

MultiIndex = tuple[int, ...]


def as_index(alpha) -> MultiIndex:
    """Coerce an int or an iterable of whole numbers (``2.0`` included) to
    a validated multi-index; a fractional entry raises ``ValueError``."""
    if isinstance(alpha, (int, np.integer)):
        alpha = (alpha,)
    alpha = tuple(alpha)
    for a in alpha:
        if not float(a).is_integer():
            raise ValueError(f"multi-index entries must be whole numbers, got {a!r} in {alpha}")
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be >= 0, got {alpha}")
    return alpha


def oscillator_eigenvalue(alpha, dimension: int | None = None) -> int:
    """Eigenvalue 2|alpha| + n of the oscillator -Delta + |x|^2 on the
    Hermite basis, or of the twisted Laplacian when indexed by |beta|.

    ``alpha`` may be a multi-index (dimension inferred) or an int degree
    (then ``dimension`` is required).
    """
    if isinstance(alpha, (int, np.integer)):
        if dimension is None:
            raise ValueError("dimension required when passing a bare degree")
        return 2 * int(alpha) + dimension
    alpha = as_index(alpha)
    n = dimension if dimension is not None else len(alpha)
    return 2 * sum(alpha) + n


def multi_indices(dimension: int, max_degree: int) -> list[MultiIndex]:
    """All alpha in N^dimension with |alpha| <= max_degree.

    Order is graded lexicographic (by total degree, then lexicographic),
    which fixes the serialization order of every coefficient vector.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out: list[MultiIndex] = []
    for d in range(max_degree + 1):
        block = sorted(compositions(d, dimension), reverse=True)
        out.extend(block)
    return out


def as_point(z, dimension: int | None = None) -> np.ndarray:
    """Coerce a scalar or sequence to a complex point of C^n (shape (n,))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise ValueError(f"a point must be one-dimensional, got shape {z.shape}")
    if dimension is not None and z.shape[0] != dimension:
        raise ValueError(f"expected a point of C^{dimension}, got length {z.shape[0]}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point coordinates must be finite")
    return z

