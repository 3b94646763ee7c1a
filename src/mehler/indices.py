"""Multi-indices and points of the complexified line.

The paper states its results on R^n and C^n; this package computes them at
n = 1, and that is decided where an input is built: a multi-index of a
basis member, a point mass or a point of evaluation has one entry.  A
multi-index is a plain 1-tuple of a non-negative int, and a point is a
complex ndarray of shape (1,).  The quadratic form ``z**2`` always means
the bilinear square (no conjugation), which is the convention under which
all kernels here are entire.
"""

import numbers

import numpy as np

MultiIndex = tuple[int, ...]


def as_index(alpha) -> MultiIndex:
    """Coerce a number or an iterable of whole numbers (``2.0`` included)
    to a validated multi-index; a fractional entry raises ``ValueError``."""
    if isinstance(alpha, numbers.Real):
        alpha = (alpha,)
    alpha = tuple(alpha)
    for a in alpha:
        if not float(a).is_integer():
            raise ValueError(f"multi-index entries must be whole numbers, got {a!r} in {alpha}")
    alpha = tuple(int(a) for a in alpha)
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be >= 0, got {alpha}")
    return alpha


def one_dimensional(name: str, value: tuple) -> tuple:
    """``value`` when it has one entry, the package's n = 1, or a
    ValueError that names ``name``."""
    if len(value) != 1:
        raise ValueError(f"{name} must be one-dimensional (n = 1), got {value}")
    return value


def oscillator_eigenvalue(alpha) -> int:
    """Eigenvalue 2|alpha| + 1 of the oscillator -d^2/dx^2 + x^2 on the
    Hermite basis, or of the twisted Laplacian when indexed by |beta|;
    ``alpha`` is a multi-index or an int degree."""
    return 2 * sum(as_index(alpha)) + 1


def as_point(z) -> np.ndarray:
    """Coerce a scalar or a length-1 sequence to a point of C (shape (1,))."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (1,):
        raise ValueError(f"a point must be one-dimensional (n = 1), got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("point coordinates must be finite")
    return z
