"""What the package accepts: whole numbers, finite reals, multi-indices and
points of the complexified line.

Every public constructor and entry point decides the validity of its
inputs here, and nowhere else, by three coercions:

- :func:`as_whole`, a whole number (an int, or a float such as ``2.0``)
  at or above a lower bound; a bool, a fraction, NaN and +-inf are refused;
- :func:`as_real`, a finite real above (or at) a lower bound, or with no
  bound; a bool, NaN and +-inf are refused;
- :func:`as_points`, one point of C or P points shaped (P, 1), flattened,
  with every coordinate finite; :func:`as_finite` is its check on an array
  of any shape, which the Hermite and Laguerre ladders run.

Each raises ``ValueError`` that names the parameter it was handed, as in
``t must be positive, got inf``.

The paper states its results on R^n and C^n; this package computes them at
n = 1, and that is decided where an input is built: a multi-index of a
basis member, a point mass or a point of evaluation has one entry.  A
multi-index is a plain 1-tuple of a non-negative int, and a point is a
complex ndarray of shape (1,).  The quadratic form ``z**2`` always means
the bilinear square (no conjugation), which is the convention under which
all kernels here are entire.
"""

import math
import numbers

import numpy as np

MultiIndex = tuple[int, ...]


def _shown(value):
    """``value`` for a message: a numpy scalar as the Python one it holds."""
    return value.item() if isinstance(value, np.generic) else value


def _integer(value) -> int | None:
    """``value`` as an int when it is a whole number and not a bool, else
    None: the one whole-number rule of the package."""
    if type(value) is int:  # the common case, ahead of the ABC checks
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return None
    if isinstance(value, numbers.Integral):
        return int(value)
    value = float(value)
    return int(value) if value.is_integer() else None


def as_whole(name: str, value, low: int | None = 0) -> int:
    """``value`` as an int, at least ``low`` unless that is None, or a
    ValueError naming ``name``."""
    number = _integer(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {_shown(value)!r}")
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}, got {_shown(value)!r}")
    return number


def as_real(name: str, value, low: float | None = None, *, strict: bool = True) -> float:
    """``value`` as a finite float, above ``low`` (at least ``low`` when not
    ``strict``) when a bound is given, or a ValueError naming ``name``."""
    if type(value) is not float and (
        isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a real number, got {_shown(value)!r}")
    number = float(value)
    if low is None:
        ok, need = math.isfinite(number), "finite"
    elif strict:
        ok, need = low < number < math.inf, "positive" if low == 0 else f"> {low:g}"
    else:
        ok, need = low <= number < math.inf, f">= {low:g}"
    if not ok:
        raise ValueError(f"{name} must be {need}, got {_shown(value)!r}")
    return number


def as_finite(name: str, values) -> np.ndarray:
    """``values`` as an array whose every entry is finite, or a ValueError
    naming ``name`` and the first entry that is not."""
    values = np.asarray(values)
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = values.reshape(-1)[np.argmin(finite.reshape(-1))]
        raise ValueError(f"{name} must be finite, got {_shown(bad)!r}")
    return values


def as_points(name: str, z) -> tuple[np.ndarray, bool]:
    """(points, single): one point of C (a scalar or a sequence of length
    1) or P points shaped (P, 1), as a flat complex array of finite
    coordinates, and whether it was one point; a ValueError naming ``name``
    otherwise."""
    zs = np.asarray(z, dtype=complex)
    single = zs.ndim < 2
    if single and zs.size != 1:
        raise ValueError(f"a point must be one-dimensional (n = 1), got shape {zs.shape}")
    if not single and (zs.ndim != 2 or zs.shape[1] != 1):
        raise ValueError(f"{name}: points must be shaped (P, 1) (n = 1), got {zs.shape}")
    return as_finite(name, zs.reshape(-1)), single


def as_index(alpha) -> MultiIndex:
    """Coerce a number or an iterable of whole numbers (``2.0`` included)
    to a validated multi-index; a fractional entry or a bool raises
    ``ValueError``."""
    if type(alpha) is not tuple:
        alpha = (alpha,) if isinstance(alpha, (numbers.Real, np.bool_)) else tuple(alpha)
    entries = tuple(map(_integer, alpha))
    if None in entries:
        bad = _shown(alpha[entries.index(None)])
        raise ValueError(f"multi-index entries must be whole numbers, got {bad!r} in {alpha}")
    if any(a < 0 for a in entries):
        raise ValueError(f"multi-index entries must be >= 0, got {entries}")
    return entries


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
    zs, single = as_points("z", z)
    if not single:
        raise ValueError(f"a point must be one-dimensional (n = 1), got shape {np.shape(z)}")
    return zs
