"""Truncated Taylor (jet) arithmetic in one variable.

Used to take exact time-derivatives of the Bergman weights: evaluating a
closed-form weight with ``TaylorScalar.variable(t, order)`` in place of t
yields every derivative up to ``order`` at machine precision, with no
symbolic expression swell.  Coefficients may be scalars or ndarrays, so a
single pass differentiates a weight on a whole grid.
"""

import math

import numpy as np


class TaylorScalar:
    """A truncated power series c_0 + c_1 e + ... + c_K e^K.

    Supports +, -, *, /, exp, log, sqrt and real powers (the latter three
    require a strictly positive leading coefficient, elementwise for array
    coefficients).  ``derivative(k)`` returns k! * c_k.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = list(coef)
        if not self.coef:
            raise ValueError("need at least the constant coefficient")

    @classmethod
    def constant(cls, value, order: int) -> "TaylorScalar":
        return cls([value] + [0.0] * order)

    @classmethod
    def variable(cls, value, order: int) -> "TaylorScalar":
        if order == 0:
            return cls([value])
        return cls([value, 1.0] + [0.0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    def derivative(self, k: int):
        """The k-th derivative at the expansion point."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside series order {self.order}")
        return math.factorial(k) * self.coef[k]

    def _coerce(self, other) -> "TaylorScalar":
        if isinstance(other, TaylorScalar):
            if other.order != self.order:
                raise ValueError("mixed series orders")
            return other
        return TaylorScalar.constant(other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return TaylorScalar([a + b for a, b in zip(self.coef, other.coef)])

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar([-a for a in self.coef])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        K = self.order
        out = []
        for k in range(K + 1):
            s = self.coef[0] * other.coef[k]
            for i in range(1, k + 1):
                s = s + self.coef[i] * other.coef[k - i]
            out.append(s)
        return TaylorScalar(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "TaylorScalar":
        a = self.coef
        r = [1.0 / a[0]]
        for k in range(1, self.order + 1):
            s = a[1] * r[k - 1]
            for i in range(2, k + 1):
                s = s + a[i] * r[k - i]
            r.append(-s / a[0])
        return TaylorScalar(r)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def exp(self) -> "TaylorScalar":
        a = self.coef
        e = [np.exp(a[0]) if isinstance(a[0], np.ndarray) else math.exp(a[0])]
        for k in range(1, self.order + 1):
            s = a[1] * e[k - 1]
            for j in range(2, k + 1):
                s = s + j * a[j] * e[k - j]
            e.append(s / k)
        return TaylorScalar(e)

    def log(self) -> "TaylorScalar":
        a = self.coef
        lead = a[0]
        if np.any(np.asarray(lead) <= 0):
            raise ValueError("log requires a positive leading coefficient")
        l0 = np.log(lead) if isinstance(lead, np.ndarray) else math.log(lead)
        out = [l0]
        for k in range(1, self.order + 1):
            s = a[k] * k
            for j in range(1, k):
                s = s - j * out[j] * a[k - j]
            out.append(s / (k * a[0]))
        return TaylorScalar(out)

    def power(self, p: float) -> "TaylorScalar":
        return (self.log() * p).exp()

    def sqrt(self) -> "TaylorScalar":
        return self.power(0.5)


def sinh(s: TaylorScalar) -> TaylorScalar:
    return (s.exp() - (-s).exp()) * 0.5


def cosh(s: TaylorScalar) -> TaylorScalar:
    return (s.exp() + (-s).exp()) * 0.5


def tanh(s: TaylorScalar) -> TaylorScalar:
    return sinh(s) / cosh(s)


def coth(s: TaylorScalar) -> TaylorScalar:
    return cosh(s) / sinh(s)
