"""Second-order forward-mode scalars (hyper-dual style).

A Hyperdual carries a value, two directional derivative slots and the
mixed second derivative along the pair of directions:

    x = val + d1*e1 + d2*e2 + d12*e1*e2,  with e1^2 = e2^2 = 0.

Seeding slot 1 with a coordinate direction and reading d1 gives first
derivatives; seeding both slots and reading d12 gives exact mixed
second derivatives, exactly.  It is the compiled kernels' independent
oracle: in the tests, and in kernels.domain_error's search for a reason.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .exprlang import sign


class Hyperdual:
    __slots__ = ("val", "d1", "d2", "d12")

    def __init__(self, val, d1=0.0, d2=0.0, d12=0.0):
        self.val = float(val)
        self.d1 = float(d1)
        self.d2 = float(d2)
        self.d12 = float(d12)

    def __repr__(self):
        return f"Hyperdual({self.val}, {self.d1}, {self.d2}, {self.d12})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Hyperdual):
            return Hyperdual(
                self.val + other.val,
                self.d1 + other.d1,
                self.d2 + other.d2,
                self.d12 + other.d12,
            )
        return Hyperdual(self.val + other, self.d1, self.d2, self.d12)

    __radd__ = __add__

    def __neg__(self):
        return Hyperdual(-self.val, -self.d1, -self.d2, -self.d12)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Hyperdual) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Hyperdual):
            return Hyperdual(
                self.val * other.val,
                self.val * other.d1 + self.d1 * other.val,
                self.val * other.d2 + self.d2 * other.val,
                self.val * other.d12
                + self.d1 * other.d2
                + self.d2 * other.d1
                + self.d12 * other.val,
            )
        return Hyperdual(
            self.val * other, self.d1 * other, self.d2 * other, self.d12 * other
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Hyperdual):
            if other == 0.0:
                raise DomainError("division by zero")
            inv = 1.0 / other
            return Hyperdual(self.val * inv, self.d1 * inv, self.d2 * inv, self.d12 * inv)
        if other.val == 0.0:
            raise DomainError("division by zero")
        # from q*other = self, expanded order by order
        qv = self.val / other.val
        q1 = (self.d1 - qv * other.d1) / other.val
        q2 = (self.d2 - qv * other.d2) / other.val
        q12 = (self.d12 - q1 * other.d2 - q2 * other.d1 - qv * other.d12) / other.val
        return Hyperdual(qv, q1, q2, q12)

    def __rtruediv__(self, other):
        return Hyperdual(float(other)) / self

    def __pow__(self, p):
        if isinstance(p, Hyperdual):
            # exp(p log x) whatever p's seeds, as the kernels compute it
            if self.val <= 0.0:
                raise DomainError("power with varying exponent needs a positive base")
            return (self.log() * p).exp()
        p = float(p)
        if self.val < 0.0 and not p.is_integer():
            raise DomainError("fractional power of a negative base")
        if self.val == 0.0:
            if p < 0.0:
                raise DomainError("zero raised to a negative power")
            # x^p at 0: only integer-like exponents keep finite jets
            if p == 0.0:
                return Hyperdual(1.0)
            if p == 1.0:
                return Hyperdual(self.val, self.d1, self.d2, self.d12)
            if p == 2.0:
                return Hyperdual(0.0, 0.0, 0.0, 2.0 * self.d1 * self.d2)
            if p > 2.0:
                return Hyperdual(0.0)
            raise DomainError("power derivative singular at zero base")
        v = self.val ** p
        dv = p * self.val ** (p - 1.0)
        ddv = p * (p - 1.0) * self.val ** (p - 2.0)
        return self._lift1(v, dv, ddv)

    def __rpow__(self, base):
        return Hyperdual(float(base)) ** self

    def __abs__(self):
        s = math.copysign(1.0, self.val) if self.val != 0.0 else 0.0
        # abs'(0) := 0 by convention; second derivative vanishes a.e.
        return Hyperdual(abs(self.val), s * self.d1, s * self.d2, s * self.d12)

    def sign(self):
        # abs', so sign' := 0 everywhere, at 0 too
        return Hyperdual(sign(self.val))

    # -- elementary functions -----------------------------------------------

    def _lift1(self, v, dv, ddv):
        # univariate chain rule through second order
        return Hyperdual(
            v,
            dv * self.d1,
            dv * self.d2,
            dv * self.d12 + ddv * self.d1 * self.d2,
        )

    def sin(self):
        return self._lift1(math.sin(self.val), math.cos(self.val), -math.sin(self.val))

    def cos(self):
        return self._lift1(math.cos(self.val), -math.sin(self.val), -math.cos(self.val))

    def tan(self):
        t = math.tan(self.val)
        d = 1.0 + t * t
        return self._lift1(t, d, 2.0 * t * d)

    def exp(self):
        e = math.exp(self.val)
        return self._lift1(e, e, e)

    def log(self):
        if self.val <= 0.0:
            raise DomainError("log of a non-positive value")
        inv = 1.0 / self.val
        return self._lift1(math.log(self.val), inv, -inv * inv)

    def sqrt(self):
        if self.val < 0.0:
            raise DomainError("sqrt of a negative value")
        if self.val == 0.0:
            raise DomainError("sqrt derivative singular at zero")
        s = math.sqrt(self.val)
        d = 0.5 / s
        return self._lift1(s, d, -0.5 * d / self.val)


def _component(x, name):
    # f may collapse to a plain real when it ignores its arguments
    return getattr(x, name) if isinstance(x, Hyperdual) else 0.0


def gradient(f, p) -> np.ndarray:
    """Gradient of a scalar function of n reals at point p.

    `f` must accept a sequence of scalars evaluable over Hyperdual.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    out = np.empty(n)
    for i in range(n):
        args = [Hyperdual(p[j], 1.0 if j == i else 0.0) for j in range(n)]
        out[i] = _component(f(args), "d1")
    return out


def hessian_vector(f, p, w) -> np.ndarray:
    """Hessian-vector product H(f)(p) . w via paired seeds."""
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    n = p.shape[0]
    out = np.empty(n)
    for i in range(n):
        args = [Hyperdual(p[j], 1.0 if j == i else 0.0, w[j]) for j in range(n)]
        out[i] = _component(f(args), "d12")
    return out
