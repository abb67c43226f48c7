"""Second-order forward-mode values: scalar + gradient + symmetric Hessian.

A Jet2 carries a function value together with its first and second partial
derivatives with respect to a fixed list of coordinates, propagated through
arithmetic by truncated Taylor rules.  The Hessian stays *exactly* symmetric
(bit-for-bit) because every rule below builds it from manifestly symmetric
pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class JetDomainError(ArithmeticError):
    """Evaluation left the domain of an operation (log of 0, 1/0, ...)."""


@dataclass(frozen=True, eq=False)
class Jet2:
    value: float
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(value: float, n: int) -> "Jet2":
        return Jet2(float(value), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(value: float, index: int, n: int) -> "Jet2":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet2(float(value), g, np.zeros((n, n)))

    @property
    def n(self) -> int:
        return self.grad.shape[0]

    def is_constant(self) -> bool:
        return not self.grad.any() and not self.hess.any()

    # -- ring operations: both operands are jets ----------------------------

    def __add__(self, other):
        return Jet2(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess)

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        return Jet2(self.value - other.value, self.grad - other.grad,
                    self.hess - other.hess)

    def __mul__(self, other):
        cross = np.outer(self.grad, other.grad)
        return Jet2(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            self.value * other.hess + other.value * self.hess + cross + cross.T,
        )

    def __truediv__(self, other):
        if other.value == 0.0:
            raise JetDomainError("division by zero")
        return self * _lift(other, 1.0 / other.value,
                            -1.0 / other.value ** 2,
                            2.0 / other.value ** 3)

    def __pow__(self, other):
        if other.is_constant() and float(other.value).is_integer() \
                and abs(other.value) <= 2 ** 31:
            return _int_pow(self, int(other.value))
        if self.value <= 0.0:
            raise JetDomainError(
                "non-integer power of a non-positive base (%r)" % self.value)
        return exp(other * log(self))


def _lift(x: Jet2, f: float, df: float, d2f: float) -> Jet2:
    """Chain rule for a scalar function applied to jet x."""
    outer = np.outer(x.grad, x.grad)
    return Jet2(f, df * x.grad, df * x.hess + d2f * outer)


def _int_pow(x: Jet2, k: int) -> Jet2:
    if k < 0 and x.value == 0.0:
        raise JetDomainError("zero raised to a negative power")
    f = x.value ** k
    d1 = k * x.value ** (k - 1) if k != 0 else 0.0
    d2 = k * (k - 1) * x.value ** (k - 2) if k * (k - 1) != 0 else 0.0
    return _lift(x, f, d1, d2)


# -- elementary functions ----------------------------------------------------

def sin(x: Jet2) -> Jet2:
    return _lift(x, math.sin(x.value), math.cos(x.value), -math.sin(x.value))


def cos(x: Jet2) -> Jet2:
    return _lift(x, math.cos(x.value), -math.sin(x.value), -math.cos(x.value))


def tan(x: Jet2) -> Jet2:
    c = math.cos(x.value)
    if c == 0.0:
        raise JetDomainError("tan at an odd multiple of pi/2")
    t = math.tan(x.value)
    return _lift(x, t, 1.0 + t * t, 2.0 * t * (1.0 + t * t))


def sinh(x: Jet2) -> Jet2:
    return _lift(x, math.sinh(x.value), math.cosh(x.value), math.sinh(x.value))


def cosh(x: Jet2) -> Jet2:
    return _lift(x, math.cosh(x.value), math.sinh(x.value), math.cosh(x.value))


def tanh(x: Jet2) -> Jet2:
    t = math.tanh(x.value)
    return _lift(x, t, 1.0 - t * t, -2.0 * t * (1.0 - t * t))


def exp(x: Jet2) -> Jet2:
    e = math.exp(x.value)
    return _lift(x, e, e, e)


def log(x: Jet2) -> Jet2:
    if x.value <= 0.0:
        raise JetDomainError("log of a non-positive value (%r)" % x.value)
    v = x.value
    return _lift(x, math.log(v), 1.0 / v, -1.0 / v ** 2)


def sqrt(x: Jet2) -> Jet2:
    if x.value < 0.0:
        raise JetDomainError("sqrt of a negative value (%r)" % x.value)
    if x.value == 0.0:
        if x.is_constant():
            return Jet2.constant(0.0, x.n)
        raise JetDomainError("sqrt has no derivative at zero")
    s = math.sqrt(x.value)
    return _lift(x, s, 0.5 / s, -0.25 / (s * x.value))


def absval(x: Jet2) -> Jet2:
    # Subgradient convention sign(0) = 0 at the kink.
    s = float(np.sign(x.value))
    return _lift(x, abs(x.value), s, 0.0)


FUNCTIONS = {
    "sin": sin, "cos": cos, "tan": tan,
    "sinh": sinh, "cosh": cosh, "tanh": tanh,
    "exp": exp, "log": log, "sqrt": sqrt, "abs": absval,
}
