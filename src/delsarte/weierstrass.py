"""Sparse exact polynomials in t and short-Weierstrass invariants.

Coefficients are exact rationals: an int when the value is integral and
a Fraction only when it is not (in a and b of 1c, 2b, 3d and 12). The ring
operations build their coefficient dict directly and never route it back
through the validating constructor, so integral arithmetic stays in int.

Curves are y^2 = x^3 + a(t) x + b(t); the discriminant is
-16(4a^3 + 27b^2) and j is kept as the unreduced pair
(1728 * 4a^3, 4a^3 + 27b^2), so comparisons against closed forms
cross-multiply instead of needing polynomial gcds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NonEllipticError


def _trimmed(data) -> dict:
    """Exponent -> coefficient data without its zero coefficients, integral Fractions as int."""
    return {
        exp: coeff.numerator if type(coeff) is Fraction and coeff.denominator == 1 else coeff
        for exp, coeff in data.items()
        if coeff
    }


def _wrap(data) -> "SparsePoly":
    """A SparsePoly over data built by the ring operations: trimmed, never re-validated."""
    poly = object.__new__(SparsePoly)
    poly._coeffs = _trimmed(data)
    return poly


class SparsePoly:
    """Univariate polynomial with exact rational coefficients, exponent -> coeff.

    Integral coefficients are stored as int, the others as Fraction; since
    3 == Fraction(3) and hash(3) == hash(Fraction(3)), equality, hashing,
    items() and repr do not depend on the storage type.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, SparsePoly):
            self._coeffs = dict(coeffs._coeffs)
            return
        if isinstance(coeffs, (int, Fraction)):
            coeffs = {0: coeffs}
        data = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for exp, coeff in items:
            exp = int(exp)
            if exp < 0:
                raise ValueError("negative exponents are not supported")
            coeff = Fraction(coeff)
            data[exp] = data[exp] + coeff if exp in data else coeff
        self._coeffs = _trimmed(data)

    @classmethod
    def monomial(cls, exponent, coeff=1) -> "SparsePoly":
        return cls({exponent: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self):
        return sorted(self._coeffs.items())

    def __add__(self, other):
        other = other if isinstance(other, SparsePoly) else SparsePoly(other)
        out = dict(self._coeffs)
        for exp, coeff in other._coeffs.items():
            out[exp] = out.get(exp, 0) + coeff
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = other if isinstance(other, SparsePoly) else SparsePoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return SparsePoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _wrap({e: c * other for e, c in self._coeffs.items()})
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                out[exp] = out.get(exp, 0) + c1 * c2
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, power):
        if power < 0:
            raise ValueError("negative powers are not supported")
        result = _wrap({0: 1})
        base = self
        while True:
            if power & 1:
                result = result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def __eq__(self, other):
        other = other if isinstance(other, SparsePoly) else SparsePoly(other)
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if self.is_zero:
            return "SparsePoly(0)"
        parts = []
        for exp, coeff in self.items():
            if exp == 0:
                parts.append(str(coeff))
            elif exp == 1:
                parts.append(f"{coeff}*t")
            else:
                parts.append(f"{coeff}*t^{exp}")
        return f"SparsePoly({' + '.join(parts)})"


class WeierstrassData(NamedTuple):
    """Coefficients of y^2 = x^3 + a x + b over k[t]."""

    a: SparsePoly
    b: SparsePoly


def discriminant(curve: WeierstrassData) -> SparsePoly:
    """Discriminant -16(4a^3 + 27b^2); zero raises NonEllipticError."""
    delta = -16 * (4 * curve.a ** 3 + 27 * curve.b ** 2)
    if delta.is_zero:
        raise NonEllipticError("discriminant vanishes identically")
    return delta


def j_invariant(curve: WeierstrassData):
    """The j-invariant as the unreduced pair (1728*4a^3, 4a^3 + 27b^2)."""
    cubed = 4 * curve.a ** 3
    den = cubed + 27 * curve.b ** 2
    if den.is_zero:
        raise NonEllipticError("discriminant vanishes identically")
    return 1728 * cubed, den
