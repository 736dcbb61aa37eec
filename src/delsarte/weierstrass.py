"""One exact polynomial ring in t and t^n, and short-Weierstrass invariants.

A monomial is the pair (c, s), standing for t^(c+s*n). A catalog
polynomial is written once for every n; ``evaluate(n)`` maps it to the
polynomial in t alone at that n, where every s is 0. Coefficients and
slopes are exact: an int when integral, a Fraction only when not. The
ring operations build their dict directly and never route it back through
the validating constructor, so integral arithmetic stays in int.

The same pair is the catalog's one encoding of a value affine in n: term
exponents, the closed form of lambda, fiber indices and counts.
``affine_at`` is its only evaluator and ``affine_text`` its only printer.

Curves are y^2 = x^3 + a x + b; the discriminant is -16(4a^3 + 27b^2)
and j is kept as the unreduced pair (1728 * 4a^3, 4a^3 + 27b^2), so
comparisons cross-multiply instead of needing polynomial gcds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NonEllipticError


def affine_at(pair, n) -> int:
    """The value c + s*n of the pair (c, s) at n; ValueError unless it is an integer."""
    c, s = pair
    value = c + s * n
    if value.denominator != 1:
        raise ValueError(f"{affine_text(pair)} is not integral at n={n}")
    return int(value)


def affine_text(pair) -> str:
    """The pair (c, s) as catalog text: 2n-72, -n/3+1, n, 12, 0."""
    c, s = pair
    parts = []
    if s:
        num, den = s.numerator, s.denominator
        head = ("n" if abs(num) == 1 else f"{abs(num)}n") + (f"/{den}" if den != 1 else "")
        parts.append(("-" if num < 0 else "") + head)
    if c or not s:
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{abs(c)}")
    return "".join(parts)


def _trimmed(data) -> dict:
    """Monomial -> coefficient data without zero coefficients; integral Fractions, slopes too, as int."""
    return {
        (c, s.numerator if type(s) is Fraction and s.denominator == 1 else s):
            coeff.numerator if type(coeff) is Fraction and coeff.denominator == 1 else coeff
        for (c, s), coeff in data.items()
        if coeff
    }


def _wrap(data) -> "SparsePoly":
    """A SparsePoly over data built by the ring operations: trimmed, never re-validated."""
    poly = object.__new__(SparsePoly)
    poly._coeffs = _trimmed(data)
    return poly


class SparsePoly:
    """Polynomial in t and t^n with exact rational coefficients, (c, s) -> coeff.

    The constructor takes a constant, or exponent -> coefficient data whose
    exponents are pairs (c, s) or ints e, meaning (e, 0). Since 3 ==
    Fraction(3) and hash(3) == hash(Fraction(3)), equality, hashing,
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
            c, s = exp if isinstance(exp, tuple) else (exp, 0)
            c = int(c)
            if c < 0 and not s:
                raise ValueError("negative exponents are not supported")
            mono, coeff = (c, Fraction(s)), Fraction(coeff)
            data[mono] = data[mono] + coeff if mono in data else coeff
        self._coeffs = _trimmed(data)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def items(self):
        return sorted(self._coeffs.items())

    def evaluate(self, n: int) -> "SparsePoly":
        """The polynomial at parameter n, each monomial (c, s) becoming t^(c+s*n)."""
        out = {}
        for mono, coeff in self._coeffs.items():
            exponent = affine_at(mono, n)
            if exponent < 0:
                raise ValueError("negative exponents are not supported")
            mono = (exponent, 0)
            out[mono] = out.get(mono, 0) + coeff
        return _wrap(out)

    def __add__(self, other):
        other = other if isinstance(other, SparsePoly) else SparsePoly(other)
        out = dict(self._coeffs)
        for mono, coeff in other._coeffs.items():
            out[mono] = out.get(mono, 0) + coeff
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other):
        other = other if isinstance(other, SparsePoly) else SparsePoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return SparsePoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _wrap({m: c * other for m, c in self._coeffs.items()})
        out = {}
        for (c1, s1), x in self._coeffs.items():
            for (c2, s2), y in other._coeffs.items():
                mono = (c1 + c2, s1 + s2)
                out[mono] = out.get(mono, 0) + x * y
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, power):
        if power < 0:
            raise ValueError("negative powers are not supported")
        result = _wrap({(0, 0): 1})
        base = self
        while True:
            if power & 1:
                result = result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly(other)
        elif not isinstance(other, SparsePoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if self.is_zero:
            return "SparsePoly(0)"
        parts = []
        for (c, s), coeff in self.items():
            if s:
                parts.append(f"{coeff}*t^({c}+{s}*n)")
            elif c == 0:
                parts.append(str(coeff))
            elif c == 1:
                parts.append(f"{coeff}*t")
            else:
                parts.append(f"{coeff}*t^{c}")
        return f"SparsePoly({' + '.join(parts)})"


class WeierstrassData(NamedTuple):
    """Coefficients of y^2 = x^3 + a x + b over k[t] (or k[t, t^n])."""

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
