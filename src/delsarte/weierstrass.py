"""One exact polynomial ring in t and t^n, and short-Weierstrass invariants.

A monomial is the pair (c, s), standing for t^(c+s*n). A catalog
polynomial is written once for every n; ``evaluate(n)`` maps it to the
polynomial in t alone at that n, where every s is 0. Coefficients and
slopes are exact: an int when integral, a Fraction only when not. The
ring operations build their dict directly and never route it back through
the validating constructor, so integral arithmetic stays in int.

The same pair is the catalog's one encoding of a value affine in n: term
exponents, the closed form of lambda, fiber indices and counts.
``parse_affine`` is its only parser, ``affine_at`` its only evaluator and
``affine_text`` its only printer. ``parse_poly`` reads a catalog
polynomial into the ring.

Curves are y^2 = x^3 + a x + b; j is kept as an unreduced pair whose
denominator is -1/16 of the discriminant, so comparisons cross-multiply
instead of needing polynomial gcds.
"""

from __future__ import annotations

import re
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


def _quote(text: str) -> str:
    """repr of an expression text, cut to its first 40 characters and "…"."""
    return repr(text if len(text) <= 40 else text[:40] + "…")


# A term dn, dn/d or d of an affine expression, d a run of digits, optional before n.
_AFFINE_TERM = r"(?:(\d*)n(?:/(\d+))?|(\d+))"
_AFFINE = re.compile(rf"[+-]?{_AFFINE_TERM}(?:[+-]{_AFFINE_TERM})*")
_AFFINE_PIECE = re.compile(rf"([+-]?){_AFFINE_TERM}")


def parse_affine(text: str) -> tuple:
    """Parse '0', '12', 'n', '3n', '2n-72', '-72+2n', 'n/3': terms joined by single signs.

    Returns the pair (c, s) for c + s*n, the ring's monomial key. Only a
    written denominator makes a Fraction.
    """
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty affine expression")
    if _AFFINE.fullmatch(text) is None:
        raise ValueError(f"bad affine expression {_quote(text)}")
    const = slope = 0
    for sign, coeff, den, number in _AFFINE_PIECE.findall(text):
        if number:
            const += int(sign + number)
        elif not den:
            slope += int(sign + (coeff or "1"))
        elif int(den):
            slope += Fraction(int(sign + (coeff or "1")), int(den))
        else:
            raise ValueError(f"zero denominator in {_quote(text)}")
    return const, slope


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


# --- catalog polynomials ----------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[tn^*+\-()/])")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"bad character {text[pos]!r} in {_quote(text)}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


#: Deepest parenthesis nesting parse_poly accepts; it recurses once per level.
MAX_NESTING = 32
#: Largest power parse_poly accepts (the bundled catalog's largest is 6); it
#: bounds the products a power costs and the size of its coefficients.
MAX_POWER = 12
#: Most monomials any polynomial parse_poly builds may have, its parts
#: included (the bundled catalog's most is 7). So a product costs at most
#: MAX_TERMS times the size of its right factor, parsing stays bounded by
#: the length of the text, and the identity proof multiplies polynomials
#: of at most MAX_TERMS monomials.
MAX_TERMS = 32


def parse_poly(text: str) -> SparsePoly:
    """A catalog polynomial in t with exponents affine in n, expanded once.

    Each monomial t^(c+s*n) of the result is the pair (c, s). Raises
    ValueError, naming the text, on bad syntax and past MAX_NESTING,
    MAX_POWER or MAX_TERMS.
    """
    return _PolyParser(text).parse()


class _PolyParser:
    """Recursive descent over one polynomial text; builds the expansion with the ring's +, - and *."""

    def __init__(self, text: str):
        self.text = text
        self._tokens = _tokenize(text)
        self._pos = 0
        self._depth = 0

    def parse(self) -> SparsePoly:
        terms = self._expr()
        if self._pos != len(self._tokens):
            raise ValueError(f"trailing input in {_quote(self.text)}")
        return terms

    def _peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _take(self, expected=None):
        tok = self._peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'token'}, got {_quote(tok or '')} in {_quote(self.text)}")
        self._pos += 1
        return tok

    def _capped(self, terms):
        if len(terms) > MAX_TERMS:
            raise ValueError(f"more than {MAX_TERMS} monomials in {_quote(self.text)}")
        return terms

    def _expr(self):
        # A +/- chain is one flat loop, so parsing it needs no recursion per term.
        result = -self._term() if self._try("-") else self._term()
        while self._peek() in ("+", "-"):
            sign = self._take()
            term = self._term()
            result = self._capped(result + term if sign == "+" else result - term)
        return result

    def _term(self):
        result = self._factor()
        while self._try("*"):
            result = self._capped(result * self._factor())
        return result

    def _factor(self):
        base = self._base()
        if not self._try("^"):
            return base
        power = self._take()
        if not power.isdigit():
            raise ValueError(f"non-integer power in {_quote(self.text)}")
        if int(power) > MAX_POWER:
            raise ValueError(f"power {_quote(power)} above the cap of {MAX_POWER} in {_quote(self.text)}")
        # One factor at a time, so the cap bounds every intermediate product.
        result = _wrap({(0, 0): 1})
        for _ in range(int(power)):
            result = self._capped(result * base)
        return result

    def _base(self):
        tok = self._peek()
        if tok == "(":
            self._take()
            self._depth += 1
            if self._depth > MAX_NESTING:
                raise ValueError(f"parentheses nested deeper than {MAX_NESTING} in {_quote(self.text)}")
            terms = self._expr()
            self._take(")")
            self._depth -= 1
            return terms
        if tok == "t":
            self._take()
            return _wrap({self._exponent(): 1})
        if tok is not None and tok.isdigit():
            self._take()
            value = int(tok)
            if self._try("/"):
                den = self._take()
                if not den.isdigit():
                    raise ValueError(f"bad rational in {_quote(self.text)}")
                if not int(den):
                    raise ValueError(f"zero denominator in {_quote(self.text)}")
                value = Fraction(value, int(den))
            return _wrap({(0, 0): value})
        raise ValueError(f"unexpected token {tok!r} in {_quote(self.text)}")

    def _exponent(self):
        # t without ^ means exponent 1
        if not self._try("^"):
            return 1, 0
        if self._try("("):
            parts = []
            while self._peek() != ")":
                if self._peek() is None:
                    raise ValueError(f"unbalanced exponent in {_quote(self.text)}")
                parts.append(self._take())
            self._take(")")
            return parse_affine("".join(parts))
        # the bare forms t^n, t^3n and t^12
        text = self._take()
        if text.isdigit() and self._try("n"):
            text += "n"
        elif text != "n" and not text.isdigit():
            raise ValueError(f"bad exponent in {_quote(self.text)}")
        return parse_affine(text)

    def _try(self, token):
        if self._peek() == token:
            self._pos += 1
            return True
        return False


class WeierstrassData(NamedTuple):
    """Coefficients of y^2 = x^3 + a x + b over k[t] (or k[t, t^n])."""

    a: SparsePoly
    b: SparsePoly


def discriminant(curve: WeierstrassData) -> SparsePoly:
    """Discriminant, -16 times the denominator of j_invariant; zero raises NonEllipticError."""
    return -16 * j_invariant(curve)[1]


def j_invariant(curve: WeierstrassData):
    """The j-invariant as the unreduced pair (1728*4a^3, 4a^3 + 27b^2)."""
    a, b = curve
    cubed = 4 * a * a * a
    den = cubed + 27 * b * b
    if den.is_zero:
        raise NonEllipticError("discriminant vanishes identically")
    return 1728 * cubed, den
