"""Exponent matrices of four-term polynomials and their character groups.

A four-term polynomial sum of t^a X^b Y^c homogenizes to a surface in P^3
whose exponents form a 4x4 matrix A (columns X, Y, Z, T; every row sums
to the degree). When A is nonsingular, the rows (1,0,0,-1)A^-1,
(0,1,0,-1)A^-1 and (0,0,1,-1)A^-1 generate a finite subgroup L of
(Q/Z)^4. The Lefschetz number of the surface is the number of elements
of L with all four coordinates nonzero for which some integer t,
preserving every coordinate order, makes the fractional lifts of the
scaled coordinates sum to something other than 2.

|L| is |det A| / d. The Lefschetz number enumerates L coset by coset,
each element once, checks the count against |det A| / d, and tests one
character per Galois orbit, since admissibility is constant on orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .errors import GroupOrderError, GroupTooLargeError, SingularMatrixError
from .exact import QZVec4, mat4_det, mat4_inverse, qzvec, row_vec_apply

#: One exponent triple (t_exp, x_exp, y_exp).
Term = tuple[int, int, int]


def validate_terms(terms) -> tuple[Term, ...]:
    """Check and canonicalize a four-term support."""
    terms = tuple((int(a), int(b), int(c)) for a, b, c in terms)
    if len(terms) != 4:
        raise ValueError(f"need exactly 4 terms, got {len(terms)}")
    if len(set(terms)) != 4:
        raise ValueError("the 4 terms must be pairwise distinct")
    if any(e < 0 for term in terms for e in term):
        raise ValueError("exponents must be nonnegative")
    return terms


@dataclass(frozen=True)
class ExponentMatrix:
    """4x4 matrix of homogenized exponents, columns ordered (X, Y, Z, T)."""

    rows: tuple[tuple[int, int, int, int], ...]
    degree: int

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        if any(e < 0 for row in rows for e in row):
            raise ValueError("exponents must be nonnegative")
        if any(sum(row) != self.degree for row in rows):
            raise ValueError("every row must sum to the degree")
        if mat4_det(rows) == 0:
            raise SingularMatrixError(
                "exponent matrix is singular; the character-group method does not apply"
            )

    @property
    def determinant(self) -> int:
        return mat4_det(self.rows)


def homogenize(terms) -> ExponentMatrix:
    """Exponent matrix of the homogenization of a four-term polynomial.

    The degree is d = max(a+b+c) over the terms t^a X^b Y^c; each term
    becomes the row (b, c, d-a-b-c, a). Raises SingularMatrixError when
    the matrix is singular and ValueError for malformed supports.
    """
    terms = validate_terms(terms)
    degree = max(a + b + c for a, b, c in terms)
    rows = tuple((b, c, degree - a - b - c, a) for a, b, c in terms)
    return ExponentMatrix(rows, degree)


_SELECTORS = ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))


def lattice_generators(matrix: ExponentMatrix) -> tuple[QZVec4, QZVec4, QZVec4]:
    """The three generators of L, reduced coordinatewise into [0, 1)."""
    inverse = mat4_inverse(matrix.rows)
    return tuple(row_vec_apply(sel, inverse) for sel in _SELECTORS)


#: Largest |L| that lefschetz_number enumerates. The largest group of the
#: bundled table and benchmark cases has 80640 elements; a group above the
#: cap raises GroupTooLargeError (CLI exit 3) before anything is built.
MAX_GROUP_ORDER = 10**6


def _numerators(generators):
    """Generators reduced into [0, 1) as numerator 4-tuples over their common denominator.

    Returns (numerator tuples, modulus); cell[i]/modulus is the i-th coordinate.
    """
    modulus = lcm(*(f.denominator for g in generators for f in g))
    cells = [tuple(int(f * modulus) for f in g) for g in generators]
    return cells, modulus


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _coset_cells(gen_cells, modulus):
    """Every element of the group generated by gen_cells, each exactly once.

    The group is built one generator g at a time: with k the least
    positive integer such that k*g lies in the group H built so far, the
    new group is the disjoint union of the cosets j*g + H for 0 <= j < k.
    """
    cells = [(0, 0, 0, 0)]
    members = set(cells)
    for g0, g1, g2, g3 in gen_cells:
        # The k with k*g in H form a subgroup of Z containing the order of
        # g, so the least one is a divisor of that order.
        order = modulus // gcd(modulus, g0, g1, g2, g3)
        k = next(
            k for k in _divisors(order)
            if ((k * g0) % modulus, (k * g1) % modulus,
                (k * g2) % modulus, (k * g3) % modulus) in members
        )
        shifts = [
            ((j * g0) % modulus, (j * g1) % modulus, (j * g2) % modulus, (j * g3) % modulus)
            for j in range(1, k)
        ]
        cosets = [
            ((c0 + s0) % modulus, (c1 + s1) % modulus,
             (c2 + s2) % modulus, (c3 + s3) % modulus)
            for s0, s1, s2, s3 in shifts
            for c0, c1, c2, c3 in cells
        ]
        cells += cosets
        members.update(cosets)
    return cells


@lru_cache(maxsize=256)
def _units(m: int) -> tuple[int, ...]:
    """The multipliers t in [1, m] with gcd(t, m) = 1."""
    return tuple(t for t in range(1, m + 1) if gcd(t, m) == 1)


def _count_orbits(cells, modulus) -> int:
    """Number of admissible characters among cells, one scan per Galois orbit.

    Admissibility is a property of the orbit {t*x : gcd(t, m) = 1} of an
    element x of order m (Shioda 1986): x is admissible iff its
    coordinates are nonzero and the lifts of some member do not sum to 2.
    The orbit has phi(m) members. Each orbit is visited once, from its
    first member in cells, and its members are marked seen.
    """
    seen = set()
    count = 0
    twice = 2 * modulus
    for cell in cells:
        if 0 in cell or cell in seen:
            continue
        c0, c1, c2, c3 = cell
        m = modulus // gcd(modulus, c0, c1, c2, c3)
        orbit = [
            ((t * c0) % modulus, (t * c1) % modulus, (t * c2) % modulus, (t * c3) % modulus)
            for t in _units(m)
        ]
        seen.update(orbit)
        if any(sum(member) != twice for member in orbit):
            count += len(orbit)
    return count


@dataclass(frozen=True)
class LatticeGroup:
    """A finite subgroup of (Q/Z)^4 together with its generating set."""

    generators: tuple[QZVec4, ...]
    elements: frozenset


def enumerate_group(generators) -> LatticeGroup:
    """The full finite subgroup generated by the given vectors."""
    generators = tuple(qzvec(g) for g in generators)
    gen_cells, modulus = _numerators(generators)
    elements = frozenset(
        tuple(Fraction(c, modulus) for c in cell)
        for cell in _coset_cells(gen_cells, modulus)
    )
    return LatticeGroup(generators, elements)


def in_lambda(vector) -> bool:
    """Admissibility of a single character vector.

    True iff all four coordinates are nonzero in Q/Z and some t in [1, N]
    with gcd(t, N) = 1 (N the lcm of the coordinate orders; this is
    exactly order preservation) has lifts summing to something other
    than 2.
    """
    vector = qzvec(vector)
    if any(f == 0 for f in vector):
        return False
    m = lcm(*(f.denominator for f in vector))
    cell = [int(f * m) for f in vector]
    return any(sum((t * c) % m for c in cell) != 2 * m for t in _units(m))


def group_order(matrix: ExponentMatrix) -> int:
    """Number of elements of the character group L of the matrix.

    |L| = |det A| / d: L is the image of the sum-zero vectors of Z^4
    under A^-1 modulo Z^4, that is (sum-zero lattice + row lattice of A)
    over the row lattice of A, and these two lattices have index d and
    |det A| in Z^4.
    """
    return abs(matrix.determinant) // matrix.degree


@lru_cache(maxsize=1024)
def lefschetz_number(matrix: ExponentMatrix) -> int:
    """Count of admissible characters in L.

    Raises GroupTooLargeError when |L| exceeds MAX_GROUP_ORDER, and
    GroupOrderError when the number of enumerated elements differs from
    group_order(matrix).
    """
    predicted = group_order(matrix)
    if predicted > MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            f"character group has {predicted} elements, above the cap of {MAX_GROUP_ORDER}"
        )
    gen_cells, modulus = _numerators(lattice_generators(matrix))
    cells = _coset_cells(gen_cells, modulus)
    if len(cells) != predicted:
        raise GroupOrderError(
            f"enumerated {len(cells)} characters, but |det A| / d = {predicted}"
        )
    return _count_orbits(cells, modulus)
