"""Exponent matrices of four-term polynomials and their character groups.

A four-term polynomial sum of t^a X^b Y^c homogenizes to a surface in P^3
whose exponents form a 4x4 matrix A (columns X, Y, Z, T; every row sums
to the degree). When A is nonsingular, the rows (1,0,0,-1)A^-1,
(0,1,0,-1)A^-1 and (0,0,1,-1)A^-1 generate a finite subgroup L of
(Q/Z)^4. Since A^-1 = adj(A) / det A, the generators are integer
numerators over |det A|, taken straight from the integer adjugate. Each
matrix carries its adjugate, computed once on construction, and reads
det A off it by Laplace expansion along row 0. The Lefschetz number of
the surface is the number of elements of L with all four coordinates
nonzero for which some integer t, preserving every coordinate order,
makes the fractional lifts of the scaled coordinates sum to something
other than 2.

|L| is |det A| / d. The Lefschetz number never enumerates L: it splits
L into its p-parts L_p, row-reduces the generators to a basis of each,
checks the product of the basis orders against |det A| / d, reads one
representative per Galois orbit of each L_p off its basis, and tests
one character per Galois orbit of L, since admissibility is constant on
orbits and the orbits of L are the products of the orbits of the L_p.

Each orbit representative is tested at most once per process while the
cache holds it. The admissibility test is memoized (an LRU cache of 4096
entries) on the character written over its exact order, cell/m with
cell in [0, m)^4, which is canonical: the same character met in another
group has the same key and is not tested again. The bundled families'
group at n lies in their group at 2n, and the two normal forms mostly
pick the same representative for an orbit, so a sweep over n = div*k,
k = 1, 2, 4, 8, 16 asks 1590 times about 434 distinct keys, which cover
431 orbits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import GroupOrderError, GroupTooLargeError, SingularMatrixError

#: One exponent triple (t_exp, x_exp, y_exp).
Term = tuple[int, int, int]


def validate_terms(terms) -> tuple[Term, ...]:
    """Check and canonicalize a four-term support: four distinct nonnegative triples."""
    terms = tuple((int(a), int(b), int(c)) for a, b, c in terms)
    if len(terms) != 4:
        raise ValueError(f"need exactly 4 terms, got {len(terms)}")
    if len(set(terms)) != 4:
        raise ValueError("repeated identical monomial")
    if any(e < 0 for term in terms for e in term):
        raise ValueError("exponents must be nonnegative")
    return terms


def mat4_adjugate(rows):
    """Adjugate of a 4x4 integer matrix as a tuple of integer rows.

    adj(A)[i][j] is the (j, i) cofactor, so A * adj(A) = det(A) * I and,
    for nonsingular A, the inverse is adj(A) / det(A). Each cofactor is
    expanded along the 2x2 minors of rows 0-1 (s) and rows 2-3 (t).
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    return (
        (b1 * t23 - b2 * t13 + b3 * t12, -a1 * t23 + a2 * t13 - a3 * t12,
         d1 * s23 - d2 * s13 + d3 * s12, -c1 * s23 + c2 * s13 - c3 * s12),
        (-b0 * t23 + b2 * t03 - b3 * t02, a0 * t23 - a2 * t03 + a3 * t02,
         -d0 * s23 + d2 * s03 - d3 * s02, c0 * s23 - c2 * s03 + c3 * s02),
        (b0 * t13 - b1 * t03 + b3 * t01, -a0 * t13 + a1 * t03 - a3 * t01,
         d0 * s13 - d1 * s03 + d3 * s01, -c0 * s13 + c1 * s03 - c3 * s01),
        (-b0 * t12 + b1 * t02 - b2 * t01, a0 * t12 - a1 * t02 + a2 * t01,
         -d0 * s12 + d1 * s02 - d2 * s01, c0 * s12 - c1 * s02 + c2 * s01),
    )


class ExponentMatrix:
    """4x4 matrix of homogenized exponents, columns ordered (X, Y, Z, T).

    ``adjugate`` is computed once on construction and ``determinant`` is
    read off it (row 0 of A times column 0 of adj A). Equality, hashing
    and repr use (rows, degree) only, so equal matrices share a
    lefschetz_number cache entry.
    """

    __slots__ = ("rows", "degree", "adjugate", "determinant")

    def __init__(self, rows, degree):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        if any(e < 0 for row in rows for e in row):
            raise ValueError("exponents must be nonnegative")
        if any(sum(row) != degree for row in rows):
            raise ValueError("every row must sum to the degree")
        adjugate = mat4_adjugate(rows)
        determinant = sum(a * row[0] for a, row in zip(rows[0], adjugate))
        if determinant == 0:
            raise SingularMatrixError(
                "exponent matrix is singular; the character-group method does not apply"
            )
        self.rows = rows
        self.degree = degree
        self.adjugate = adjugate
        self.determinant = determinant

    def __eq__(self, other):
        return type(other) is ExponentMatrix and self.rows == other.rows and self.degree == other.degree

    def __hash__(self):
        return hash((self.rows, self.degree))

    def __repr__(self):
        return f"ExponentMatrix(rows={self.rows!r}, degree={self.degree!r})"


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


def _generator_cells(matrix: ExponentMatrix):
    """The three generators of L as numerator 4-tuples over their common denominator.

    The generator (e_i - e_4) A^-1 is (adj[i] - adj[3]) / det A, which
    reduces to the numerators sign(det A) * (adj[i] - adj[3]) mod |det A|.
    Dividing them and |det A| by their common gcd leaves the least common
    denominator. Returns (numerator tuples, modulus); cell[j]/modulus is
    the j-th coordinate, in [0, 1).
    """
    adj = matrix.adjugate
    det = matrix.determinant
    size = abs(det)
    sign = 1 if det > 0 else -1
    last = adj[3]
    cells = [
        tuple((sign * (a - b)) % size for a, b in zip(adj[i], last)) for i in range(3)
    ]
    g = gcd(size, *(c for cell in cells for c in cell))
    return [tuple(c // g for c in cell) for cell in cells], size // g


def lattice_generators(matrix: ExponentMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """The three generators of L, reduced coordinatewise into [0, 1)."""
    cells, modulus = _generator_cells(matrix)
    return tuple(tuple(Fraction(c, modulus) for c in cell) for cell in cells)


#: Largest |L| that lefschetz_number accepts. The largest group of the
#: bundled table and benchmark cases has 80640 elements; a group above the
#: cap raises GroupTooLargeError (CLI exit 3) before anything is built.
MAX_GROUP_ORDER = 10**6


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """The pairs (q, p) with q = p^k the exact power of the prime p dividing n, by trial division."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            factors.append((q, p))
        p += 1
    if n > 1:
        factors.append((n, n))
    return factors


def _basis(gen_cells, q):
    """A basis of the group the cells generate over q = p^k, as (cell, order) pairs.

    Row reduction over Z/q: the pivot is an entry of least p-valuation
    among the rows left, its row is scaled so the pivot becomes
    p^v = gcd(pivot, q), and the pivot's column is cleared in the rows
    left (exactly, since their entries have valuation at least v). Every
    entry of the pivot row is a multiple of p^v, so the row has order
    q / p^v, and each later row is zero in every earlier pivot column, so
    the group is the direct sum of the cyclic groups of the rows. Orders
    come out descending.
    """
    rows = [[c % q for c in cell] for cell in gen_cells]
    basis = []
    while True:
        rows = [row for row in rows if any(row)]
        if not rows:
            return basis
        pivot, r, col = min(
            (gcd(c, q), r, col)
            for r, row in enumerate(rows)
            for col, c in enumerate(row)
            if c
        )
        row = rows.pop(r)
        inverse = pow(row[col] // pivot, -1, q)
        row = [c * inverse % q for c in row]
        for other in rows:
            factor = other[col] // pivot
            for j in range(4):
                other[j] = (other[j] - factor * row[j]) % q
        basis.append((tuple(row), q // pivot))


def _orbit_normal_forms(basis, q, p):
    """One (cell, order, orbit size) per Galois orbit of a p-group over q = p^k.

    With basis (b_i, o_i), an element x = sum a_i b_i has order p^s, the
    largest of the orders p^s_i of its coefficients a_i in Z/o_i. Its
    orbit {t x : p does not divide t} has phi(p^s) members and exactly
    one in normal form: at the first index i* with s_i* = s the
    coefficient is o_i* / p^s, earlier coefficients have order below p^s
    and later ones at most p^s. The zero element is its own orbit.
    """
    representatives = [((0, 0, 0, 0), 1, 1)]
    top = basis[0][1] if basis else 1
    ps = p
    while ps <= top:
        for star, (_, star_order) in enumerate(basis):
            if star_order < ps:
                continue
            choices = []
            for i, (_, order) in enumerate(basis):
                if i == star:
                    choices.append((star_order // ps,))
                else:
                    # Coefficients of order at most `bound`: multiples of order / bound.
                    bound = min(order, ps // p if i < star else ps)
                    choices.append(range(0, order, order // bound))
            for coefficients in product(*choices):
                x0 = x1 = x2 = x3 = 0
                for a, ((b0, b1, b2, b3), _) in zip(coefficients, basis):
                    x0 += a * b0
                    x1 += a * b1
                    x2 += a * b2
                    x3 += a * b3
                representatives.append(((x0 % q, x1 % q, x2 % q, x3 % q), ps, ps - ps // p))
        ps *= p
    return representatives


@lru_cache(maxsize=1 << 12)
def _admissible(cell, m) -> bool:
    """Admissibility of the character cell/m of order m.

    False when a coordinate is zero, and False when the coordinates pair
    off as c_i + c_j = c_k + c_l = 0 mod m: for every unit t each pair's
    lifts then sum to 1. Otherwise the units t <= m // 2 of Z/m are
    scanned upward, and the answer is True at the first t whose lifts
    <t*c_i/m> do not sum to 2 (integer compare: residues against 2m).

    Half the units suffice. With every c_i nonzero mod m and t a unit,
    every t*c_i is nonzero mod m, so <-t*c_i/m> = 1 - <t*c_i/m> and the
    lifts at m - t sum to 4 minus the lifts at t: one sum is 2 exactly
    when the other is. For m > 2 the units pair off as t and m - t with
    exactly one of each pair at most m // 2; for m = 2 the only unit is 1.

    Memoized: lefschetz_number passes each character over its exact
    order, the canonical key, so a character tested for one group is not
    tested again for another.
    """
    if 0 in cell:
        return False
    c0, c1, c2, c3 = cell
    if (
        (c0 + c1 == m and c2 + c3 == m)
        or (c0 + c2 == m and c1 + c3 == m)
        or (c0 + c3 == m and c1 + c2 == m)
    ):
        return False
    twice = 2 * m
    for t in range(1, m // 2 + 1):
        if gcd(t, m) == 1 and (t * c0) % m + (t * c1) % m + (t * c2) % m + (t * c3) % m != twice:
            return True
    return False


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
    """Count of admissible characters in L, one test per Galois orbit.

    The modulus M of the generators is the exponent of L. For each prime
    power q = p^k exactly dividing M, the generators mod q row-reduce to
    a basis of the p-part L_p, and prod |L_p| (the product of the basis
    orders) is checked against group_order(matrix). One representative
    r_p per Galois orbit of each L_p is read off the basis, as a cell over
    its own order. By the CRT, (Z/M)^* = prod (Z/q)^* and L = sum L_p, so
    each Galois orbit {t x : gcd(t, M) = 1} of L is a product of orbits of
    the L_p, with representative x = sum r_p, order prod ord r_p and
    prod phi(ord r_p) members. Products are combined over their orders,
    x/m + y/o = (x*o + y*m)/(m*o), so the cell of x over its order is a
    reduction mod that order. Admissibility is constant on an orbit
    (Shioda 1986), so each x is tested once, and built only when no
    coordinate is zero: the zero coordinates of x are those zero in every
    r_p, so the zero masks of its factors share a bit. The p-parts are
    combined smallest first, and the products with the last one are built
    only for the factors whose masks share no bit.

    The test itself is memoized on (cell, order), the canonical form of
    the character, so a representative already tested in this process,
    at this n or another, is not tested again while the bounded cache
    (4096 entries) holds it.

    Raises GroupTooLargeError when |L| exceeds MAX_GROUP_ORDER, and
    GroupOrderError when prod |L_p| differs from group_order(matrix).
    """
    predicted = group_order(matrix)
    if predicted > MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            f"character group has {predicted} elements, above the cap of {MAX_GROUP_ORDER}"
        )
    gen_cells, modulus = _generator_cells(matrix)
    enumerated = 1
    # One list per p-part: (cell over its order, order, orbit size, zero mask).
    parts = []
    for q, p in _prime_powers(modulus):
        basis = _basis(gen_cells, q)
        for _, order in basis:
            enumerated *= order
        # Each representative over its own order: its cell over q is a
        # multiple of q / order.
        parts.append([
            ((c0 // (q // order), c1 // (q // order), c2 // (q // order), c3 // (q // order)),
             order, size, (c0 == 0) | (c1 == 0) << 1 | (c2 == 0) << 2 | (c3 == 0) << 3)
            for (c0, c1, c2, c3), order, size in _orbit_normal_forms(basis, q, p)
        ])
    if enumerated != predicted:
        raise GroupOrderError(
            f"enumerated {enumerated} characters, but |det A| / d = {predicted}"
        )
    if not parts:  # M = 1: L is trivial
        return 0
    parts.sort(key=len)
    # Products of all p-parts but the last, each cell over its own order m:
    # x/m + y/o = (x*o + y*m) / (m*o), and m*o is the order since gcd(m, o) = 1.
    products = [((0, 0, 0, 0), 1, 1, 0b1111)]
    for part in parts[:-1]:
        products = [
            ((x0 * o + y0 * m, x1 * o + y1 * m, x2 * o + y2 * m, x3 * o + y3 * m),
             m * o, members * size, mask & bits)
            for (x0, x1, x2, x3), m, members, mask in products
            for (y0, y1, y2, y3), o, size, bits in part
        ]
    # The last p-part completes each product; only those with no zero
    # coordinate (an empty zero mask) are built and tested.
    last = parts[-1]
    count = 0
    for (x0, x1, x2, x3), m, members, mask in products:
        for (y0, y1, y2, y3), o, size, bits in last:
            if mask & bits:
                continue
            order = m * o
            cell = ((x0 * o + y0 * m) % order, (x1 * o + y1 * m) % order,
                    (x2 * o + y2 * m) % order, (x3 * o + y3 * m) % order)
            if _admissible(cell, order):
                count += members * size
    return count
