"""Exact arithmetic: Q/Z residues and 4x4 integer and rational linear algebra.

Residues of Q/Z are plain ``fractions.Fraction`` values reduced into
[0, 1); ``Fraction`` already keeps numerator/denominator coprime with a
positive denominator, so the canonical form is free. No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError

#: A residue in Q/Z: a Fraction in [0, 1).
QZ = Fraction

#: An element of (Q/Z)^4: a 4-tuple of QZ.
QZVec4 = tuple


def qz(num, den=1) -> QZ:
    """Reduce num/den into the canonical representative in [0, 1).

    A zero denominator raises ZeroDivisionError.
    """
    return Fraction(num, den) % 1


def qzvec(coords) -> QZVec4:
    """Normalize a length-4 iterable of rationals into (Q/Z)^4."""
    vec = tuple(Fraction(c) % 1 for c in coords)
    if len(vec) != 4:
        raise ValueError(f"expected 4 coordinates, got {len(vec)}")
    return vec


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat4_det(rows) -> int:
    """Determinant of a 4x4 integer matrix, computed exactly."""
    det = 0
    for col in range(4):
        minor = [[rows[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        term = rows[0][col] * _det3(minor)
        det += term if col % 2 == 0 else -term
    return det


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


def mat4_inverse(rows):
    """Exact inverse of a 4x4 matrix as a tuple of Fraction rows.

    Raises SingularMatrixError when the determinant vanishes.
    """
    work = [[Fraction(rows[i][j]) for j in range(4)] for i in range(4)]
    inv = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for col in range(4):
        pivot = next((r for r in range(col, 4) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(4):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(r) for r in inv)


def row_vec_apply(vec, matrix) -> QZVec4:
    """Row vector times 4x4 matrix, each entry reduced into [0, 1)."""
    return tuple(
        sum(Fraction(vec[k]) * matrix[k][j] for k in range(4)) % 1 for j in range(4)
    )
