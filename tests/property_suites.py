"""Randomized property suites, shared by test_properties and the
acceptance criterion that reruns them at >= 100 cases each.

Each suite returns the number of cases exercised; failures raise
AssertionError. Seeds are fixed by the callers for reproducibility.
"""

import random
from fractions import Fraction

from delsarte import (
    UnimodularAffineMap,
    convex_hull,
    homogenize,
    integral_equivalence,
    lattice_counts,
    lattice_generators,
    lefschetz_number,
    to_default_position,
)
from itertools import permutations

from delsarte.errors import DegenerateSupportError, SingularMatrixError
from delsarte.lattice import ExponentMatrix, _admissible
from delsarte.oracles import closure_cells, scan_points


def residue(num, den=1):
    """num/den reduced into its representative of Q/Z in [0, 1)."""
    return Fraction(num, den) % 1


def leibniz_det(rows):
    """Determinant of a square integer matrix as the Leibniz sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = -1 if inversions % 2 else 1
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def random_matrix(rng, max_exp=3):
    """A random valid exponent matrix with small entries."""
    while True:
        terms = set()
        while len(terms) < 4:
            terms.add(
                (rng.randrange(0, max_exp + 1), rng.randrange(0, max_exp + 1), rng.randrange(0, max_exp + 1))
            )
        try:
            return homogenize(tuple(terms))
        except SingularMatrixError:
            continue


def random_unimodular(rng, shear_range=3, shift_range=5):
    matrix = ((1, 0), (0, 1))

    def mul(m1, m2):
        (a, b), (c, d) = m1
        (e, f), (g, h) = m2
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))

    for _ in range(rng.randrange(1, 5)):
        k = rng.randrange(-shear_range, shear_range + 1)
        elementary = rng.choice(
            [((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]
        )
        matrix = mul(matrix, elementary)
    shift = (rng.randrange(-shift_range, shift_range + 1), rng.randrange(-shift_range, shift_range + 1))
    return UnimodularAffineMap(matrix, shift)


def random_polygon(rng, span=6, max_points=8):
    while True:
        points = {
            (rng.randrange(0, span + 1), rng.randrange(0, span + 1))
            for _ in range(rng.randrange(3, max_points + 1))
        }
        try:
            return convex_hull(points)
        except DegenerateSupportError:
            continue


def group_elements(generators):
    """Every element of the group the generators span in (Q/Z)^4, as Fraction 4-tuples."""
    cells, modulus = closure_cells(generators)
    return {tuple(Fraction(c, modulus) for c in cell) for cell in cells}


def negation_symmetry_suite(cases, seed=0):
    """A character cell/m and its negation are both admissible or both not,
    on random cells and on group elements."""
    rng = random.Random(seed)
    ran = 0
    for _ in range(cases // 2):
        m = rng.randrange(1, 61)
        cell = tuple(rng.randrange(m) for _ in range(4))
        neg = tuple(-c % m for c in cell)
        assert _admissible(cell, m) == _admissible(neg, m), (cell, m)
        ran += 1
    while ran < cases:
        matrix = random_matrix(rng)
        cells, modulus = closure_cells(lattice_generators(matrix))
        for cell in sorted(cells):
            neg = tuple(-c % modulus for c in cell)
            assert _admissible(cell, modulus) == _admissible(neg, modulus), (matrix.rows, cell)
            ran += 1
            if ran >= cases:
                break
    return ran


def permutation_invariance_suite(cases, seed=1):
    """lefschetz_number is stable under row and column permutations."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        matrix = random_matrix(rng)
        lam = lefschetz_number(matrix)
        rows = list(matrix.rows)
        perm = rng.sample(range(4), 4)
        permuted_rows = ExponentMatrix(tuple(rows[i] for i in perm), matrix.degree)
        assert lefschetz_number(permuted_rows) == lam, matrix.rows
        perm = rng.sample(range(4), 4)
        permuted_cols = ExponentMatrix(
            tuple(tuple(row[j] for j in perm) for row in rows), matrix.degree
        )
        assert lefschetz_number(permuted_cols) == lam, matrix.rows
        ran += 2
    return ran


def coordinate_sum_suite(cases, seed=2):
    """Every element of every generated group has coordinates summing to 0 mod 1."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        matrix = random_matrix(rng)
        for vec in group_elements(lattice_generators(matrix)):
            total = sum(vec)
            assert total.denominator == 1, (matrix.rows, vec)
            ran += 1
            if ran >= cases:
                break
    return ran


def equivalence_relation_suite(cases, seed=3):
    """Reflexive/symmetric/transitive witnesses; invariants preserved;
    witness maps the full lattice point set onto the full lattice point set."""
    rng = random.Random(seed)
    for _ in range(cases):
        poly = random_polygon(rng)
        assert integral_equivalence(poly, poly) is not None

        image_map = random_unimodular(rng)
        image = convex_hull([image_map.apply(p) for p in poly])
        witness = integral_equivalence(poly, image)
        assert witness is not None, (poly, image_map)
        back = integral_equivalence(image, poly)
        assert back is not None

        third_map = random_unimodular(rng)
        third = convex_hull([third_map.apply(p) for p in image])
        assert integral_equivalence(poly, third) is not None

        li, lb, la = lattice_counts(poly)
        ri, rb, ra = lattice_counts(image)
        assert (li, lb, la, len(poly)) == (ri, rb, ra, len(image))

        src_interior, src_boundary = scan_points(poly)
        dst_interior, dst_boundary = scan_points(image)
        mapped = {witness.apply(p) for p in src_interior + src_boundary}
        assert mapped == set(dst_interior + dst_boundary), (poly, image)
    return cases


def hull_commutation_suite(cases, seed=4):
    """Transforming a support then taking hulls equals mapping the hull
    and shifting to default position."""
    rng = random.Random(seed)
    ran = 0
    while ran < cases:
        points = {
            (rng.randrange(0, 7), rng.randrange(0, 7)) for _ in range(rng.randrange(3, 9))
        }
        try:
            hull = convex_hull(points)
        except DegenerateSupportError:
            continue
        umap = random_unimodular(rng)
        lhs = convex_hull(to_default_position([umap.apply(p) for p in points]))
        rhs = to_default_position(convex_hull([umap.apply(p) for p in hull]))
        assert lhs == rhs, (sorted(points), umap)
        ran += 1
    return ran
