import random
from fractions import Fraction
from math import gcd, prod

import pytest

from delsarte import group_order, homogenize, lattice_counts, lattice_generators, lefschetz_number
from delsarte import lattice
from delsarte.errors import GroupTooLargeError, SingularMatrixError
from delsarte.lattice import _basis, _generator_cells, _orbit_normal_forms, _prime_powers
from delsarte.oracles import (
    _numerators,
    brute_lambda,
    class_census,
    closure_cells,
    gauss_jordan_generators,
    interior_scan,
    mat4_inverse,
    one_interior_polygons,
    prime_gap_scan,
    row_vec_apply,
    scan_lambda,
    scan_points,
)
from delsarte.polygon import _census_search
from property_suites import leibniz_det, random_matrix

F = Fraction

IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# the worked-example matrix at n = 60
A60 = ((0, 0, 63, 0), (3, 0, 0, 60), (3, 0, 60, 0), (0, 2, 61, 0))


def test_mat4_inverse_identity():
    assert mat4_inverse(IDENTITY) == tuple(tuple(map(F, row)) for row in IDENTITY)


def test_mat4_inverse_worked_example():
    inverse = mat4_inverse(A60)
    assert inverse[0] == (F(-20, 63), F(0), F(1, 3), F(0))
    # exact two-sided identity
    for i in range(4):
        for j in range(4):
            assert sum(A60[i][k] * inverse[k][j] for k in range(4)) == int(i == j)


def test_mat4_inverse_singular():
    rows = ((1, 2, 3, 4), (1, 2, 3, 4), (0, 1, 0, 0), (0, 0, 1, 0))
    assert leibniz_det(rows) == 0
    with pytest.raises(SingularMatrixError):
        mat4_inverse(rows)


def test_mat4_inverse_random_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 50:
        rows = tuple(tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(4))
        if leibniz_det(rows) == 0:
            continue
        inverse = mat4_inverse(rows)
        for i in range(4):
            for j in range(4):
                assert sum(rows[i][k] * inverse[k][j] for k in range(4)) == int(i == j)
        done += 1


def test_row_vec_apply():
    inverse = mat4_inverse(A60)
    assert row_vec_apply((0, 0, 1, -1), inverse) == (F(0), F(59, 60), F(1, 60), F(0))
    assert row_vec_apply((1, 0, 0, -1), inverse) == (F(2, 3), F(59, 60), F(7, 20), F(0))
    identity = mat4_inverse(IDENTITY)
    assert row_vec_apply((2, -1, 7, 5), identity) == (F(0), F(0), F(0), F(0))
    assert row_vec_apply((1, 0, 0, -1), identity) == (F(0), F(0), F(0), F(0))


def test_brute_matches_main_on_fixed_cases(catalog):
    cases = [
        ("1d", 6),   # frozen: 2
        ("1d", 60),  # 2n - 22
        ("2b", 12),  # n - 6
        ("1g", 6),
        ("12", 2),
    ]
    for family, n in cases:
        matrix = homogenize(catalog.family_terms(family, n))
        assert brute_lambda(matrix) == lefschetz_number(matrix), (family, n)
    assert brute_lambda(homogenize(catalog.family_terms("1d", 6))) == 2
    assert brute_lambda(homogenize(catalog.family_terms("2b", 12))) == 6


def test_brute_zero_when_all_elements_have_zero_coordinate():
    # X + Y + 1 + t: trivial group, so lambda = 0
    matrix = homogenize(((0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 0, 0)))
    assert brute_lambda(matrix) == 0


def test_brute_refuses_groups_above_the_cap():
    # 1 + t^1000000 X^3 + X^3 + Y^2 has |L| = 6 * 10**6; the refusal comes
    # before any enumeration, so it is immediate.
    matrix = homogenize(((0, 0, 0), (10**6, 3, 0), (0, 3, 0), (0, 0, 2)))
    assert group_order(matrix) > lattice.MAX_GROUP_ORDER
    with pytest.raises(GroupTooLargeError):
        brute_lambda(matrix)


def test_brute_matches_main_on_random_matrices():
    from delsarte import group_order

    rng = random.Random(23)
    for _ in range(25):
        matrix = random_matrix(rng)
        lam = lefschetz_number(matrix)
        assert brute_lambda(matrix) == lam, matrix.rows
        assert 0 <= lam <= group_order(matrix)


def test_adjugate_generators_match_gauss_jordan(catalog):
    rng = random.Random(29)
    matrices = [random_matrix(rng, max_exp=8) for _ in range(300)]
    matrices += [
        homogenize(catalog.family_terms(row.id, row.table_n)) for row in catalog.rows.values()
    ]
    assert len(matrices) == 342
    for matrix in matrices:
        reference = gauss_jordan_generators(matrix)
        assert _generator_cells(matrix) == _numerators(reference), matrix.rows
        assert lattice_generators(matrix) == reference, matrix.rows


def _random_closures(seed, count=400):
    """(matrix, BFS closure of the Gauss-Jordan generators, modulus), exponents < 9."""
    rng = random.Random(seed)
    for _ in range(count):
        matrix = random_matrix(rng, max_exp=8)
        closure, modulus = closure_cells(gauss_jordan_generators(matrix))
        yield matrix, closure, modulus


def test_lefschetz_matches_full_scan_of_closure():
    for matrix, closure, modulus in _random_closures(31):
        assert lefschetz_number(matrix) == scan_lambda(closure, modulus), matrix.rows


def test_lefschetz_matches_brute_lambda_on_larger_exponents():
    # Exponents < 12 give groups of up to ~1000 elements. brute_lambda
    # closes and scans each of them in milliseconds, so every group drawn
    # is checked, the large ones included.
    rng = random.Random(53)
    checked = admissible = 0
    while checked < 300:
        matrix = random_matrix(rng, max_exp=11)
        lam = lefschetz_number(matrix)
        assert brute_lambda(matrix) == lam, matrix.rows
        checked += 1
        admissible += lam > 0
    assert admissible > 200


def _p_part_closures(matrix):
    """(q, p, basis, BFS closure of the generators mod q as cells over q) per p-part."""
    gen_cells, modulus = _generator_cells(matrix)
    for q, p in _prime_powers(modulus):
        closure, closure_modulus = closure_cells(
            [tuple(Fraction(c % q, q) for c in cell) for cell in gen_cells]
        )
        scale = q // closure_modulus
        cells = {tuple(scale * c for c in cell) for cell in closure}
        yield q, p, _basis(gen_cells, q), cells


def test_basis_orders_multiply_to_p_part_order():
    for matrix, closure, _ in _random_closures(43):
        total = 1
        for q, _, basis, cells in _p_part_closures(matrix):
            assert prod(order for _, order in basis) == len(cells), (matrix.rows, q)
            total *= len(cells)
        assert total == group_order(matrix) == len(closure), matrix.rows


def test_orbit_normal_forms_partition_closure():
    # Each representative's orbit {t r : p does not divide t}, expanded by
    # brute unit multiplication, has phi(ord r) members; the orbits are
    # disjoint and cover the p-part.
    for matrix, _, _ in _random_closures(37):
        for q, p, basis, cells in _p_part_closures(matrix):
            covered = set()
            for cell, order, size in _orbit_normal_forms(basis, q, p):
                assert order == q // gcd(q, *cell), (matrix.rows, q, cell)
                orbit = {tuple(t * c % q for c in cell) for t in range(1, q + 1) if t % p}
                phi = sum(1 for t in range(1, order + 1) if gcd(t, order) == 1)
                assert len(orbit) == size == phi, (matrix.rows, q, cell)
                assert covered.isdisjoint(orbit), (matrix.rows, q, cell)
                covered |= orbit
            assert covered == cells, (matrix.rows, q)


def test_group_order_is_enumerated_size():
    for matrix, closure, _ in _random_closures(41):
        assert group_order(matrix) == len(closure), matrix.rows


def test_interior_scan_examples():
    assert interior_scan(((0, 0), (3, 0), (0, 2))) == (1, 6)
    assert interior_scan(((0, 0), (1, 0), (0, 1))) == (0, 3)
    hexagon = ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))
    assert interior_scan(hexagon)[0] == 1


def test_scan_agrees_with_counts_on_table_hulls(catalog):
    from delsarte import convex_hull

    for row_id in catalog.rows:
        hull = convex_hull(catalog.support(row_id))
        interior, boundary, _ = lattice_counts(hull)
        assert interior_scan(hull) == (interior, boundary), row_id


def test_scan_points_partition():
    interior, boundary = scan_points(((0, 0), (3, 0), (0, 2)))
    assert interior == [(1, 1)]
    assert len(boundary) == 6
    assert set(boundary).isdisjoint(interior)


def test_prime_gap_scan():
    assert prime_gap_scan(51) == [6, 12, 30]
    assert prime_gap_scan(200) == [6, 12, 30]
    assert 36 not in prime_gap_scan(200)  # p = 11 works: 33 < 36 and 11 does not divide 36
    with pytest.raises(ValueError):
        prime_gap_scan(3)


def test_census_search_matches_exhaustive_scan():
    for bound in (3, 4):
        assert _census_search(bound) == one_interior_polygons(bound), bound


def test_class_census():
    classes, histogram = class_census(4)
    assert len(classes) == 16
    assert histogram == {3: 5, 4: 7, 5: 3, 6: 1}
    assert sum(count for corners, count in histogram.items() if corners <= 4) == 12
