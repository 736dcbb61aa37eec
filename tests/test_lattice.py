import random
from fractions import Fraction
from math import gcd

import pytest

from delsarte import (
    group_order,
    homogenize,
    lattice_generators,
    lefschetz_number,
)
from delsarte import lattice
from delsarte.errors import GroupOrderError, GroupTooLargeError, SingularMatrixError
from delsarte.lattice import ExponentMatrix, _admissible, mat4_adjugate
from delsarte.oracles import mat4_inverse
from delsarte.weierstrass import affine_at
from property_suites import group_elements, leibniz_det, random_matrix, residue

F = Fraction

TERMS_1D_60 = ((0, 0, 0), (60, 3, 0), (0, 3, 0), (0, 0, 2))
TERMS_1A_6 = ((0, 0, 0), (6, 0, 0), (0, 3, 0), (0, 0, 2))

IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# the worked-example matrix at n = 60
A60 = ((0, 0, 63, 0), (3, 0, 0, 60), (3, 0, 60, 0), (0, 2, 61, 0))


def test_homogenize_worked_example():
    matrix = homogenize(TERMS_1D_60)
    assert matrix.degree == 63
    assert set(matrix.rows) == {(0, 0, 63, 0), (3, 0, 0, 60), (3, 0, 60, 0), (0, 2, 61, 0)}


def test_homogenize_simple():
    matrix = homogenize(TERMS_1A_6)
    assert matrix.degree == 6
    assert set(matrix.rows) == {(0, 0, 6, 0), (0, 0, 0, 6), (3, 0, 3, 0), (0, 2, 4, 0)}
    assert matrix.determinant != 0


def test_homogenize_errors():
    with pytest.raises(SingularMatrixError):
        homogenize(((0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)))
    with pytest.raises(ValueError):
        homogenize(((0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 2, 0)))
    with pytest.raises(ValueError):
        homogenize(((0, 0, 0), (0, 1, 0), (0, 2, 0)))


def test_determinant_worked_example():
    matrix = ExponentMatrix(A60, 63)
    assert matrix.determinant == 22680
    assert matrix.adjugate == mat4_adjugate(A60)
    # det A is read off the stored adjugate; check it against the Leibniz sum.
    rng = random.Random(17)
    for _ in range(50):
        matrix = random_matrix(rng)
        assert matrix.determinant == leibniz_det(matrix.rows), matrix.rows


def test_exponent_matrix_equality_ignores_derived_values():
    first = ExponentMatrix(((0, 0, 11, 0), (2, 0, 0, 9), (2, 0, 9, 0), (0, 3, 8, 0)), 11)
    second = ExponentMatrix(first.rows, 11)
    assert first == second and hash(first) == hash(second) and first is not second
    assert first != ExponentMatrix(IDENTITY, 1)
    assert repr(first) == f"ExponentMatrix(rows={first.rows!r}, degree=11)"
    # Equal matrices share one lefschetz_number cache entry.
    before = lefschetz_number.cache_info()
    assert lefschetz_number(first) == lefschetz_number(second)
    after = lefschetz_number.cache_info()
    assert after.hits > before.hits and after.misses <= before.misses + 1


def test_exponent_matrix_constructor_errors():
    with pytest.raises(ValueError, match=r"^expected a 4x4 matrix$"):
        ExponentMatrix(IDENTITY[:3], 1)
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative$"):
        ExponentMatrix(((2, -1, 0, 0),) + IDENTITY[1:], 1)
    with pytest.raises(ValueError, match=r"^every row must sum to the degree$"):
        ExponentMatrix(IDENTITY, 2)
    with pytest.raises(SingularMatrixError, match=r"^exponent matrix is singular"):
        ExponentMatrix((IDENTITY[0],) * 4, 1)


def test_mat4_adjugate_worked_example():
    adj = mat4_adjugate(A60)
    inverse = mat4_inverse(A60)
    assert all(isinstance(x, int) for row in adj for x in row)
    assert adj == tuple(tuple(x * 22680 for x in row) for row in inverse)
    assert mat4_adjugate(IDENTITY) == IDENTITY


def test_mat4_adjugate_random_identity():
    # A adj(A) = adj(A) A = det(A) I, singular matrices included.
    rng = random.Random(13)
    for _ in range(300):
        rows = tuple(tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(4))
        adj = mat4_adjugate(rows)
        det = leibniz_det(rows)
        for i in range(4):
            for j in range(4):
                want = det * int(i == j)
                assert sum(rows[i][k] * adj[k][j] for k in range(4)) == want, rows
                assert sum(adj[i][k] * rows[k][j] for k in range(4)) == want, rows


def test_generators_worked_example():
    gens = lattice_generators(homogenize(TERMS_1D_60))
    assert gens[2] == (F(0), F(59, 60), F(1, 60), F(0))
    assert gens[1] == (F(1, 2), F(59, 60), F(1, 60), F(1, 2))
    assert gens[0] == (F(2, 3), F(59, 60), F(7, 20), F(0))


def test_generators_integral_inverse():
    # X + Y + 1 + t has the identity as exponent matrix, so every
    # generator reduces to zero and the group is trivial.
    matrix = homogenize(((0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 0, 0)))
    gens = lattice_generators(matrix)
    assert all(g == (0, 0, 0, 0) for g in gens)
    assert group_order(matrix) == 1
    assert lefschetz_number(matrix) == 0


def test_generated_group_sizes():
    gens = lattice_generators(homogenize(TERMS_1D_60))
    elements = group_elements(gens)
    assert len(elements) == 360
    assert set(gens) <= elements
    assert (F(0), F(0), F(0), F(0)) in elements

    assert group_elements([(F(1, 2), F(1, 2), 0, 0)]) == {
        (F(0), F(0), F(0), F(0)),
        (F(1, 2), F(1, 2), F(0), F(0)),
    }

    terms_1b_4 = ((0, 0, 0), (4, 1, 0), (0, 3, 0), (0, 0, 2))
    assert group_order(homogenize(terms_1b_4)) == 24


def test_in_lambda_zero_coordinate():
    assert not _admissible((2, 0, 1, 0), 3)


def test_in_lambda_always_two():
    # (1/2, <-i/60>, <i/60>, 1/2): every multiplier sums the lifts to 2
    for i in (1, 2, 7, 30, 59):
        assert not _admissible((30, -i % 60, i, 30), 60)


def test_in_lambda_member():
    gens = lattice_generators(homogenize(TERMS_1D_60))
    v1 = tuple((a - b) % 1 for a, b in zip(gens[0], gens[2]))
    v2 = tuple((a - b) % 1 for a, b in zip(gens[1], gens[2]))
    total = tuple((a + b + c) % 1 for a, b, c in zip(v1, v2, gens[2]))
    assert total == (F(1, 6), F(59, 60), F(7, 20), F(1, 2))
    assert _admissible(tuple(int(f * 60) for f in total), 60)


def test_lefschetz_worked_example():
    assert lefschetz_number(homogenize(TERMS_1D_60)) == 98


def test_lefschetz_family_1a_360():
    terms = ((0, 0, 0), (360, 0, 0), (0, 3, 0), (0, 0, 2))
    assert lefschetz_number(homogenize(terms)) == 648


def test_lefschetz_small_inadmissible():
    # no closed form applies at n = 6; value frozen from the brute-force oracle
    terms = ((0, 0, 0), (6, 3, 0), (0, 3, 0), (0, 0, 2))
    assert lefschetz_number(homogenize(terms)) == 2


# Known reduced generating sets of the character groups of the 11 bundled
# representative families (coordinates follow the catalog term order).
# Both presentations must span the same subgroup of (Q/Z)^4.
def _reduced_generators(n):
    return {
        "1a": [(F(-1, 3), 0, F(1, 3), 0), (F(-1, 2), 0, 0, F(1, 2)), (F(1, n), F(-1, n), 0, 0)],
        "1b": [(F(-1, 2), 0, 0, F(1, 2)), (F(2, 3 * n), F(-1, n), F(1, 3 * n), 0)],
        "1c": [(F(-1, 2), 0, 0, F(1, 2)), (F(1, 3 * n), F(-1, n), F(2, 3 * n), 0)],
        "1d": [(F(-1, 3), 0, F(1, 3), 0), (F(-1, 2), 0, 0, F(1, 2)), (0, F(-1, n), F(1, n), 0)],
        "1g": [(F(-1, 3), F(1, 3), 0, 0), (F(-1, 2), 0, F(1, 2), 0), (0, 0, F(1, n), F(-1, n))],
        "2a": [(F(-3, 4), 0, F(1, 4), F(1, 2)), (F(1, n), F(-1, n), 0, 0)],
        "2b": [(0, F(-1, 2), 0, F(1, 2)), (F(-1, n), F(2, n), F(-1, n), 0)],
        "2e": [(F(1, 4), F(1, 4), F(1, 2), 0), (0, 0, F(1, n), F(-1, n))],
        "3d": [(F(1, 3 * n), F(-1, n), F(1, 3 * n), F(1, 3 * n))],
        "11": [(0, F(1, 2), F(1, 2), 0), (F(-1, n), F(-3, n), F(1, n), F(3, n))],
        "12": [(0, 0, F(1, 2), F(1, 2)), (0, F(1, 2), 0, F(1, 2)), (F(-1, n), F(1, n), F(1, n), F(-1, n))],
    }


def test_reduced_generator_presentations(catalog):
    n = 12
    for rep_id, reduced in _reduced_generators(n).items():
        matrix = homogenize(catalog.family_terms(rep_id, n))
        from_matrix = group_elements(lattice_generators(matrix))
        from_reduced = group_elements([tuple(residue(f) for f in g) for g in reduced])
        assert from_matrix == from_reduced, rep_id


def test_in_lambda_depends_on_coordinate_multiset_only():
    import itertools

    rng = random.Random(3)
    for _ in range(30):
        m = rng.randrange(1, 61)
        cell = tuple(rng.randrange(m) for _ in range(4))
        verdicts = {_admissible(perm, m) for perm in itertools.permutations(cell)}
        assert len(verdicts) == 1, (cell, m)



def test_group_order_from_determinant(catalog):
    # |L| = |det A| / d, e.g. 1b at n = 840: 4238640 / 841 = 5040
    matrix = homogenize(catalog.family_terms("1b", 840))
    assert (abs(matrix.determinant), matrix.degree) == (4238640, 841)
    assert group_order(matrix) == 5040
    for rep, n, order in (("1a", 5760, 34560), ("1b", 13440, 80640), ("1d", 60, 360)):
        assert group_order(homogenize(catalog.family_terms(rep, n))) == order, rep


def test_lefschetz_refuses_groups_above_the_cap():
    matrix = homogenize(((0, 0, 0), (10**6, 3, 0), (0, 3, 0), (0, 0, 2)))
    assert group_order(matrix) == 6 * 10**6 > lattice.MAX_GROUP_ORDER
    with pytest.raises(GroupTooLargeError):
        lefschetz_number(matrix)


def test_lefschetz_checks_enumerated_order(monkeypatch):
    matrix = homogenize(((0, 0, 0), (12, 3, 0), (0, 3, 0), (0, 0, 2)))
    true_order = group_order(matrix)
    lefschetz_number.cache_clear()
    monkeypatch.setattr(lattice, "group_order", lambda m: true_order + 1)
    with pytest.raises(GroupOrderError):
        lefschetz_number(matrix)


def test_lefschetz_checks_basis_orders(monkeypatch):
    # A p-part basis that lost a vector no longer multiplies out to |L|.
    matrix = homogenize(TERMS_1D_60)
    basis = lattice._basis
    lefschetz_number.cache_clear()
    monkeypatch.setattr(lattice, "_basis", lambda cells, q: basis(cells, q)[:-1])
    with pytest.raises(GroupOrderError, match=r"^enumerated \d+ characters, but \|det A\| / d = 360$"):
        lefschetz_number(matrix)


def test_lefschetz_does_not_depend_on_the_memos(catalog):
    # A sweep over n = div*k, k = 1..16, in shuffled order with both caches
    # warming up, against each key with both caches cleared first.
    keys = [
        (rep_id, rep.divisibility * k)
        for rep_id, rep in catalog.representatives.items()
        for k in range(1, 17)
    ]
    random.Random(25).shuffle(keys)
    lefschetz_number.cache_clear()
    _admissible.cache_clear()
    warm = {key: lefschetz_number(homogenize(catalog.family_terms(*key))) for key in keys}
    assert _admissible.cache_info().hits > 0
    for rep_id, n in keys:
        lefschetz_number.cache_clear()
        _admissible.cache_clear()
        cold = lefschetz_number(homogenize(catalog.family_terms(rep_id, n)))
        closed = affine_at(catalog.representative(rep_id).lambda_formula, n)
        assert warm[rep_id, n] == cold == closed, (rep_id, n)


def test_admissible_is_asked_once_per_orbit_over_its_exact_order(catalog, monkeypatch):
    # The memo key is canonical only if each character comes reduced over
    # its exact order m (gcd(m, cell) = 1); one group asks once per orbit.
    asked = []

    def spy(cell, m):
        asked.append((cell, m))
        return _admissible(cell, m)

    monkeypatch.setattr(lattice, "_admissible", spy)
    for rep_id, rep in catalog.representatives.items():
        for k in (1, 2, 4):
            asked.clear()
            lefschetz_number.cache_clear()
            lefschetz_number(homogenize(catalog.family_terms(rep_id, rep.divisibility * k)))
            assert asked and len(set(asked)) == len(asked), rep_id
            for cell, m in asked:
                assert all(0 < c < m for c in cell) and gcd(m, *cell) == 1, (rep_id, cell, m)


def test_admissible_matches_scan_oracle_on_mixed_orders():
    # Random characters over a modulus M whose coordinates have different
    # orders: the oracle scans them over M, the fast test over their exact
    # order, asked twice so the second answer comes from the memo.
    from delsarte.oracles import _scan_admissible

    rng = random.Random(2510)
    admissible = 0
    for _ in range(1500):
        modulus = rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16, 20, 24, 30, 36, 60, 72, 120, 360))
        divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
        # Each coordinate u/d with d a random divisor of M, written over M.
        cell = []
        for _ in range(4):
            d = rng.choice(divisors)
            cell.append(modulus // d * rng.randrange(d))
        if rng.random() < 0.2:
            cell[rng.randrange(4)] = 0
        m = modulus // gcd(modulus, *cell)
        reduced = tuple(c * m // modulus for c in cell)
        want = _scan_admissible(*cell, modulus)
        assert _admissible(reduced, m) == _admissible(reduced, m) == want, (cell, modulus)
        admissible += want
    assert 0 < admissible < 1500


def test_lefschetz_matches_closed_forms_at_large_n(catalog):
    # n = div * k for k = 1..16 reaches |L| = 80640 (1b at n = 13440).
    checked = 0
    for rep_id, rep in catalog.representatives.items():
        for k in range(1, 17):
            n = rep.divisibility * k
            lam = lefschetz_number(homogenize(catalog.family_terms(rep_id, n)))
            assert lam == affine_at(rep.lambda_formula, n), (rep_id, n, lam)
            checked += 1
    assert checked == 176


def test_admissible_half_scan_matches_naive_member():
    # Every cell over m = 1..4, then random cells over m = 5..60, a quarter
    # of them with a zero coordinate forced in.
    import itertools

    from delsarte.oracles import _naive_member

    cases = [
        (cell, m) for m in (1, 2, 3, 4) for cell in itertools.product(range(m), repeat=4)
    ]
    rng = random.Random(60)
    while len(cases) < 2000:
        m = rng.randrange(5, 61)
        cell = [rng.randrange(m) for _ in range(4)]
        if rng.random() < 0.25:
            cell[rng.randrange(4)] = 0
        cases.append((tuple(cell), m))
    admissible = 0
    for cell, m in cases:
        verdict = lattice._admissible(cell, m)
        assert verdict == _naive_member(tuple(F(c, m) for c in cell)), (cell, m)
        admissible += verdict
    assert 0 < admissible < len(cases)
