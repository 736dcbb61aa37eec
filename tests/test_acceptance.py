"""Acceptance suite: one test per criterion, exact expectations, stated
time budgets. Each test prints a one-line summary (visible with -s; the
verbose test status line carries the same verdict either way).
"""

import time
from fractions import Fraction

from delsarte import (
    convex_hull,
    discriminant,
    enumerate_one_interior_classes,
    homogenize,
    integral_equivalence,
    j_invariant,
    lattice_counts,
    lefschetz_number,
)
from delsarte.cli import main
from delsarte.oracles import brute_lambda, class_census, interior_scan, prime_gap_scan
from delsarte.weierstrass import affine_at
from property_suites import (
    coordinate_sum_suite,
    equivalence_relation_suite,
    hull_commutation_suite,
    negation_symmetry_suite,
    permutation_invariance_suite,
)

# (representative, table parameter n) -> expected maximal rank
REPRESENTATIVE_RANKS = {
    ("1a", 360): 68,
    ("1b", 840): 56,
    ("1c", 20): 9,
    ("1d", 60): 18,
    ("1g", 6): 4,
    ("2a", 24): 24,
    ("2b", 12): 3,
    ("2e", 12): 6,
    ("3d", 2): 1,
    ("11", 120): 18,
    ("12", 2): 0,
}


def _report(number, name, detail):
    print(f"criterion {number:02d} ({name}): PASS [{detail}]")


def test_criterion_01_worked_example(catalog):
    start = time.perf_counter()
    report = catalog.representative_rank("1d", 60)
    elapsed = time.perf_counter() - start
    assert report.lefschetz == 98
    assert report.h2 == 238
    assert report.rho_triv == 122
    assert report.rank == 18
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, "worked example", f"lambda=98 h2=238 rho=122 rank=18 in {elapsed:.3f}s")


def test_criterion_02_representative_ranks(catalog):
    worst = 0.0
    for (rep_id, n), expected in REPRESENTATIVE_RANKS.items():
        start = time.perf_counter()
        report = catalog.representative_rank(rep_id, n)
        elapsed = time.perf_counter() - start
        assert report.rank == expected, (rep_id, n, report.rank, expected)
        assert all(ok for _, ok in report.checks), (rep_id, n, report.checks)
        assert elapsed < 30.0, f"{rep_id} at {n} took {elapsed:.2f}s"
        worst = max(worst, elapsed)
    big = catalog.representative_rank("1b", 840)
    assert big.group_order == 5040
    _report(2, "representative ranks", f"11 families, worst case {worst:.2f}s")


def test_criterion_03_lambda_closed_forms(catalog):
    checked = 0
    for rep_id, rep in catalog.representatives.items():
        formula = rep.lambda_formula
        for n in (rep.divisibility, 2 * rep.divisibility):
            lam = lefschetz_number(homogenize(catalog.family_terms(rep_id, n)))
            assert lam == affine_at(formula, n), (rep_id, n, lam)
            checked += 1
        off = 7  # 7 divides none of the divisibility requirements
        assert off % rep.divisibility != 0
        lam = lefschetz_number(homogenize(catalog.family_terms(rep_id, off)))
        assert lam != affine_at(formula, off), (rep_id, off, lam)
    _report(3, "lambda closed forms", f"{checked} admissible matches, 11 inadmissible misses")


def test_criterion_04_full_table(catalog, capsys):
    entries = catalog.reproduce_table()
    assert len(entries) == 42
    assert all(entry.match for entry in entries)
    assert main(["table"]) == 0
    capsys.readouterr()
    # the global bound: the table's maximum is 68 (reported, not separately tested)
    assert max(entry.computed_rank for entry in entries) == 68
    _report(4, "full table", "42/42 rows match, maximal rank 68")


def test_criterion_05_oracle_equivalence(catalog):
    pairs = 0
    for rep_id, rep in catalog.representatives.items():
        values = [n for n in range(1, 61) if n % rep.divisibility == 0] + [7, 9, 25]
        for n in values:
            matrix = homogenize(catalog.family_terms(rep_id, n))
            assert brute_lambda(matrix) == lefschetz_number(matrix), (rep_id, n)
            pairs += 1
    _report(5, "oracle equivalence", f"{pairs} (family, n) pairs")


def test_criterion_06_polygon_census(catalog):
    start = time.perf_counter()
    four = enumerate_one_interior_classes(4)
    assert len(four) == 16
    assert sum(1 for cls in four if len(cls.vertices) <= 4) == 12
    five = enumerate_one_interior_classes(5)
    assert sorted(cls.label for cls in five) == sorted(cls.label for cls in four)
    by_label = {cls.label: cls.vertices for cls in four}
    for cls in five:
        assert integral_equivalence(cls.vertices, by_label[cls.label]) is not None
    row_labels = set()
    for row in catalog.rows.values():
        hull = convex_hull(catalog.support(row.id))
        label = (
            next(cls.label for cls in four if integral_equivalence(hull, cls.vertices))
        )
        assert label == row.polygon
        assert label.startswith("w")
        row_labels.add(label)
    assert row_labels == {f"w{i}" for i in range(1, 13)}
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(6, "polygon census", f"16 classes at bounds 4 and 5 in {elapsed:.2f}s")


def test_criterion_07_pick_and_scan_agreement(catalog):
    polygons = [cls.vertices for cls in enumerate_one_interior_classes(4)]
    polygons += [convex_hull(catalog.support(row_id)) for row_id in catalog.rows]
    for polygon in polygons:
        interior, boundary, area = lattice_counts(polygon)
        assert area == interior + Fraction(boundary, 2) - 1, polygon
        assert interior_scan(polygon) == (interior, boundary), polygon
    _report(7, "pick/scan agreement", f"{len(polygons)} polygons")


def test_criterion_08_prime_gaps():
    start = time.perf_counter()
    hits = prime_gap_scan(200)
    elapsed = time.perf_counter() - start
    assert hits == [6, 12, 30]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(8, "prime gaps", f"{{6, 12, 30}} in {elapsed:.3f}s")


def test_criterion_09_delta_j_identities(catalog):
    for rep_id, rep in catalog.representatives.items():
        for n in (rep.divisibility, 2 * rep.divisibility):
            curve = catalog.weierstrass_at(rep_id, n)
            assert discriminant(curve) == catalog.delta_at(rep_id, n), (rep_id, n)
            j_num, j_den = j_invariant(curve)
            cat_num, cat_den = catalog.j_at(rep_id, n)
            assert j_num * cat_den == cat_num * j_den, (rep_id, n)
    # spot identities: j = 0 for the worked example, j = 1728 for b = 0
    assert catalog.j_at("1d", 60)[0].is_zero
    num, den = j_invariant(catalog.weierstrass_at("2a", 24))
    assert num == 1728 * den
    _report(9, "delta/j identities", "11 representatives at two parameters each")


def test_criterion_10_property_suites():
    counts = (
        negation_symmetry_suite(120),
        permutation_invariance_suite(100),
        coordinate_sum_suite(400),
        equivalence_relation_suite(100),
        hull_commutation_suite(120),
    )
    assert all(count >= 100 for count in counts)
    _report(10, "property suites", f"case counts {counts}")
