from fractions import Fraction

import pytest

from delsarte import (
    UnimodularAffineMap,
    classify_one_interior,
    convex_hull,
    enumerate_one_interior_classes,
    integral_equivalence,
    lattice_counts,
    to_default_position,
)
from delsarte import polygon
from delsarte.errors import DegenerateSupportError, NotOneInteriorError
from delsarte.polygon import EXTRA_CLASSES, TABLE_CLASSES

W1 = ((0, 0), (3, 0), (0, 2))


def test_convex_hull_drops_edge_points():
    assert convex_hull({(0, 0), (2, 0), (3, 0), (0, 2)}) == W1


def test_convex_hull_triangle():
    assert convex_hull({(0, 0), (1, 0), (0, 1)}) == ((0, 0), (1, 0), (0, 1))


def test_convex_hull_degenerate():
    with pytest.raises(DegenerateSupportError):
        convex_hull({(0, 0), (1, 0), (2, 0)})
    with pytest.raises(DegenerateSupportError):
        convex_hull({(0, 0), (1, 1)})


def test_lattice_counts():
    assert lattice_counts(W1) == (1, 6, Fraction(3))
    assert lattice_counts(((0, 0), (1, 0), (0, 1))) == (0, 3, Fraction(1, 2))
    assert lattice_counts(((0, 0), (2, 0), (2, 2), (0, 2))) == (1, 8, Fraction(4))


def test_to_default_position():
    assert to_default_position(((1, 1), (4, 1), (1, 3))) == W1
    assert to_default_position(W1) == W1
    assert to_default_position(((-1, 0), (2, 0), (-1, 2))) == W1


def test_equivalence_reflexive_identity():
    witness = integral_equivalence(W1, W1)
    assert witness is not None
    assert witness.matrix == ((1, 0), (0, 1))
    assert witness.shift == (0, 0)


def test_equivalence_shear():
    sheared = convex_hull([(x + y, y) for x, y in W1])
    assert sheared == ((0, 0), (3, 0), (2, 2))
    witness = integral_equivalence(W1, sheared)
    assert witness is not None
    assert {witness.apply(p) for p in W1} == set(sheared)


def test_equivalence_distinguishes_areas():
    w5 = ((0, 0), (3, 0), (0, 3))
    assert integral_equivalence(W1, w5) is None


def test_equivalence_distinguishes_parallelograms():
    # same area, boundary and vertex count, but only one is a parallelogram
    w6 = ((0, 1), (2, 0), (3, 0), (0, 2))
    w10 = ((0, 1), (1, 0), (2, 1), (1, 2))
    assert integral_equivalence(w6, w10) is None


def test_classify_examples(monkeypatch):
    def no_census(bound):
        raise AssertionError(f"classification ran the census in [0, {bound}]^2")

    monkeypatch.setattr(polygon, "_census_search", no_census)
    monkeypatch.setattr(polygon, "_census_classes", no_census)
    assert classify_one_interior(W1).label == "w1"
    assert classify_one_interior(((0, 0), (2, 0), (2, 2), (0, 2))).label == "w12"
    assert classify_one_interior(((0, 0), (3, 0), (2, 1), (0, 2))).label == "w8"
    # The classes with five and six corners, each moved by a shear and a shift.
    shear = UnimodularAffineMap(((1, 1), (0, 1)), (2, -3))
    for label, vertices in (
        ("x1", ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))),
        ("x2", ((0, 0), (1, 0), (2, 1), (1, 2), (0, 2))),
        ("x3", ((0, 0), (1, 0), (2, 1), (2, 2), (0, 2))),
        ("x4", ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))),
    ):
        moved = convex_hull(shear.apply(v) for v in vertices)
        assert moved != vertices
        assert classify_one_interior(moved).label == label


def test_classify_requires_one_interior():
    with pytest.raises(NotOneInteriorError):
        classify_one_interior(((0, 0), (1, 0), (0, 1)))
    with pytest.raises(NotOneInteriorError):
        classify_one_interior(((0, 0), (4, 0), (0, 4)))


def test_census_bound_4(catalog):
    classes = enumerate_one_interior_classes(4)
    assert len(classes) == 16
    assert sum(1 for cls in classes if len(cls.vertices) <= 4) == 12
    labels = [cls.label for cls in classes]
    assert labels == [f"w{i}" for i in range(1, 13)] + [f"x{i}" for i in range(1, 5)]
    histogram = {}
    for cls in classes:
        histogram[len(cls.vertices)] = histogram.get(len(cls.vertices), 0) + 1
    assert histogram == {3: 5, 4: 7, 5: 3, 6: 1}


def test_census_bound_5_stable():
    four = {cls.label: cls.vertices for cls in enumerate_one_interior_classes(4)}
    five = {cls.label: cls.vertices for cls in enumerate_one_interior_classes(5)}
    assert set(four) == set(five)
    for label, vertices in five.items():
        assert integral_equivalence(vertices, four[label]) is not None


def test_census_classes_pairwise_inequivalent():
    classes = enumerate_one_interior_classes(4)
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            assert integral_equivalence(a.vertices, b.vertices) is None


def test_table_class_representatives_have_one_interior():
    for cls in TABLE_CLASSES + EXTRA_CLASSES:
        interior, _, _ = lattice_counts(cls.vertices)
        assert interior == 1, cls


def test_genus_of_support():
    # The genus bound of a support is the interior count of its hull,
    # read off as `genus` does; an inner point of the support drops out.
    assert lattice_counts(convex_hull([(0, 0), (3, 0), (0, 2)]))[0] == 1
    assert lattice_counts(convex_hull([(0, 0), (1, 0), (0, 1)]))[0] == 0
    assert lattice_counts(convex_hull([(0, 0), (4, 0), (0, 4), (2, 2)]))[0] == 3


def test_map_rejects_non_unimodular_matrix():
    with pytest.raises(ValueError, match=r"^matrix determinant must be \+1 or -1$"):
        UnimodularAffineMap(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"^matrix determinant must be \+1 or -1$"):
        UnimodularAffineMap(((1, 1), (1, 1)))
    assert UnimodularAffineMap(((1, 0), (0, 1))).shift == (0, 0)
