"""Lattice polygons: hulls, point counts, unimodular equivalence and the
classification of polygons with exactly one interior lattice point.

Polygons are tuples of integer (x, y) vertex pairs in counterclockwise
order, corners only, starting at the lexicographically smallest vertex.
Maps act on points as row vectors: image = p @ M + shift.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import (
    ClassificationError,
    DegenerateSupportError,
    NotOneInteriorError,
)

Point = tuple[int, int]
Polygon = tuple[Point, ...]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> Polygon:
    """Canonical convex hull of a finite point set.

    Corners only (no three consecutive collinear), counterclockwise,
    first vertex lexicographically smallest. Collinear or too-small
    inputs raise DegenerateSupportError.
    """
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) < 3:
        raise DegenerateSupportError("support has fewer than 3 distinct points")
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = tuple(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise DegenerateSupportError("support is collinear")
    return hull


def polygon_edges(polygon: Polygon):
    """Consecutive vertex pairs, wrapping around."""
    for i in range(len(polygon)):
        yield polygon[i], polygon[(i + 1) % len(polygon)]


def lattice_counts(polygon: Polygon):
    """(interior, boundary, area) of a canonical polygon, all exact.

    Boundary is a gcd sum over edges, area the shoelace value, interior
    the Pick rearrangement interior = area - boundary/2 + 1; the triple
    therefore satisfies Pick's identity by construction and is
    cross-checked against the scanning oracle in the test suite.
    """
    area2 = 0
    boundary = 0
    for (x1, y1), (x2, y2) in polygon_edges(polygon):
        area2 += x1 * y2 - x2 * y1
        boundary += gcd(abs(x2 - x1), abs(y2 - y1))
    if area2 <= 0:
        raise DegenerateSupportError("polygon is not in counterclockwise order")
    interior = (area2 - boundary + 2) // 2
    return interior, boundary, Fraction(area2, 2)


def to_default_position(polygon: Polygon) -> Polygon:
    """Unique translate in the first quadrant touching both axes."""
    minx = min(x for x, _ in polygon)
    miny = min(y for _, y in polygon)
    return tuple((x - minx, y - miny) for x, y in polygon)


class UnimodularAffineMap(NamedTuple("UnimodularAffineMap", [("matrix", tuple), ("shift", Point)])):
    """A GL2(Z) matrix plus translation, acting on row vectors."""

    __slots__ = ()

    def __new__(cls, matrix, shift=(0, 0)):
        (a, b), (c, d) = matrix
        if abs(a * d - b * c) != 1:
            raise ValueError("matrix determinant must be +1 or -1")
        return super().__new__(cls, matrix, shift)

    def apply(self, point: Point) -> Point:
        (a, b), (c, d) = self.matrix
        x, y = point
        return (x * a + y * c + self.shift[0], x * b + y * d + self.shift[1])


def integral_equivalence(p: Polygon, q: Polygon):
    """A witness map sending p onto q as point sets, or None.

    Anchors the first vertex of p with its two adjacent edge vectors and
    tries every vertex of q with both orderings of its adjacent edges;
    candidate matrices must be integral with determinant +-1 and must
    carry the vertex set onto the vertex set.
    """
    if len(p) != len(q):
        return None
    k = len(q)
    p0 = p[0]
    u1 = (p[1][0] - p0[0], p[1][1] - p0[1])
    u2 = (p[-1][0] - p0[0], p[-1][1] - p0[1])
    det_u = u1[0] * u2[1] - u1[1] * u2[0]
    qset = set(q)
    for i in range(k):
        q0 = q[i]
        va = (q[(i + 1) % k][0] - q0[0], q[(i + 1) % k][1] - q0[1])
        vb = (q[i - 1][0] - q0[0], q[i - 1][1] - q0[1])
        for v1, v2 in ((va, vb), (vb, va)):
            if abs(v1[0] * v2[1] - v1[1] * v2[0]) != abs(det_u):
                continue
            # Solve [u1; u2] M = [v1; v2] via the adjugate of [u1; u2].
            n00 = u2[1] * v1[0] - u1[1] * v2[0]
            n01 = u2[1] * v1[1] - u1[1] * v2[1]
            n10 = u1[0] * v2[0] - u2[0] * v1[0]
            n11 = u1[0] * v2[1] - u2[0] * v1[1]
            if any(n % det_u for n in (n00, n01, n10, n11)):
                continue
            matrix = ((n00 // det_u, n01 // det_u), (n10 // det_u, n11 // det_u))
            shift = (
                q0[0] - (p0[0] * matrix[0][0] + p0[1] * matrix[1][0]),
                q0[1] - (p0[0] * matrix[0][1] + p0[1] * matrix[1][1]),
            )
            candidate = UnimodularAffineMap(matrix, shift)
            if {candidate.apply(v) for v in p} == qset:
                return candidate
    return None


class PolygonClass(NamedTuple):
    """One of the 16 classes of one-interior-point polygons."""

    label: str
    vertices: Polygon


# Default-position hulls of the twelve defining quadrinomial families, one
# per picture row of the classification table; these are the canonical
# representatives of the classes with at most four corners.
TABLE_CLASSES = (
    PolygonClass("w1", ((0, 0), (3, 0), (0, 2))),
    PolygonClass("w2", ((0, 2), (1, 0), (3, 0))),
    PolygonClass("w3", ((0, 1), (3, 0), (0, 2))),
    PolygonClass("w4", ((0, 0), (4, 0), (0, 2))),
    PolygonClass("w5", ((0, 0), (3, 0), (0, 3))),
    PolygonClass("w6", ((0, 1), (2, 0), (3, 0), (0, 2))),
    PolygonClass("w7", ((0, 1), (1, 0), (3, 0), (0, 2))),
    PolygonClass("w8", ((0, 0), (3, 0), (2, 1), (0, 2))),
    PolygonClass("w9", ((0, 0), (2, 0), (2, 1), (0, 2))),
    PolygonClass("w10", ((0, 1), (1, 0), (2, 1), (1, 2))),
    PolygonClass("w11", ((0, 0), (3, 0), (1, 2), (0, 2))),
    PolygonClass("w12", ((0, 0), (2, 0), (2, 2), (0, 2))),
)

# Default-position hulls of the four classes with five or six corners, which
# no quadrinomial reaches; the census in [0, 4]^2 finds exactly these.
EXTRA_CLASSES = (
    PolygonClass("x1", ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1))),
    PolygonClass("x2", ((0, 0), (1, 0), (2, 1), (1, 2), (0, 2))),
    PolygonClass("x3", ((0, 0), (1, 0), (2, 1), (2, 2), (0, 2))),
    PolygonClass("x4", ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))),
)

_CLASSES = TABLE_CLASSES + EXTRA_CLASSES


#: Most corners a polygon with exactly one interior lattice point can have.
_MAX_CORNERS = 6


def _census_search(bound: int):
    """Strictly convex vertex sets in [0, bound]^2 with one interior point.

    Depth-first over point sets in lexicographic order whose first point
    lies on x = 0, which reaches a translate of every set. A branch stops
    as soon as its points are not in strictly convex position or their
    hull has more than one interior point: adding points undoes neither.
    Returns sorted default-position hulls, counterclockwise from their
    lexicographically smallest corner.
    """
    points = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    found = set()

    def extend(chosen, start):
        for i in range(start, len(points)):
            candidate = chosen + [points[i]]
            if len(candidate) >= 3:
                try:
                    hull = convex_hull(candidate)
                except DegenerateSupportError:
                    continue
                if len(hull) != len(candidate):
                    continue
                interior = lattice_counts(hull)[0]
                if interior > 1:
                    continue
                if interior == 1:
                    found.add(to_default_position(hull))
            if len(candidate) < _MAX_CORNERS:
                extend(candidate, i + 1)

    for first in range(bound + 1):  # the points (0, y)
        extend([points[first]], first + 1)
    return sorted(found)


def classify_one_interior(polygon: Polygon) -> PolygonClass:
    """The unique class whose representative is equivalent to `polygon`.

    Raises NotOneInteriorError unless the polygon has exactly one
    interior lattice point.
    """
    interior, _, _ = lattice_counts(polygon)
    if interior != 1:
        raise NotOneInteriorError(
            f"polygon has {interior} interior points, classification needs 1"
        )
    for cls in _CLASSES:
        if integral_equivalence(polygon, cls.vertices) is not None:
            return cls
    raise ClassificationError(f"no class matches {polygon}")


@lru_cache(maxsize=4)
def _census_classes(bound: int):
    """The classes of every polygon the census search finds, in table order."""
    found = {classify_one_interior(poly) for poly in _census_search(bound)}
    return tuple(cls for cls in _CLASSES if cls in found)


def enumerate_one_interior_classes(bound: int):
    """Census of one-interior-point polygon classes inside [0, bound]^2.

    A pruned search over vertex sets of size 3..6; each class is returned
    once with the label it carries in the canonical classification, in
    table order. The census thereby checks the literal class table: a
    polygon it finds that matches no class raises ClassificationError.
    """
    if bound < 4:
        raise ValueError("census bound must be at least 4")
    return list(_census_classes(bound))
