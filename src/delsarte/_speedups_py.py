"""Pure-Python kernel; algorithmic mirror of the compiled `_speedups`.

Used when the extension is not built or DELSARTE_PURE is set. The entry
point is the strictly-convex subset scan behind the polygon census.
"""

from itertools import combinations
from math import gcd


def implementation() -> str:
    return "python"


def _strict_hull(points):
    # Monotone chain over lexicographically pre-sorted points; collinear
    # middle points are dropped, so the result holds corners only,
    # counterclockwise, starting at the lexicographic minimum.
    lower = []
    for p in points:
        while (
            len(lower) >= 2
            and (lower[-1][0] - lower[-2][0]) * (p[1] - lower[-2][1])
            - (lower[-1][1] - lower[-2][1]) * (p[0] - lower[-2][0])
            <= 0
        ):
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while (
            len(upper) >= 2
            and (upper[-1][0] - upper[-2][0]) * (p[1] - upper[-2][1])
            - (upper[-1][1] - upper[-2][1]) * (p[0] - upper[-2][0])
            <= 0
        ):
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def one_interior_polygons(bound):
    """Strictly convex vertex sets in [0, bound]^2 with one interior point.

    Scans every subset of 3..6 lattice points, keeps those that are
    exactly the corner set of their hull and enclose exactly one interior
    lattice point, and dedupes by translation. Returns sorted canonical
    counterclockwise vertex tuples in default position.
    """
    pts = [(x, y) for x in range(bound + 1) for y in range(bound + 1)]
    found = set()
    for size in (3, 4, 5, 6):
        for combo in combinations(pts, size):
            hull = _strict_hull(combo)
            if len(hull) != size:
                continue
            area2 = 0
            boundary = 0
            for i in range(size):
                x1, y1 = hull[i]
                x2, y2 = hull[(i + 1) % size]
                area2 += x1 * y2 - x2 * y1
                boundary += gcd(abs(x2 - x1), abs(y2 - y1))
            # Pick: interior = (2*area - boundary + 2) / 2, so exactly one
            # interior point means 2*area == boundary.
            if area2 != boundary:
                continue
            minx = min(p[0] for p in hull)
            miny = min(p[1] for p in hull)
            found.add(tuple((x - minx, y - miny) for x, y in hull))
    return sorted(found)
