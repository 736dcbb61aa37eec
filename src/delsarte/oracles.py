"""Independent brute-force validators.

Everything here deliberately uses the naive formulation — generators
from a Fraction Gauss-Jordan inverse, breadth-first closure of the
character group's generators, full multiplier scans of every element,
bounding-box scans for lattice points, an exhaustive subset scan for the
polygon census, trial-division primes — so a bug shared with the
optimized paths is implausible. Slow by design; used by the test suite
and `delsarte verify`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import GroupTooLargeError, InconsistencyError, SingularMatrixError
from .lattice import MAX_GROUP_ORDER, ExponentMatrix, group_order
from .polygon import lattice_counts, polygon_edges
from . import polygon as _polygon


def _vector_order(vec) -> int:
    return lcm(*(f.denominator for f in vec))


def _naive_member(vec) -> bool:
    # Full scan over every admissible multiplier; the verdict is taken at
    # the end rather than short-circuited.
    if any(f == 0 for f in vec):
        return False
    modulus = _vector_order(vec)
    sums = []
    for t in range(1, modulus + 1):
        if gcd(t, modulus) != 1:
            continue
        sums.append(sum((t * f) % 1 for f in vec))
    return any(s != 2 for s in sums)


def mat4_inverse(rows):
    """Exact inverse of a 4x4 matrix as a tuple of Fraction rows, by Gauss-Jordan.

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


def row_vec_apply(vec, matrix):
    """Row vector times 4x4 matrix, each entry reduced into [0, 1)."""
    return tuple(
        sum(Fraction(vec[k]) * matrix[k][j] for k in range(4)) % 1 for j in range(4)
    )


def gauss_jordan_generators(matrix: ExponentMatrix):
    """The three generators (e_i - e_4) A^-1 of L, by Fraction Gauss-Jordan.

    Oracle for the adjugate numerators that lattice.py computes.
    """
    inverse = mat4_inverse(matrix.rows)
    return tuple(
        row_vec_apply(sel, inverse) for sel in ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))
    )


def _numerators(generators):
    """Generators as numerator 4-tuples over their common denominator.

    Returns (numerator tuples, modulus); cell[i]/modulus is the i-th
    coordinate, reduced into [0, 1).
    """
    modulus = lcm(*(Fraction(f).denominator for g in generators for f in g))
    cells = [tuple(int(Fraction(f) * modulus) % modulus for f in g) for g in generators]
    return cells, modulus


def brute_lambda(matrix: ExponentMatrix) -> int:
    """Lefschetz number by breadth-first closure and a full scan.

    Closes the Gauss-Jordan generators of L with closure_cells and counts
    its admissible members with scan_lambda. Raises GroupTooLargeError
    when |det A| / d exceeds MAX_GROUP_ORDER, before anything is
    enumerated.
    """
    predicted = group_order(matrix)
    if predicted > MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            f"character group has {predicted} elements, above the cap of {MAX_GROUP_ORDER}"
        )
    return scan_lambda(*closure_cells(gauss_jordan_generators(matrix)))


def closure_cells(generators):
    """Breadth-first closure of the generators as numerator tuples.

    Returns (set of cells, modulus); cell[i]/modulus is the i-th
    coordinate and the modulus is the common denominator of the
    generators. Oracle for the coset enumeration of lattice.py.
    """
    gen_cells, modulus = _numerators(generators)
    zero = (0, 0, 0, 0)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for element in frontier:
            for gen in gen_cells:
                s = tuple((e + d) % modulus for e, d in zip(element, gen))
                if s not in seen:
                    seen.add(s)
                    new.append(s)
        frontier = new
    return seen, modulus


def _scan_admissible(c0, c1, c2, c3, nmod) -> bool:
    # Nonzero coordinates, then scan multipliers t coprime to the lcm m of
    # the coordinate orders; the element is admissible as soon as the four
    # lifts <t*c_i/m> fail to sum to 2 (integer compare: sum of residues
    # against 2m).
    if c0 == 0 or c1 == 0 or c2 == 0 or c3 == 0:
        return False
    m = lcm(
        nmod // gcd(c0, nmod),
        nmod // gcd(c1, nmod),
        nmod // gcd(c2, nmod),
        nmod // gcd(c3, nmod),
    )
    k0 = c0 * m // nmod
    k1 = c1 * m // nmod
    k2 = c2 * m // nmod
    k3 = c3 * m // nmod
    target = 2 * m
    for t in range(1, m + 1):
        if gcd(t, m) != 1:
            continue
        if (t * k0) % m + (t * k1) % m + (t * k2) % m + (t * k3) % m != target:
            return True
    return False


def scan_lambda(cells, modulus) -> int:
    """Admissible characters among cells, by a multiplier scan of each one.

    Each cell is a 4-tuple of numerators over `modulus`, reduced into
    [0, modulus). Oracle for the Galois-orbit count of lattice.py: every
    element is scanned on its own, with no orbit reduction.
    """
    return sum(1 for c0, c1, c2, c3 in cells if _scan_admissible(c0, c1, c2, c3, modulus))


def _point_location(polygon, point):
    """-1 outside, 0 on the boundary, +1 strictly inside (convex CCW input)."""
    location = 1
    px, py = point
    for (x1, y1), (x2, y2) in polygon_edges(polygon):
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if cross < 0:
            return -1
        if cross == 0:
            location = 0
    return location


def scan_points(polygon):
    """(interior points, boundary points) by bounding-box scan."""
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    interior = []
    boundary = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            where = _point_location(polygon, (x, y))
            if where > 0:
                interior.append((x, y))
            elif where == 0:
                boundary.append((x, y))
    return interior, boundary


def interior_scan(polygon):
    """(interior count, boundary count) by bounding-box scan."""
    interior, boundary = scan_points(polygon)
    return len(interior), len(boundary)


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
    counterclockwise vertex tuples in default position. Oracle for the
    pruned census search of polygon.py, with its own hull and no pruning.
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


def _primes_up_to(limit: int):
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p, flag in enumerate(sieve) if flag]


def prime_gap_scan(limit: int):
    """Multiples of 3 in (3, limit] with no prime p = 2 (mod 3), 3p < n, p not | n.

    A standalone check of a prime-gap lemma, run by ``verify --suite
    lemma`` and kept for a future proof of lambda at every n (ROADMAP item
    5). No rank or lambda computation uses it: the admissibility test
    scans every unit t <= m // 2. Only multiples of 3 are scanned; without
    that restriction a handful of small n (4, 5, 8, 10, 14, 20) would
    qualify vacuously because no prime satisfies 3p < n at all. A scan up
    to 51 already determines the full answer; larger limits certify
    stability.
    """
    if limit < 4:
        raise ValueError("limit must be at least 4")
    primes = [p for p in _primes_up_to(limit) if p % 3 == 2]
    hits = []
    for n in range(6, limit + 1, 3):
        if not any(3 * p < n and n % p for p in primes):
            hits.append(n)
    return hits


def class_census(bound: int):
    """Census report: the one-interior-point classes inside [0, bound]^2.

    Every class representative is cross-checked against the scanning
    counts (and hence against Pick's identity); a disagreement raises
    InconsistencyError.
    """
    classes = _polygon.enumerate_one_interior_classes(bound)
    histogram = {}
    for cls in classes:
        interior, boundary = interior_scan(cls.vertices)
        counted_interior, counted_boundary, _ = lattice_counts(cls.vertices)
        if (interior, boundary) != (counted_interior, counted_boundary):
            raise InconsistencyError(
                f"census class {cls.label}: scan {(interior, boundary)} != "
                f"counts {(counted_interior, counted_boundary)}"
            )
        if interior != 1:
            raise InconsistencyError(f"census class {cls.label} has {interior} interior points")
        corners = len(cls.vertices)
        histogram[corners] = histogram.get(corners, 0) + 1
    return classes, histogram
