# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel: the census subset scan.

Mirrors `_speedups_py`; both must return identical values on identical
inputs (enforced by the kernel-equality tests).
"""


def implementation():
    return "c"


cdef long long _gcd(long long a, long long b) noexcept nogil:
    cdef long long r
    while b:
        r = a % b
        a = b
        b = r
    return a


cdef long _cross(long ox, long oy, long ax, long ay, long bx, long by) noexcept nogil:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


cdef int _strict_hull(long* xs, long* ys, int k, long* hx, long* hy) noexcept nogil:
    # Monotone chain over lexicographically sorted input; corners only.
    cdef long lx[8]
    cdef long ly[8]
    cdef long ux[8]
    cdef long uy[8]
    cdef int nl = 0, nu = 0, i, j
    for i in range(k):
        while nl >= 2 and _cross(lx[nl - 2], ly[nl - 2], lx[nl - 1], ly[nl - 1],
                                 xs[i], ys[i]) <= 0:
            nl -= 1
        lx[nl] = xs[i]
        ly[nl] = ys[i]
        nl += 1
    for i in range(k - 1, -1, -1):
        while nu >= 2 and _cross(ux[nu - 2], uy[nu - 2], ux[nu - 1], uy[nu - 1],
                                 xs[i], ys[i]) <= 0:
            nu -= 1
        ux[nu] = xs[i]
        uy[nu] = ys[i]
        nu += 1
    for i in range(nl - 1):
        hx[i] = lx[i]
        hy[i] = ly[i]
    j = nl - 1
    for i in range(nu - 1):
        hx[j] = ux[i]
        hy[j] = uy[i]
        j += 1
    return j


def one_interior_polygons(int bound):
    """Strictly convex one-interior-point vertex sets in [0, bound]^2.

    Same contract as the pure-Python twin: canonical counterclockwise
    vertex tuples in default position, deduplicated, sorted.
    """
    cdef int side = bound + 1
    cdef int npts = side * side
    cdef long px[64]
    cdef long py[64]
    cdef int i, j, size, hk
    cdef long area2, boundary, dx, dy, minx, miny
    cdef int idx[6]
    cdef long xs[6]
    cdef long ys[6]
    cdef long hx[8]
    cdef long hy[8]
    if npts > 64:
        raise ValueError("census bound too large for the compiled kernel")
    # lexicographic order matches the pure kernel
    for i in range(npts):
        px[i] = i // side
        py[i] = i % side
    found = set()
    for size in range(3, 7):
        for i in range(size):
            idx[i] = i
        while True:
            for i in range(size):
                xs[i] = px[idx[i]]
                ys[i] = py[idx[i]]
            hk = _strict_hull(xs, ys, size, hx, hy)
            if hk == size:
                area2 = 0
                boundary = 0
                for i in range(size):
                    j = i + 1
                    if j == size:
                        j = 0
                    area2 += hx[i] * hy[j] - hx[j] * hy[i]
                    dx = hx[j] - hx[i]
                    dy = hy[j] - hy[i]
                    if dx < 0:
                        dx = -dx
                    if dy < 0:
                        dy = -dy
                    boundary += _gcd(dx, dy)
                # Pick: exactly one interior point iff 2*area == boundary
                if area2 == boundary:
                    minx = hx[0]
                    miny = hy[0]
                    for i in range(1, size):
                        if hx[i] < minx:
                            minx = hx[i]
                        if hy[i] < miny:
                            miny = hy[i]
                    found.add(tuple([(hx[i] - minx, hy[i] - miny) for i in range(size)]))
            # advance the combination odometer
            i = size - 1
            while i >= 0 and idx[i] == npts - size + i:
                i -= 1
            if i < 0:
                break
            idx[i] += 1
            for j in range(i + 1, size):
                idx[j] = idx[j - 1] + 1
    return sorted(found)
