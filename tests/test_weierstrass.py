from fractions import Fraction

import pytest

from delsarte import SparsePoly, WeierstrassData, discriminant, j_invariant
from delsarte.errors import NonEllipticError

F = Fraction


def T(exponent):
    return SparsePoly({exponent: 1})


def test_poly_ring_ops():
    one_plus_t = SparsePoly({0: 1, 1: 1})
    assert one_plus_t ** 2 == SparsePoly({0: 1, 1: 2, 2: 1})
    assert (T(4) + 1) * SparsePoly(0) == SparsePoly(0)
    assert (1 + T(2)) ** 3 == SparsePoly({0: 1, 2: 3, 4: 3, 6: 1})
    assert -(T(3) - 1) == 1 - T(3)
    assert SparsePoly({2: F(1, 3)}) * 3 == T(2)


def test_poly_normalization():
    assert SparsePoly({5: 0, 1: 2}) == SparsePoly({1: 2})
    assert (T(2) - T(2)).is_zero
    with pytest.raises(ValueError):
        SparsePoly({-1: 1})


def test_poly_equality_with_other_types():
    # Constants compare as constant polynomials; anything else is unequal, not an error.
    assert SparsePoly(3) == 3 and 3 == SparsePoly(3)
    assert SparsePoly(F(1, 2)) == F(1, 2) and SparsePoly(0) == 0
    assert SparsePoly(1) != T(1) and SparsePoly(2) != 3
    for other in (None, 1.5, "x", (0, 1), [1], {0: 1}):
        assert SparsePoly(1) != other and not SparsePoly(1) == other, other
        assert other != SparsePoly(1), other


def test_discriminant_examples():
    # family of y^2 = x^3 + t^4 x + 1
    assert discriminant(WeierstrassData(T(4), SparsePoly(1))) == -64 * T(12) - 432
    assert discriminant(WeierstrassData(SparsePoly(0), SparsePoly(1))) == SparsePoly(-432)
    # a = 0, b = (1 + t^2)^2
    b = (1 + T(2)) ** 2
    assert discriminant(WeierstrassData(SparsePoly(0), b)) == -432 * (1 + T(2)) ** 4


def test_discriminant_sign_of_b_is_invisible():
    a, b = T(4) - 1, T(6) + 3 * T(2)
    assert discriminant(WeierstrassData(a, b)) == discriminant(WeierstrassData(a, -b))


def test_discriminant_zero():
    with pytest.raises(NonEllipticError):
        discriminant(WeierstrassData(SparsePoly(0), SparsePoly(0)))


def test_j_invariant():
    num, den = j_invariant(WeierstrassData(SparsePoly(0), SparsePoly(1)))
    assert num.is_zero
    num, den = j_invariant(WeierstrassData(T(1), SparsePoly(0)))
    assert num == 1728 * den  # j = 1728 whenever b = 0
    num, den = j_invariant(WeierstrassData(T(4), SparsePoly(1)))
    assert num == 6912 * T(12)
    assert den == 4 * T(12) + 27


def test_j_denominator_is_discriminant():
    curve = WeierstrassData(T(4), SparsePoly(1))
    _, den = j_invariant(curve)
    assert -16 * den == discriminant(curve)


# --- dense reference polynomials --------------------------------------------
# A polynomial as a list of Fraction coefficients indexed by exponent, with
# no trailing zeros; built with none of SparsePoly's code.

def _dense(poly):
    out = []
    for (exp, slope), coeff in poly.items():
        assert slope == 0
        out += [F(0)] * (exp + 1 - len(out))
        out[exp] = F(coeff)
    return out


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _dense_add(p, q, sign=1):
    size = max(len(p), len(q))
    p = p + [F(0)] * (size - len(p))
    q = q + [F(0)] * (size - len(q))
    return _trim(a + sign * b for a, b in zip(p, q))


def _dense_mul(p, q):
    out = [F(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        if a:  # most entries of a sparse polynomial's dense list are zero
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _dense_pow(p, power):
    out = [F(1)]
    for _ in range(power):
        out = _dense_mul(out, p)
    return out


_COEFFS = (1, -1, 2, -3, 6, F(1, 3), F(-1, 3), F(2, 27), F(-22, 9), F(3, 2), F(-3, 1))


def _random_terms(rng, like=None):
    """Up to 4 terms of degree <= 5; with `like`, half the terms cancel against it."""
    terms = {}
    if like is not None:
        for exp, coeff in like.items():
            if rng.random() < 0.5:
                terms[exp] = -coeff
    for _ in range(rng.randrange(0, 4)):
        terms[rng.randrange(0, 6)] = rng.choice(_COEFFS)
    return terms


_SLOPES = (0, 1, 2, F(1, 3), F(2, 3))


def _random_terms_in_n(rng, like=None):
    """Up to 4 terms t^(c+s*n) with c <= 5 and s in _SLOPES; with `like`, half cancel against it."""
    terms = {}
    if like is not None:
        for mono, coeff in like.items():
            if rng.random() < 0.5:
                terms[mono] = -coeff
    for _ in range(rng.randrange(0, 4)):
        terms[rng.randrange(0, 6), rng.choice(_SLOPES)] = rng.choice(_COEFFS)
    return terms


def _dense_at(terms, n):
    """The dense reference of {(c, s): coeff} at n, with 3 | n."""
    out = []
    for (c, s), coeff in terms.items():
        exp = int(c + s * n)
        out += [F(0)] * (exp + 1 - len(out))
        out[exp] += F(coeff)
    return _trim(out)


def _assert_canonical(poly):
    for (_, slope), coeff in poly.items():
        assert coeff != 0
        assert type(coeff) is int or coeff.denominator != 1, coeff
        assert type(slope) is int or slope.denominator != 1, slope


def test_sparse_poly_against_dense_reference():
    import random

    rng = random.Random(20)
    for _ in range(300):
        p = SparsePoly(_random_terms(rng))
        q = SparsePoly(_random_terms(rng, like=p))
        dp, dq = _dense(p), _dense(q)
        scalar = rng.choice(_COEFFS + (0,))
        results = [
            (p + q, _dense_add(dp, dq)),
            (p - q, _dense_add(dp, dq, sign=-1)),
            (-p, _dense_add([], dp, sign=-1)),
            (p * q, _dense_mul(dp, dq)),
            (p * scalar, _dense_mul(dp, [F(scalar)])),
            (scalar * q, _dense_mul([F(scalar)], dq)),
            (p + scalar, _dense_add(dp, [F(scalar)])),
            (scalar - q, _dense_add([F(scalar)], dq, sign=-1)),
        ]
        results += [(p ** k, _dense_pow(dp, k)) for k in range(7)]
        for poly, reference in results:
            _assert_canonical(poly)
            assert _dense(poly) == _trim(reference), (p, q, scalar, poly)
            assert poly == SparsePoly(dict(enumerate(reference)))

    # The same operations keyed by (c, s), standing for t^(c+s*n): each must
    # commute with evaluation at n, and keep integral slopes as ints.
    for _ in range(150):
        terms_p = _random_terms_in_n(rng)
        p = SparsePoly(terms_p)
        terms_q = _random_terms_in_n(rng, like=p)
        q = SparsePoly(terms_q)
        results = [
            (p + q, _dense_add),
            (p - q, lambda dp, dq: _dense_add(dp, dq, sign=-1)),
            (p * q, _dense_mul),
        ]
        results += [(p ** k, lambda dp, dq, k=k: _dense_pow(dp, k)) for k in range(5)]
        for poly, reference in results:
            _assert_canonical(poly)
            for n in (3, 6, 12):
                expected = reference(_dense_at(terms_p, n), _dense_at(terms_q, n))
                assert _dense(poly.evaluate(n)) == expected, (p, q, n, poly)


def test_sparse_poly_stores_integral_coefficients_as_int():
    three = SparsePoly({0: F(3)})
    assert three == SparsePoly({0: 3}) and hash(three) == hash(SparsePoly({0: 3}))
    assert repr(three) == "SparsePoly(3)"
    assert type(three.items()[0][1]) is int
    assert SparsePoly({0: 3}) == 3 == SparsePoly({0: F(6, 2)})
    third = SparsePoly({1: F(1, 3)})
    for poly in (third * 3, third + third + third, third * F(3), (3 * third) ** 2):
        _assert_canonical(poly)
    assert (third * 3).items() == [((1, 0), 1)]
