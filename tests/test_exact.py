import random
from fractions import Fraction

import pytest

from delsarte.errors import SingularMatrixError
from delsarte.exact import (
    mat4_adjugate,
    mat4_det,
    mat4_inverse,
    qz,
    row_vec_apply,
)

F = Fraction


def test_qz_normalize():
    assert qz(0, 5) == F(0)
    assert qz(-1, 3) == F(2, 3)
    assert qz(63, 180) == F(7, 20)
    assert qz(5, -3) == F(1, 3)
    with pytest.raises(ZeroDivisionError):
        qz(1, 0)


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
    assert mat4_det(rows) == 0
    with pytest.raises(SingularMatrixError):
        mat4_inverse(rows)


def test_mat4_det_worked_example():
    assert mat4_det(A60) == 22680


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
        det = mat4_det(rows)
        for i in range(4):
            for j in range(4):
                want = det * int(i == j)
                assert sum(rows[i][k] * adj[k][j] for k in range(4)) == want, rows
                assert sum(adj[i][k] * rows[k][j] for k in range(4)) == want, rows


def test_mat4_inverse_random_roundtrip():
    rng = random.Random(11)
    done = 0
    while done < 50:
        rows = tuple(tuple(rng.randrange(-9, 10) for _ in range(4)) for _ in range(4))
        if mat4_det(rows) == 0:
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
