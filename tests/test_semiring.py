import operator
import random
from fractions import Fraction

import pytest

from maxplus import (
    NEG_INF,
    ExtMatrix,
    Matrix,
    MinusInf,
    PreconditionError,
    ShapeError,
    Vector,
    ext_scalar,
    mat_mul,
    mat_vec,
    projectivize,
    residuation,
    scalar,
    scale,
    tadd,
    tmul,
)

from helpers import HEX_ASYM, HEX_SYM, rand_matrix, rand_scalar, rand_vector


def test_scalar_parsing():
    assert scalar("-1.5") == Fraction(-3, 2)
    assert scalar("-3/2") == Fraction(-3, 2)
    assert scalar(7) == Fraction(7)
    assert scalar(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        scalar(0.5)
    with pytest.raises(ValueError):
        scalar("wibble")
    with pytest.raises(ValueError):
        scalar("1/0")


def test_ext_scalar_parsing():
    assert ext_scalar("-inf") is NEG_INF
    assert ext_scalar(NEG_INF) is NEG_INF
    assert ext_scalar("-1.5") == Fraction(-3, 2)


def test_neg_inf_is_a_singleton_and_least():
    assert MinusInf() is NEG_INF
    assert NEG_INF < Fraction(-1000000)
    assert Fraction(0) > NEG_INF
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF <= NEG_INF
    assert max(NEG_INF, Fraction(2)) == Fraction(2)
    ops = (operator.lt, operator.le, operator.gt, operator.ge)
    # below every Fraction, int and bool, and equal only to itself, in either operand order
    for x in (Fraction(-10**9), Fraction(-1, 3), Fraction(5, 2), -7, 0, 12, True, False):
        assert [op(NEG_INF, x) for op in ops] == [True, True, False, False]
        assert [op(x, NEG_INF) for op in ops] == [False, False, True, True]
    assert [op(NEG_INF, NEG_INF) for op in ops] == [False, True, False, True]
    for x in (0.0, float("-inf"), "a"):
        for op in ops:
            with pytest.raises(TypeError):
                op(NEG_INF, x)
            with pytest.raises(TypeError):
                op(x, NEG_INF)


def test_tadd_examples():
    assert tadd(Fraction(3), Fraction(5)) == Fraction(5)
    assert tadd(NEG_INF, Fraction(2)) == Fraction(2)
    assert tadd(Fraction(2), NEG_INF) == Fraction(2)
    assert tadd(Fraction(-1, 2), Fraction(-1, 2)) == Fraction(-1, 2)


def test_tmul_examples():
    assert tmul(Fraction(3), Fraction(5)) == Fraction(8)
    assert tmul(NEG_INF, Fraction(2)) is NEG_INF
    assert tmul(Fraction(2), NEG_INF) is NEG_INF
    x = Fraction(9, 7)
    assert tmul(Fraction(0), x) == x


def test_semiring_laws_randomized():
    rng = random.Random(2024)
    pool = [NEG_INF] + [rand_scalar(rng) for _ in range(20)]
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert tadd(a, b) == tadd(b, a)
        assert tmul(a, b) == tmul(b, a)
        assert tadd(tadd(a, b), c) == tadd(a, tadd(b, c))
        assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
        assert tadd(a, a) == a
        assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))


def test_vector_basics():
    v = Vector([0, "-3/2", 2])
    assert len(v) == 3
    assert v[1] == Fraction(-3, 2)
    assert v == Vector(["0", "-1.5", "2"])
    assert -v == Vector([0, "3/2", -2])
    with pytest.raises(ShapeError):
        Vector([])


def test_vector_partial_order():
    a = Vector([0, 0])
    b = Vector([1, 2])
    c = Vector([1, -1])
    assert a <= b and b >= a
    assert not (a <= c) and not (c <= a)  # incomparable
    with pytest.raises(ShapeError):
        a <= Vector([1, 2, 3])


def test_vector_join_and_meet():
    a = Vector([0, -2])
    b = Vector([-1, 1])
    assert a.oplus(b) == Vector([0, 1])
    assert a.meet(b) == Vector([-1, -2])


def test_scale_examples():
    assert scale(2, Vector([0, -1])) == Vector([2, 1])
    x = Vector([5, "-1/3"])
    assert scale(0, x) == x
    assert scale(-3, Vector([3, 3, 3])) == Vector([0, 0, 0])


def test_residuation_examples():
    assert residuation(Vector([0, 0]), Vector([1, 2])) == Fraction(1)
    x = Vector([4, "-2/3", 0])
    assert residuation(x, x) == Fraction(0)
    c1, c2 = HEX_SYM.col(0), HEX_SYM.col(1)
    assert residuation(c1, c2) == Fraction(-3, 2)
    with pytest.raises(ShapeError):
        residuation(Vector([0]), Vector([0, 0]))


def test_residuation_adjunction():
    # lam * x <= y exactly when lam <= <x|y>
    rng = random.Random(7)
    eps = Fraction(1, 7)
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = rand_vector(rng, n), rand_vector(rng, n)
        lam = residuation(x, y)
        assert scale(lam, x) <= y
        assert not (scale(lam + eps, x) <= y)


def test_projectivize():
    assert projectivize(Vector([0, -3, -3])) == (Fraction(3), Fraction(0))
    assert projectivize(Vector([5, 5, 5])) == (Fraction(0), Fraction(0))
    with pytest.raises(PreconditionError):
        projectivize(Vector([1]))


def test_projectivize_scale_invariant():
    rng = random.Random(11)
    for _ in range(40):
        x = rand_vector(rng, rng.randint(2, 5))
        assert projectivize(scale(rand_scalar(rng), x)) == projectivize(x)


def test_mat_mul_golden_idempotent():
    assert mat_mul(HEX_ASYM, HEX_ASYM) == HEX_ASYM
    assert (HEX_ASYM @ HEX_ASYM) == HEX_ASYM


def test_mat_mul_identity():
    rng = random.Random(3)
    a = rand_matrix(rng, 4)
    assert mat_mul(ExtMatrix.identity(4), a) == a
    assert mat_mul(a, ExtMatrix.identity(4)) == a


def test_mat_mul_small_square():
    a = Matrix([[-5, 0], [-2, -5]])
    assert a @ a == Matrix([[-2, -5], [-7, -2]])


def test_mat_mul_shape_error():
    with pytest.raises(ShapeError):
        mat_mul(Matrix([[0, 1]]), Matrix([[0, 1]]))


def test_mat_mul_associative_randomized():
    rng = random.Random(13)
    for _ in range(25):
        n, k, m, p = (rng.randint(1, 4) for _ in range(4))
        a = Matrix([[rand_scalar(rng) for _ in range(k)] for _ in range(n)])
        b = Matrix([[rand_scalar(rng) for _ in range(m)] for _ in range(k)])
        c = Matrix([[rand_scalar(rng) for _ in range(p)] for _ in range(m)])
        assert (a @ b) @ c == a @ (b @ c)


def test_mat_mul_promotes_finite_results():
    p = ExtMatrix([[NEG_INF, 0], [0, NEG_INF]])
    a = Matrix([[1, 2], [3, 4]])
    prod = mat_mul(p, a)
    assert isinstance(prod, Matrix)
    assert prod == Matrix([[3, 4], [1, 2]])
    assert isinstance(mat_mul(p, p), ExtMatrix)


def test_matrix_construction_and_accessors():
    m = Matrix([[0, -1], [2, "3/2"]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 1] == Fraction(3, 2)
    assert m.row(0) == Vector([0, -1])
    assert m.col(1) == Vector([-1, "3/2"])
    assert m.transpose() == Matrix([[0, 2], [-1, "3/2"]])
    assert m.column_vectors() == [Vector([0, 2]), Vector([-1, "3/2"])]
    with pytest.raises(ShapeError):
        Matrix([[0, 1], [2]])
    with pytest.raises(ValueError):
        Matrix([[0, "-inf"]])


def test_matrix_equality_across_classes():
    assert Matrix([[0]]) == ExtMatrix([[0]])
    assert ExtMatrix([[NEG_INF]]) != Matrix([[0]])


def test_matrix_oplus_and_scale():
    a = Matrix([[0, -1], [5, 2]])
    b = Matrix([[1, -3], [4, 2]])
    assert a.oplus(b) == Matrix([[1, -1], [5, 2]])
    assert a.scale("1/2") == Matrix([["1/2", "-1/2"], ["11/2", "5/2"]])
    scaled = ExtMatrix.identity(2).scale(3)
    assert scaled[0, 0] == Fraction(3) and scaled[0, 1] is NEG_INF


def test_mat_vec():
    x = Vector([1, -4, -4])
    assert mat_vec(HEX_ASYM, x) == Vector([1, -2, -1])
    with pytest.raises(ShapeError):
        mat_vec(HEX_ASYM, Vector([0, 0]))
    with pytest.raises(PreconditionError):
        mat_vec(ExtMatrix([[NEG_INF, NEG_INF]]), Vector([0, 0]))
