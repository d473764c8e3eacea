import random
from fractions import Fraction

import pytest

from maxplus import (
    DistanceTable,
    Matrix,
    PreconditionError,
    ShapeError,
    Vector,
    mat_mul,
    mat_vec,
    projectivize,
    residuation,
    scalar,
    scale,
)

from helpers import HEX_ASYM, HEX_SYM, rand_matrix, rand_scalar, rand_vector, star_closed_zero_diag


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
    with pytest.raises(TypeError, match="^scalar does not accept bool$"):
        scalar(True)


def test_ext_scalar_parsing():
    # there is no -inf scalar: the extended syntax is refused like any bad token
    assert scalar("-1.5") == Fraction(-3, 2)
    for token in ("-inf", "inf", "nan"):
        with pytest.raises(ValueError, match="cannot parse scalar"):
            scalar(token)
    with pytest.raises(TypeError):
        scalar(float("-inf"))


def test_tadd_examples():
    # the semiring join on scalars, as 1x1 matrices
    def join(a, b):
        return Matrix([[a]]).oplus(Matrix([[b]]))[0, 0]

    assert join(Fraction(3), Fraction(5)) == Fraction(5)
    assert join(Fraction(5), Fraction(3)) == Fraction(5)
    assert join(Fraction(-1, 2), Fraction(-1, 2)) == Fraction(-1, 2)


def test_tmul_examples():
    # the semiring product on scalars, as 1x1 matrices
    def times(a, b):
        return mat_mul(Matrix([[a]]), Matrix([[b]]))[0, 0]

    assert times(Fraction(3), Fraction(5)) == Fraction(8)
    x = Fraction(9, 7)
    assert times(Fraction(0), x) == x


def test_semiring_laws_randomized():
    # on 1x1 matrices, the scalar semiring, the product also commutes
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.choice((1, 1, 2, 3))
        a, b, c = (rand_matrix(rng, n) for _ in range(3))
        assert a.oplus(b) == b.oplus(a)
        assert (mat_mul(a, b) == mat_mul(b, a)) or n > 1
        assert a.oplus(b).oplus(c) == a.oplus(b.oplus(c))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
        assert a.oplus(a) == a
        assert mat_mul(a, b.oplus(c)) == mat_mul(a, b).oplus(mat_mul(a, c))
        assert mat_mul(b.oplus(c), a) == mat_mul(b, a).oplus(mat_mul(c, a))


def test_vector_basics():
    v = Vector([0, "-3/2", 2])
    assert len(v) == 3
    assert v[1] == Fraction(-3, 2)
    assert v == Vector(["0", "-1.5", "2"])
    assert -v == Vector([0, "3/2", -2])
    assert repr(v) == "Vector([0, -3/2, 2])"
    # equal over an unreduced denominator, and hashed alike
    halves = Vector._from_ints([0, -3, 4], 2)
    assert halves == v and hash(halves) == hash(v)
    with pytest.raises(ShapeError):
        Vector([])
    with pytest.raises(ShapeError, match="^a vector needs at least one entry$"):
        Vector.zeros(0)


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
    # the identity needs -inf; a zero-diagonal idempotent e is the identity of e*M*e
    rng = random.Random(3)
    a = rand_matrix(rng, 4)
    e = star_closed_zero_diag(rng, 4)
    x = mat_mul(mat_mul(e, a), e)
    assert mat_mul(e, x) == x
    assert mat_mul(x, e) == x


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


def test_matrix_construction_and_accessors():
    m = Matrix([[0, -1], [2, "3/2"]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 1] == Fraction(3, 2)
    assert m.row(0) == Vector([0, -1])
    assert m.col(1) == Vector([-1, "3/2"])
    assert m.transpose() == Matrix([[0, 2], [-1, "3/2"]])
    assert m.column_vectors() == [Vector([0, 2]), Vector([-1, "3/2"])]
    assert repr(m) == "Matrix(2x2: 0 -1; 2 3/2)"
    with pytest.raises(TypeError):
        m @ 3
    with pytest.raises(ShapeError):
        Matrix([[0, 1], [2]])
    with pytest.raises(ShapeError, match="^a matrix needs at least one row and one column$"):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[0, "-inf"]])


def test_matrix_equality_across_classes():
    # a matrix equals only a matrix, whatever the other value holds
    m = Matrix([[0, 1]])
    for other in (Vector([0, 1]), ((0, 1),), [[0, 1]], DistanceTable([[0]])):
        assert m != other and other != m
    assert m == Matrix([["0", "2/2"]])
    # a table never equals the matrix of its own entries
    for t in (DistanceTable([[0]]), DistanceTable([[0, "1/2"], [1, 0]])):
        assert t != Matrix(t.entries) and Matrix(t.entries) != t
    # equal values over unreduced denominators are equal and hash alike
    assert Matrix._from_ints([[2]], 4) == Matrix([["1/2"]])
    assert hash(Matrix._from_ints([[2]], 4)) == hash(Matrix([["1/2"]]))


def test_matrix_oplus_and_scale():
    a = Matrix([[0, -1], [5, 2]])
    b = Matrix([[1, -3], [4, 2]])
    assert a.oplus(b) == Matrix([[1, -1], [5, 2]])
    assert a.scale("1/2") == Matrix([["1/2", "-1/2"], ["11/2", "5/2"]])
    with pytest.raises(ShapeError, match="^matrix shapes differ$"):
        a.oplus(Matrix([[1, -3]]))


def test_mat_vec():
    x = Vector([1, -4, -4])
    assert mat_vec(HEX_ASYM, x) == Vector([1, -2, -1])
    with pytest.raises(ShapeError):
        mat_vec(HEX_ASYM, Vector([0, 0]))
