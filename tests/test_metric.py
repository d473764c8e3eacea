import random
from fractions import Fraction

import pytest

from maxplus import (
    DistanceClass,
    DistanceTable,
    Matrix,
    PreconditionError,
    ShapeError,
    Vector,
    classify,
    embed,
    from_matrix,
    hilbert_distance,
    is_antichain,
    membership,
    residuation_bound_check,
    residuation_distance,
    scale,
    to_matrix,
    validate,
)

from helpers import (
    CLAW,
    HEX_ASYM,
    HEX_SYM,
    TRIANGLE,
    rand_matrix,
    rand_metric,
    rand_scalar,
    rand_semimetric,
    rand_vector,
    rand_zero_diag,
    star_closed_zero_diag,
)


def test_distance_table_requires_zero_diagonal():
    with pytest.raises(PreconditionError):
        DistanceTable([[1]])
    with pytest.raises(ShapeError):
        DistanceTable([[0, 1]])


def test_validate_examples():
    assert validate(CLAW).level is DistanceClass.METRIC

    hex_induced = from_matrix(HEX_ASYM)
    res = validate(hex_induced)
    assert res.level is DistanceClass.SEMIMETRIC
    i, j = res.witness
    assert hex_induced.d(i, j) != hex_induced.d(j, i)

    broken = [[Fraction(e) for e in row] for row in CLAW.entries]
    broken[0][1] = broken[1][0] = Fraction(5)
    res = validate(DistanceTable(broken))
    assert res.level is DistanceClass.NOT_TRIANGLE
    i, k, j = res.witness
    t = DistanceTable(broken)
    assert t.d(i, j) > t.d(i, k) + t.d(k, j)


def test_validate_pre_semimetric():
    nonsep = DistanceTable([[0, 0], [1, 0]])
    assert validate(nonsep).level is DistanceClass.PRE_SEMIMETRIC
    # a negative distance can coexist with the triangle inequality
    negative = DistanceTable([["0", "-1"], ["5", "0"]])
    assert validate(negative).level is DistanceClass.PRE_SEMIMETRIC
    shifted = from_matrix(star_closed_zero_diag(random.Random(5), 3))
    assert validate(shifted).level >= DistanceClass.PRE_SEMIMETRIC


def test_matrix_conversion_round_trip():
    assert to_matrix(from_matrix(HEX_SYM)) == HEX_SYM
    d = from_matrix(HEX_SYM)
    assert from_matrix(to_matrix(d)) == d
    assert to_matrix(CLAW) == Matrix(
        [[0, -2, -2, -1], [-2, 0, -2, -1], [-2, -2, 0, -1], [-1, -1, -1, 0]]
    )
    with pytest.raises(PreconditionError):
        from_matrix(Matrix([[1]]))


def test_classify_golden_matrices():
    a = classify(TRIANGLE)
    assert a.idempotent and a.strongly_regular and a.zero_diagonal
    assert not a.off_diagonal_negative
    assert not a.is_semimetric_matrix and not a.is_metric_matrix

    b = classify(HEX_ASYM)
    assert b.is_semimetric_matrix and not b.is_metric_matrix
    assert b.kleene_fixed and b.origin_in_interior and not b.symmetric

    c = classify(HEX_SYM)
    assert c.is_metric_matrix and c.is_semimetric_matrix and c.symmetric
    assert c.columns_sum_to_zero and c.rows_sum_to_zero



def test_classify_never_raises_on_arbitrary_input():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rng.choice(
            (
                rand_matrix(rng, n),
                rand_zero_diag(rng, n),
                star_closed_zero_diag(rng, n),
            )
        )
        report = classify(a)
        assert report.is_metric_matrix == (report.is_semimetric_matrix and report.symmetric)


def test_classify_generated_semimetrics_and_metrics():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(2, 5)
        semi = classify(to_matrix(rand_semimetric(rng, n)))
        assert semi.is_semimetric_matrix
        met = classify(to_matrix(rand_metric(rng, n)))
        assert met.is_metric_matrix


def test_two_by_two_family():
    # E = [[0,k],[l,0]] is idempotent iff k+l <= 0, full rank iff k+l < 0,
    # a semimetric matrix iff k,l < 0, and a metric matrix iff also k == l
    from maxplus import is_idempotent, is_strongly_regular

    for k in (-3, -1, 0, 1):
        for l in (-3, -1, 0, 1):
            e = Matrix([[0, k], [l, 0]])
            assert is_idempotent(e) == (k + l <= 0)
            if k + l > 0:
                continue
            assert is_strongly_regular(e) == (k + l < 0)
            rep = classify(e)
            assert rep.is_semimetric_matrix == (k < 0 and l < 0)
            assert rep.is_metric_matrix == (k < 0 and l < 0 and k == l)


def test_residuation_distance_examples():
    x = rand_vector(random.Random(1), 4)
    assert residuation_distance(x, x) == 0
    a = Vector([0, -2, -2, -1])
    d = Vector([-1, -1, -1, 0])
    assert residuation_distance(a, d) == Fraction(1)
    assert residuation_distance(Vector([0, 0]), Vector([0, 1])) == Fraction(0)


def test_residuation_distance_triangle_law():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 5)
        x, y, z = (rand_vector(rng, n) for _ in range(3))
        assert residuation_distance(x, z) <= residuation_distance(x, y) + residuation_distance(y, z)


def test_hilbert_distance_examples():
    c2, c3 = HEX_SYM.col(1), HEX_SYM.col(2)
    assert hilbert_distance(c2, c3) == Fraction(1)
    rng = random.Random(54)
    x = rand_vector(rng, 4)
    assert hilbert_distance(x, scale(rand_scalar(rng), x)) == 0
    cube = to_matrix(CLAW)
    assert hilbert_distance(cube.col(0), cube.col(1)) == Fraction(2)


def test_hilbert_distance_properties():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randint(1, 5)
        x, y = rand_vector(rng, n), rand_vector(rng, n)
        dh = hilbert_distance(x, y)
        assert dh == hilbert_distance(y, x)
        assert dh >= 0
        assert hilbert_distance(scale(rand_scalar(rng), x), y) == dh


def test_is_antichain():
    assert is_antichain(HEX_ASYM.column_vectors())
    assert not is_antichain([Vector([0, 0]), Vector([0, 1])])
    assert is_antichain([Vector([3, 1])])


def test_embed_claw():
    points = embed(CLAW)
    assert points == [
        Vector([0, -2, -2, -1]),
        Vector([-2, 0, -2, -1]),
        Vector([-2, -2, 0, -1]),
        Vector([-1, -1, -1, 0]),
    ]
    for i in range(4):
        for j in range(4):
            assert residuation_distance(points[i], points[j]) == CLAW.d(i, j)
            assert hilbert_distance(points[i], points[j]) == CLAW.d(i, j)
    assert is_antichain(points)


def test_embed_hexagon_metric():
    points = embed(from_matrix(HEX_SYM))
    assert hilbert_distance(points[0], points[1]) == Fraction(3, 2)


def test_embed_one_point_space():
    assert embed(DistanceTable([[0]])) == [Vector([0])]


def test_embed_rejects_non_semimetric():
    with pytest.raises(PreconditionError):
        embed(DistanceTable([[0, 0], [0, 0]]))


def test_embed_realization_random():
    from maxplus import extremal_columns, is_strongly_regular

    rng = random.Random(56)
    for symmetric in (False, True):
        for _ in range(8):
            n = rng.randint(1, 5)
            table = rand_semimetric(rng, n, symmetric=symmetric)
            points = embed(table)
            assert is_antichain(points)
            for i in range(n):
                for j in range(n):
                    assert residuation_distance(points[i], points[j]) == table.d(i, j)
                    if symmetric:
                        assert hilbert_distance(points[i], points[j]) == table.d(i, j)
            # the embedded points are exactly the extremal columns of the
            # associated strongly regular idempotent
            mat = to_matrix(table)
            assert is_strongly_regular(mat)
            assert extremal_columns(mat) == list(range(n))


def test_residuation_bound_check():
    assert residuation_bound_check(HEX_SYM)
    assert residuation_bound_check(Matrix([[0, 0], [-1, -1]]))
    assert residuation_bound_check(TRIANGLE)
    with pytest.raises(PreconditionError):
        residuation_bound_check(Matrix([[1]]))


def test_distinct_semimetrics_have_distinct_polytropes():
    rng = random.Random(57)
    for _ in range(10):
        n = rng.randint(2, 5)
        d1 = to_matrix(rand_semimetric(rng, n))
        d2 = to_matrix(rand_semimetric(rng, n))
        if d1 == d2:
            continue
        cols1, cols2 = d1.column_vectors(), d2.column_vectors()
        mutual = all(membership(cols1, c).member for c in cols2) and all(
            membership(cols2, c).member for c in cols1
        )
        assert not mutual
