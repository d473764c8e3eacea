import random
from fractions import Fraction

import pytest

from maxplus import (
    Matrix,
    ShapeError,
    eigenvalue,
    is_idempotent,
    kleene_star,
    star_fixed_point_check,
    validate,
    from_matrix,
    DistanceClass,
)

from helpers import (
    GOLDEN_IDEMPOTENTS,
    HEX_ASYM,
    brute_cycle_mean,
    rand_matrix,
    rand_zero_diag,
    series_star,
    shift_nonpositive,
    star_closed_zero_diag,
)


def test_eigenvalue_examples():
    assert eigenvalue(HEX_ASYM) == Fraction(0)
    assert eigenvalue(Matrix([["7/3"]])) == Fraction(7, 3)
    assert eigenvalue(Matrix([[-2]])) == Fraction(-2)
    assert eigenvalue(Matrix([[-5, 0], [-2, -5]])) == Fraction(-1)


def test_eigenvalue_requires_square():
    with pytest.raises(ShapeError):
        eigenvalue(Matrix([[0, 1]]))


def test_eigenvalue_matches_cycle_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 5))
        assert eigenvalue(a) == brute_cycle_mean(a)


def test_kleene_star_examples():
    res = kleene_star(Matrix([[-5, 0], [-2, -5]]))
    assert res.converges and res.eigenvalue == Fraction(-1)
    assert res.star == Matrix([[0, 0], [-2, 0]])

    fixed = kleene_star(HEX_ASYM)
    assert fixed.converges and fixed.star == HEX_ASYM

    diverged = kleene_star(Matrix([[1]]))
    assert not diverged.converges
    assert diverged.star is None
    assert diverged.eigenvalue == Fraction(1)


def test_kleene_star_matches_series_oracle():
    rng = random.Random(42)
    for _ in range(40):
        a = shift_nonpositive(rng, rand_matrix(rng, rng.randint(1, 5)))
        res = kleene_star(a)
        assert res.converges
        assert res.star == series_star(a)


def test_star_is_idempotent_zero_diag_and_stable():
    rng = random.Random(43)
    for _ in range(25):
        a = shift_nonpositive(rng, rand_matrix(rng, rng.randint(1, 5)))
        star = kleene_star(a).star
        assert is_idempotent(star)
        assert all(star[i, i] == 0 for i in range(star.rows))
        assert kleene_star(star).star == star  # star of a star is itself


def test_is_idempotent_examples():
    assert is_idempotent(Matrix([[0, 0, 0], [-3, 0, 0], [-3, -3, 0]]))
    assert not is_idempotent(Matrix([[0, 0], [0, -1]]))
    assert not is_idempotent(Matrix([[1]]))


def test_star_fixed_point_examples():
    assert star_fixed_point_check(HEX_ASYM)
    assert not star_fixed_point_check(Matrix([[0, 0], [-1, -1]]))  # idempotent, bad diagonal
    assert star_fixed_point_check(Matrix([[0]]))
    assert not star_fixed_point_check(Matrix([[1]]))


def test_idempotents_have_eigenvalue_zero():
    rng = random.Random(44)
    for e in GOLDEN_IDEMPOTENTS:
        assert eigenvalue(e) == 0
    for _ in range(10):
        assert eigenvalue(star_closed_zero_diag(rng, rng.randint(2, 5))) == 0


def test_triangle_idempotency_star_equivalence():
    # For zero-diagonal matrices the triangle inequality of the negated
    # table, idempotency, and being star-fixed are one and the same.
    rng = random.Random(45)
    cases = [star_closed_zero_diag(rng, rng.randint(2, 5)) for _ in range(20)]
    cases += [rand_zero_diag(rng, rng.randint(2, 5)) for _ in range(20)]
    for a in cases:
        triangle = validate(from_matrix(a)).level >= DistanceClass.PRE_SEMIMETRIC
        assert triangle == is_idempotent(a) == star_fixed_point_check(a)
