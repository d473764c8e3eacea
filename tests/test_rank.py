import random
from collections import Counter
from fractions import Fraction

import pytest

import maxplus.rank as rank_module
from maxplus.semiring import square_grid
from maxplus import (
    Matrix,
    Permutation,
    PreconditionError,
    ShapeError,
    classify,
    hclass_contains,
    idempotent_family,
    idempotent_rank,
    is_idempotent,
    is_strongly_regular,
    permanent,
    to_matrix,
    zero_diag_regularity,
)

from helpers import (
    HEX_ASYM,
    HEX_SYM,
    TRIANGLE,
    brute_permanent,
    cycle_grid,
    rand_matrix,
    rand_metric,
    rand_semimetric,
    same_column_space,
    star_closed_zero_diag,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.fixture
def augments(monkeypatch):
    """Counts the rows that the assignment's column reduction leaves to augment."""
    counts = Counter()
    augment = rank_module._augment

    def counted(*args):
        counts["rows"] += 1
        return augment(*args)

    monkeypatch.setattr(rank_module, "_augment", counted)
    return counts


def test_permanent_examples():
    res = permanent(HEX_ASYM)
    assert res.value == Fraction(0)
    assert res.attaining_unique
    assert res.witness == Permutation.identity(3)

    flat = permanent(Matrix([[0, 0], [0, 0]]))
    assert flat.value == Fraction(0)
    assert not flat.attaining_unique

    res = permanent(HEX_SYM)
    assert res.value == Fraction(0) and res.attaining_unique


def test_permanent_requires_square():
    with pytest.raises(ShapeError):
        permanent(Matrix([[0, 1]]))


def test_permanent_matches_brute_force():
    rng = random.Random(71)
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 7))
        res = permanent(a)
        value, count, _ = brute_permanent(a)
        assert res.value == value
        assert res.attaining_unique == (count == 1)
        assert sum(a[i, res.witness(i)] for i in range(a.rows)) == value


def test_permanent_witness_on_tie():
    # Both permutations attain 0; whichever witness comes back must attain it.
    res = permanent(Matrix([[0, 0], [0, 0]]))
    assert sum(res.witness(i) is not None for i in range(2)) == 2


def test_permanent_uniqueness_under_heavy_ties():
    # small entry alphabet forces many optimal-permutation ties
    rng = random.Random(75)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = Matrix(
            [
                [Fraction(rng.choice((-1, 0, 0, 1)), rng.choice((1, 2))) for _ in range(n)]
                for _ in range(n)
            ]
        )
        res = permanent(a)
        value, count, _ = brute_permanent(a)
        assert res.value == value
        assert res.attaining_unique == (count == 1)


def test_permanent_after_column_reduction_matches_brute_force(augments):
    """Value, uniqueness flag and witness against enumeration, n <= 7.

    Entries in -2..2 make ties common, in the column minima that the
    reduction matches and among optimal permutations; prime denominators
    make them rare.  The reduction matches every row of some matrices and
    leaves rows to augment in others.
    """
    rng = random.Random(76)
    seen = Counter()
    for k in range(240):
        n = rng.randint(1, 7 if k % 4 == 0 else 5)
        if k % 2:
            a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        else:
            a = Matrix([[Fraction(rng.randint(-30, 30), rng.choice(PRIMES)) for _ in range(n)] for _ in range(n)])
        augments["rows"] = 0
        res = permanent(a)
        value, count, _ = brute_permanent(a)
        assert res.value == value
        assert res.attaining_unique == (count == 1)
        assert sum(a[i, res.witness(i)] for i in range(n)) == value
        seen["augmented" if augments["rows"] else "reduced"] += 1
        seen["tie"] += count > 1
    assert seen["augmented"] >= 100 and seen["reduced"] >= 40 and seen["tie"] >= 20, seen


def test_zero_diagonal_with_negative_off_diagonal_needs_no_augmenting(augments):
    """A gate: the column reduction matches every row, so the assignment costs O(n^2).

    The least cost of column j is its diagonal 0, and no other: every other
    cost is positive.  Semimetric matrices reach the assignment through
    ``classify`` and ``hclass_contains``.
    """
    rng = random.Random(77)
    cases = [Matrix([[-x for x in row] for row in cycle_grid(n)]) for n in (2, 7, 16)]
    for _ in range(10):
        n = rng.randint(2, 9)
        grid = [[Fraction(-rng.randint(1, 40), rng.choice(PRIMES)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            grid[i][i] = Fraction(0)
        cases.append(Matrix(grid))  # not idempotent in general
    for a in cases:
        res = permanent(a)
        assert res.value == 0 and res.attaining_unique and res.witness == Permutation.identity(a.rows)
    semimetrics = [to_matrix(rand_semimetric(rng, rng.randint(2, 9))) for _ in range(6)]
    metrics = [to_matrix(rand_metric(rng, rng.randint(2, 9))) for _ in range(6)]
    for m in semimetrics + metrics:
        assert classify(m).is_semimetric_matrix
    for m in metrics:
        assert hclass_contains(m, m)
    assert augments["rows"] == 0
    assert permanent(Matrix([[0, 1], [-1, 0]])).value == 0 and augments["rows"] == 1  # one positive entry


def textbook_augment(cost, u, v, p, i):
    """The e-maxx Hungarian step, which moves every dual after each Dijkstra step."""
    n = len(cost)
    p[n] = i
    j0 = n
    minv = [None] * (n + 1)
    used = [False] * (n + 1)
    way = [n] * (n + 1)
    while True:
        used[j0] = True
        i0 = p[j0]
        delta = None
        j1 = None
        row = cost[i0]
        ui = u[i0]
        for j in range(n):
            if used[j]:
                continue
            cur = row[j] - ui - v[j]
            m = minv[j]
            if m is None or cur < m:
                minv[j] = m = cur
                way[j] = j0
            if delta is None or m < delta:
                delta = m
                j1 = j
        for j in range(n + 1):
            if used[j]:
                u[p[j]] += delta
                v[j] -= delta
            else:
                minv[j] -= delta
        j0 = j1
        if p[j0] == n:
            break
    while j0 != n:
        j1 = way[j0]
        p[j0] = p[j1]
        j0 = j1


def test_lazy_duals_match_the_textbook_step(monkeypatch, augments):
    """Images and duals of the assignment equal those of the textbook step.

    Entries from {-1, 0, 1} and from -3..3 tie often, in the least slacks
    and among the column distances, and so test that both steps break
    ties alike; prime denominators make large distances.  The value and
    uniqueness flag are checked against enumeration elsewhere.
    """
    rng = random.Random(78)
    grids = []
    for k in range(2100):
        n = rng.randint(1, 12)
        if k % 3 == 0:
            grids.append([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
        elif k % 3 == 1:
            grids.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        else:
            grids.append([[Fraction(rng.randint(-30, 30), rng.choice(PRIMES)) for _ in range(n)] for _ in range(n)])
    for _ in range(50):
        grids.append([[Fraction(rng.randint(-30, 30), rng.choice(PRIMES)) for _ in range(32)] for _ in range(32)])
    augmented = 0
    for grid in grids:
        weights, _ = square_grid(Matrix(grid))
        cost = [[-x for x in row] for row in weights]
        augments["rows"] = 0
        lazy = rank_module._max_assignment(cost)
        augmented += augments["rows"] > 0
        with monkeypatch.context() as patch:
            patch.setattr(rank_module, "_augment", textbook_augment)
            assert rank_module._max_assignment(cost) == lazy
    assert augmented >= 1500


def test_is_strongly_regular_examples():
    assert is_strongly_regular(TRIANGLE)
    assert not is_strongly_regular(Matrix([[0, 0], [0, 0]]))
    assert is_strongly_regular(HEX_SYM)


def test_zero_diag_regularity_examples():
    assert zero_diag_regularity(TRIANGLE)
    assert not zero_diag_regularity(Matrix([[0, 0], [0, 0]]))
    assert zero_diag_regularity(HEX_SYM)


def test_zero_diag_regularity_preconditions():
    with pytest.raises(PreconditionError, match="idempotent"):
        zero_diag_regularity(Matrix([[1]]))
    with pytest.raises(PreconditionError, match="diagonal"):
        zero_diag_regularity(Matrix([[0, 0], [-1, -1]]))


def test_zero_diag_regularity_random_agreement():
    # the pairwise test is asserted against the permanent inside the call
    rng = random.Random(72)
    for _ in range(25):
        e = star_closed_zero_diag(rng, rng.randint(2, 5))
        zero_diag_regularity(e)


def test_idempotent_rank_examples():
    assert idempotent_rank(HEX_ASYM) == 3
    assert idempotent_rank(Matrix([[0, 0], [0, 0]])) == 1
    assert idempotent_rank(Matrix([[0, -1], [0, -1]])) == 1


def test_idempotent_rank_bounds():
    rng = random.Random(73)
    for _ in range(25):
        e = star_closed_zero_diag(rng, rng.randint(2, 5))
        r = idempotent_rank(e)
        zeros = sum(1 for i in range(e.rows) if e[i, i] == 0)
        assert 1 <= r <= zeros
        assert (r == e.rows) == is_strongly_regular(e)


def test_idempotent_rank_requires_idempotent():
    with pytest.raises(PreconditionError):
        idempotent_rank(Matrix([[1]]))


def test_idempotent_family_scales_lowest_redundant_column():
    flat = Matrix([[0, 0], [0, 0]])
    assert idempotent_family(flat, -1) == Matrix([[-1, 0], [-1, 0]])
    assert idempotent_family(flat, -2) == Matrix([[-2, 0], [-2, 0]])


def test_idempotent_family_properties():
    rng = random.Random(74)
    flat = Matrix([[0, 0], [0, 0]])
    seen = set()
    for k in range(1, 6):
        lam = Fraction(-k, 2)
        member = idempotent_family(flat, lam)
        assert is_idempotent(member)
        assert member != flat
        assert same_column_space(member, flat)
        assert member not in seen  # injective in the parameter
        seen.add(member)
    for _ in range(12):
        e = star_closed_zero_diag(rng, rng.randint(2, 4))
        if is_strongly_regular(e):
            continue
        member = idempotent_family(e, Fraction(-3, 2))
        assert is_idempotent(member)
        assert member != e
        assert same_column_space(member, e)


def test_idempotent_family_errors():
    with pytest.raises(PreconditionError, match="strongly regular"):
        idempotent_family(TRIANGLE, -1)
    with pytest.raises(PreconditionError, match="negative"):
        idempotent_family(Matrix([[0, 0], [0, 0]]), 0)
    with pytest.raises(PreconditionError, match="idempotent"):
        idempotent_family(Matrix([[1]]), -1)
