import contextlib
import io
import random
from collections import Counter
from fractions import Fraction

import pytest

import maxplus.closure as closure_module
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
from maxplus.matio import parse_matrix

import hostile_tmat
from helpers import (
    GOLDEN_IDEMPOTENTS,
    HEX_ASYM,
    brute_cycle_mean,
    cycle_grid,
    karp_eigenvalue,
    rand_matrix,
    rand_zero_diag,
    series_star,
    shift_nonpositive,
    star_closed_zero_diag,
)


# ``eigenvalue`` stops at the first walk from node 0 that is periodic up to a
# constant, and falls back on Karp's formula when no walk is periodic by
# step n.  Each step of the recurrence makes n^2 calls to ``closure.add``.


@pytest.fixture
def recurrence(monkeypatch):
    """Counts ``closure.add`` calls and Karp fallbacks, and keeps the last ``Fraction`` built."""
    counts = Counter()

    def counted(a, b):
        counts["add"] += 1
        return a + b

    karp_mean = closure_module._karp_mean

    def fallback(walks, den):
        counts["fallback"] += 1
        return karp_mean(walks, den)

    def fraction(num, den):
        counts["den"] = den  # an early exit builds Fraction(s, c * D)
        return Fraction(num, den)

    monkeypatch.setattr(closure_module, "add", counted)
    monkeypatch.setattr(closure_module, "_karp_mean", fallback)
    monkeypatch.setattr(closure_module, "Fraction", fraction)
    return counts


def traced_eigenvalue(recurrence, a):
    """``eigenvalue(a)`` and how it ended: the period c of its exit, or None for Karp's formula."""
    fallbacks = recurrence["fallback"]
    value = eigenvalue(a)
    if recurrence["fallback"] > fallbacks:
        return value, None
    _, den = closure_module.square_grid(a)
    return value, recurrence["den"] // den


def spectral_matrix(rng, n):
    """Entries p/q with q a prime <= 47, as in the benchmark's spectral workload."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    return Matrix([[Fraction(rng.randint(-30, 30), rng.choice(primes)) for _ in range(n)] for _ in range(n)])


def planted_cycles(rng, n, lengths, mean):
    """Disjoint cycles of the given lengths, each of the given mean, in a heavy background.

    The background entries lie 12 to 24 below ``mean`` and the planted ones
    within 6 of it, so a cycle that leaves the planted ones has a smaller
    mean: the planted cycles are the critical ones.  None passes through
    node 0.
    """
    grid = [[mean + Fraction(rng.randint(-72, -36), 3) for _ in range(n)] for _ in range(n)]
    nodes = rng.sample(range(1, n), sum(lengths))
    for length in lengths:
        cycle, nodes = nodes[:length], nodes[length:]
        steps = [Fraction(rng.randint(-4, 4), 2) for _ in range(length - 1)]
        steps.append(-sum(steps))  # the steps sum to 0, so the cycle's mean is ``mean``
        for u, v, step in zip(cycle, cycle[1:] + cycle[:1], steps):
            grid[u][v] = mean + step
    return Matrix(grid)


def long_transient(n):
    """A loop of -1/100 at node 0 and a critical loop of 0 at node n - 1, behind edges of -10.

    For k < 1000 the best k-edge walk to node 0 stays there (-k/100), and the
    one to node n - 1 goes there at once and stays (-10), so no walk up to
    n = 1000 is periodic and the eigenvalue 0 comes from Karp's formula.
    """
    grid = [[Fraction(-10)] * n for _ in range(n)]
    grid[0][0], grid[n - 1][n - 1] = Fraction(-1, 100), Fraction(0)
    return Matrix(grid)


def hostile_matrix(n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        hostile_tmat.main(n)
    return parse_matrix(out.getvalue())


def test_eigenvalue_examples():
    assert eigenvalue(HEX_ASYM) == Fraction(0)
    assert eigenvalue(Matrix([["7/3"]])) == Fraction(7, 3)
    assert eigenvalue(Matrix([[-2]])) == Fraction(-2)
    assert eigenvalue(Matrix([[-5, 0], [-2, -5]])) == Fraction(-1)


def test_eigenvalue_requires_square():
    with pytest.raises(ShapeError):
        eigenvalue(Matrix([[0, 1]]))


def test_eigenvalue_matches_cycle_enumeration(recurrence):
    rng = random.Random(41)
    ends = Counter()
    for _ in range(40):
        a = rand_matrix(rng, rng.randint(1, 5))
        assert eigenvalue(a) == brute_cycle_mean(a)
    for n in range(2, 8):
        for _ in range(15):
            a = spectral_matrix(rng, n) if n % 2 else rand_matrix(rng, n)
            value, period = traced_eigenvalue(recurrence, a)
            assert value == brute_cycle_mean(a)
            ends["fallback" if period is None else "exit"] += 1
    assert ends["exit"] >= 20 and ends["fallback"] >= 20, ends


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


def test_eigenvalue_matches_the_full_recurrence(recurrence):
    rng = random.Random(171)
    ends = Counter()
    for n in (2, 3, 5, 8, 12, 16, 24, 32, 40):
        for _ in range(12 if n <= 16 else 4):
            for a in (spectral_matrix(rng, n), rand_matrix(rng, n)):
                value, period = traced_eigenvalue(recurrence, a)
                assert value == karp_eigenvalue(a)
                ends["fallback" if period is None else "exit"] += 1
    assert ends["exit"] >= 100 and ends["fallback"] >= 20, ends


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_eigenvalue_of_planted_critical_cycles(recurrence, sign):
    # cycles of length 2-4 make the walks periodic with c > 1; several
    # critical cycles of equal mean, and means < 0, = 0 and > 0
    rng = random.Random(173 + sign)
    periods = Counter()
    for lengths in ((2,), (3,), (4,), (2, 3), (3, 4), (2, 2, 4), (1, 3)):
        for n in (12, 20):
            mean = sign * Fraction(rng.randint(1, 20), rng.choice((1, 3, 7)))
            a = planted_cycles(rng, n, lengths, mean)
            value, period = traced_eigenvalue(recurrence, a)
            assert value == mean == karp_eigenvalue(a)
            periods[period] += 1
    # (3, 4) at n = 12 needs a period of 12, beyond step n: Karp's formula
    assert sum(count for c, count in periods.items() if c is not None and c > 1) >= 12, periods


def test_long_transient_falls_back_on_karp_after_all_n_steps(recurrence):
    assert long_transient(2) == Matrix([["-1/100", -10], [-10, 0]])
    for n in (2, 3, 7, 16, 33):
        a = long_transient(n)
        recurrence["add"] = 0
        assert traced_eigenvalue(recurrence, a) == (0, None)
        assert recurrence["add"] == (n - 1) * n * n
        assert karp_eigenvalue(a) == 0
        if n <= 7:
            assert brute_cycle_mean(a) == 0
        # shifted by t, walk k moves by k * t, so no walk becomes periodic
        t = Fraction(n, 3)
        assert traced_eigenvalue(recurrence, a.scale(t)) == (t, None)


def test_idempotents_cost_one_recurrence_step(recurrence):
    """A gate: E (x) E = E makes walk 2 equal walk 1, so n^2 adds and an exit with c = 1."""
    rng = random.Random(174)
    band = [[Fraction(rng.randint(10, 20), 2) if i != j else Fraction(0) for j in range(24)] for i in range(24)]
    cases = [
        Matrix([[-x for x in row] for row in cycle_grid(32)]),
        Matrix([[-x for x in row] for row in cycle_grid(7)]),
        Matrix([[-x for x in row] for row in band]),  # off-diagonal in [5, 10]: a semimetric
        hostile_matrix(6),
        *GOLDEN_IDEMPOTENTS,
    ]
    for e in cases:
        assert is_idempotent(e)
        n = e.rows
        recurrence["add"] = 0
        assert traced_eigenvalue(recurrence, e) == (0, 1)
        assert recurrence["add"] == n * n
