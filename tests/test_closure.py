import operator
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
    to_matrix,
    DistanceClass,
)
from maxplus.matio import parse_matrix

import hostile_tmat
from helpers import (
    GOLDEN_IDEMPOTENTS,
    HEX_ASYM,
    brute_cycle_mean,
    brute_mat_mul,
    cycle_grid,
    karp_eigenvalue,
    rand_matrix,
    rand_metric,
    rand_semimetric,
    rand_zero_diag,
    series_star,
    shift_nonpositive,
    star_closed_zero_diag,
)


# ``eigenvalue`` runs Howard's policy iteration for at most n rounds, one
# call to ``closure._policy_value`` each, and falls back on Karp's formula
# when no round settles.  A round's improvement step makes n^2 calls to
# ``closure.add``.


class Trace(Counter):
    """Counts of ``closure.add`` calls, policy rounds and Karp fallbacks.

    ``last`` is the latest round: its grid, its policy (a list that the
    round and the improvement step after it change in place) and its
    result (p, q, bias).
    """

    last = None


@pytest.fixture
def recurrence(monkeypatch):
    counts = Trace()

    def counted(a, b):
        counts["add"] += 1
        return a + b

    policy_value = closure_module._policy_value

    def policy_round(grid, policy):
        counts["round"] += 1
        result = policy_value(grid, policy)
        counts.last = grid, policy, result
        return result

    karp_mean = closure_module._karp_mean

    def fallback(walks, den):
        counts["fallback"] += 1
        return karp_mean(walks, den)

    monkeypatch.setattr(closure_module, "add", counted)
    monkeypatch.setattr(closure_module, "_policy_value", policy_round)
    monkeypatch.setattr(closure_module, "_karp_mean", fallback)
    return counts


def traced_eigenvalue(recurrence, a):
    """``eigenvalue(a)`` and how it ended: the length q of the certified cycle, or None for Karp's formula."""
    fallbacks = recurrence["fallback"]
    value = eigenvalue(a)
    if recurrence["fallback"] > fallbacks:
        return value, None
    return value, recurrence.last[2][1]


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
    one to node n - 1 goes there at once and stays (-10), so no walk from
    node 0 up to n = 1000 is periodic.  Policy iteration settles it in one
    round: the first policy's best cycle is the loop at n - 1, and every
    other node is pointed straight at it.
    """
    grid = [[Fraction(-10)] * n for _ in range(n)]
    grid[0][0], grid[n - 1][n - 1] = Fraction(-1, 100), Fraction(0)
    return Matrix(grid)


def hostile_matrix(n):
    return parse_matrix(hostile_tmat.text(n))


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
            value, length = traced_eigenvalue(recurrence, a)
            assert value == brute_cycle_mean(a)
            ends["fallback" if length is None else "exit"] += 1
    # n rounds seldom fail to settle, and mostly where n is 2 or 3
    for n in (2, 3):
        for _ in range(600):
            a = spectral_matrix(rng, n)
            value, length = traced_eigenvalue(recurrence, a)
            assert value == brute_cycle_mean(a)
            ends["fallback" if length is None else "exit"] += 1
    assert ends["exit"] >= 100 and ends["fallback"] >= 20, ends


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


DENOMINATORS = (1, 2, 3, 7)


def scalar(rng, lo, hi):
    q = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(lo * q, hi * q), q)


def hub_matrix(rng, n, q):
    """-d for distances through a hub, point 0: d(i, j) = s_i + s_j, on multiples of 1/q.

    Each pair of leaves sits exactly at its bound hi_out[i] + hi_in[j], as
    both maxima are attained at the hub.
    """
    s = [Fraction(0)] + [Fraction(rng.randint(q, 6 * q), q) for _ in range(n - 1)]
    return Matrix([[-(s[i] + s[j]) * (i != j) for j in range(n)] for i in range(n)])


def zero_diag(rng, n, lo, hi):
    return Matrix([[Fraction(0) if i == j else scalar(rng, lo, hi) for j in range(n)] for i in range(n)])


def rank_one_idempotent(rng, n):
    """x (x) y - c with c = max(y_i + x_i): its square is x (x) (y (x) x) (x) y - 2c, itself.

    The diagonal x_i + y_i - c is 0 only where the maximum is attained.
    """
    x = [scalar(rng, -6, 6) for _ in range(n)]
    y = [scalar(rng, -6, 6) for _ in range(n)]
    c = max(map(operator.add, x, y))
    return Matrix([[xi + yj - c for yj in y] for xi in x])


def at_the_bound(rng, a, q):
    """``a`` with one off-diagonal entry moved to hi_out[i] + hi_in[j], then by 0 or +-1/q."""
    n = a.rows
    grid = [list(row) for row in a.entries]
    i, j = rng.sample(range(n), 2)
    bound = max(grid[i][:i] + grid[i][i + 1 :]) + max(grid[k][j] for k in range(n) if k != j)
    grid[i][j] = bound + Fraction(rng.choice((-1, 0, 1)), q)
    return Matrix(grid)


def settled_rows(a):
    """Rows i whose every a_ij - hi_in[j] is at least hi_out[i], from the Fraction entries."""
    grid = a.entries
    n = len(grid)
    hi_in = [max(grid[k][j] for k in range(n) if k != j) for j in range(n)]
    return sum(
        min(x - h for x, h in zip(row, hi_in)) >= max(row[:i] + row[i + 1 :]) for i, row in enumerate(grid)
    )


def test_is_idempotent_matches_the_product(recurrence):
    """A randomized oracle: the bound-pruned scan answers what (A (x) A) == A does.

    ``recurrence`` counts ``closure.add``: each pair the scan does not
    settle by its bounds costs n adds.  A False answer with no positive
    diagonal entry comes from a scanned pair that failed, and the scan
    stops there.
    """
    rng = random.Random(181)
    seen = Counter()
    for t in range(480):
        n = 1 + t % 12
        kind = t // 12 % 5
        if kind == 0:
            a = Matrix([[scalar(rng, -6, 6) for _ in range(n)] for _ in range(n)])
        elif kind == 1:
            a = zero_diag(rng, n, -6, 1)
        elif kind == 2:
            a = series_star(zero_diag(rng, min(n, 8), -6, 1))
        elif kind == 3:
            a = rank_one_idempotent(rng, n)
        else:
            # on a hub matrix over 1/q, a step of 1/q is one unit of the integer grid
            q = rng.choice(DENOMINATORS)
            if t % 3 == 0:
                e = rank_one_idempotent(rng, n)
            elif t % 3 == 1:
                e = series_star(zero_diag(rng, min(n, 8), -6, 0))
            else:
                e = hub_matrix(rng, n, q)
            a = at_the_bound(rng, e, q) if e.rows > 1 else e
        n = a.rows
        expected = Matrix(brute_mat_mul(a, a)) == a
        recurrence["add"] = 0
        assert is_idempotent(a) == expected, a.entries
        seen[expected] += 1
        if n == 1 or max(a[i, i] for i in range(n)) > 0:
            assert recurrence["add"] == 0  # answered before any scan
            continue
        pairs, rest = divmod(recurrence["add"], n)
        assert rest == 0
        seen["settled rows"] += settled_rows(a)
        seen["scanned, failed"] += not expected
        seen["scanned, passed"] += pairs - (not expected)
        seen["negative diagonal"] += expected and min(a[i, i] for i in range(n)) < 0
    assert seen[True] >= 150 and seen[False] >= 200, seen
    assert seen["settled rows"] >= 250 and seen["negative diagonal"] >= 60, seen
    assert seen["scanned, passed"] >= 3000 and seen["scanned, failed"] >= 80, seen


def unsettled_pairs(a):
    """The pairs (i, j) the scan would take on a matrix with no positive diagonal entry."""
    grid = a.entries
    n = len(grid)
    hi_in = [max(grid[k][j] for k in range(n) if k != j) for j in range(n)]
    return [
        (i, j)
        for i, row in enumerate(grid)
        for j in range(n)
        if row[j] - hi_in[j] < max(row[:i] + row[i + 1 :]) or grid[i][i] < 0 and grid[j][j] < 0
    ]


def test_is_idempotent_on_symmetric_matrices_scans_half(recurrence):
    """A randomized oracle on symmetric matrices, where only pairs with j >= i are scanned.

    The matrices are symmetrised random and zero-diagonal ones, rank-one
    idempotents x (x) x - c, whose diagonal is negative off the maximum of
    x, metric matrices and n-cycles, each also with one pair (i, j), (j, i)
    moved to its bound and then by 0 or +-1/q.  A True answer scans each
    unsettled pair with j >= i once, n adds each.
    """
    rng = random.Random(183)
    seen = Counter()
    for t in range(240):
        n = 2 + t % 10
        kind = t // 10 % 6
        if kind == 0:
            a = rand_matrix(rng, n)
        elif kind == 1:
            a = zero_diag(rng, n, -6, 1)
        elif kind == 2:
            x = [scalar(rng, -6, 6) for _ in range(n)]
            a = Matrix([[xi + xj - 2 * max(x) for xj in x] for xi in x])
        elif kind == 3:
            a = to_matrix(rand_metric(rng, n))
        elif kind == 4:
            a = Matrix([[-x for x in row] for row in cycle_grid(n + 4)])
        else:
            a = hub_matrix(rng, n, rng.choice(DENOMINATORS))
        grid = [[max(x, y) for x, y in zip(row, col)] for row, col in zip(a.entries, zip(*a.entries))]
        if t % 2:
            i, j = rng.sample(range(len(grid)), 2)
            hi = [max(row[:k] + row[k + 1 :]) for k, row in enumerate(grid)]
            step = Fraction(rng.choice((-1, 0, 1)), rng.choice(DENOMINATORS))
            grid[i][j] = grid[j][i] = hi[i] + hi[j] + step
        a = Matrix(grid)
        expected = Matrix(brute_mat_mul(a, a)) == a
        recurrence["add"] = 0
        assert is_idempotent(a) == expected, a.entries
        seen[expected] += 1
        if expected:
            half = [(i, j) for i, j in unsettled_pairs(a) if j >= i]
            assert recurrence["add"] == len(half) * a.rows
            seen["scanned"] += len(half)
            seen["negative diagonal"] += min(a[i, i] for i in range(a.rows)) < 0
    assert seen[True] >= 90 and seen[False] >= 90, seen
    assert seen["scanned"] >= 1000 and seen["negative diagonal"] >= 15, seen


def test_is_idempotent_scans_only_the_pairs_its_bounds_leave(recurrence):
    """A gate on the scan's pair maxima, n adds each.

    A metric matrix is settled row by row when each distance is at most the
    nearest-neighbour distances of its two ends summed: distances in
    [c, 2c], distances through a hub, and the hostile files.  The n-cycle
    is symmetric, so it scans its pairs (i, j) at distance 3 or more with
    j >= i only, and a positive diagonal entry answers before any scan.
    """
    rng = random.Random(182)
    n = 16
    band = [[Fraction(0) if i == j else scalar(rng, 5, 10) for j in range(n)] for i in range(n)]
    cases = [
        (Matrix([[-x for x in row] for row in band]), True, 0),
        (hub_matrix(rng, n, 3), True, 0),
        (hostile_matrix(n), True, 0),
        (Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)]), False, 0),
    ]
    cases += [
        (Matrix([[-x for x in row] for row in cycle_grid(m)]), True, m * (m - 5) // 2) for m in (8, 16, 32)
    ]
    for a, answer, pairs in cases:
        recurrence["add"] = 0
        assert is_idempotent(a) == answer
        assert recurrence["add"] == pairs * a.rows
    # random metrics and semimetrics are not within the bound everywhere
    for table in (rand_metric(random.Random(215), n), rand_semimetric(random.Random(217), n)):
        recurrence["add"] = 0
        assert is_idempotent(to_matrix(table))
        assert 0 < recurrence["add"] < n * n * n


def test_is_idempotent_requires_square():
    with pytest.raises(ShapeError, match=r"^square matrix required, got 2x3$"):
        is_idempotent(Matrix([[0, -1, -2], [-1, 0, -1]]))


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
    """Values against Karp's formula; a gate: every matrix here settles, within 8 rounds."""
    rng = random.Random(171)
    ends = Counter()
    for n in (2, 3, 5, 8, 12, 16, 24, 32, 40):
        for _ in range(12 if n <= 16 else 4):
            for a in (spectral_matrix(rng, n), rand_matrix(rng, n)):
                recurrence["round"] = 0
                value, length = traced_eigenvalue(recurrence, a)
                assert value == karp_eigenvalue(a)
                ends["fallback" if length is None else "exit"] += 1
                ends["rounds > 8"] += recurrence["round"] > 8
    assert ends["exit"] == 168 and ends["fallback"] == ends["rounds > 8"] == 0, ends


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_eigenvalue_of_planted_critical_cycles(recurrence, sign):
    # the settling round certifies a planted cycle, of length 2-4 where it
    # has no loop; several critical cycles of equal mean, and means < 0,
    # = 0 and > 0
    rng = random.Random(173 + sign)
    periods = Counter()
    for lengths in ((2,), (3,), (4,), (2, 3), (3, 4), (2, 2, 4), (1, 3)):
        for n in (12, 20):
            mean = sign * Fraction(rng.randint(1, 20), rng.choice((1, 3, 7)))
            a = planted_cycles(rng, n, lengths, mean)
            value, period = traced_eigenvalue(recurrence, a)
            assert value == mean == karp_eigenvalue(a)
            periods[period] += 1
    assert sum(count for c, count in periods.items() if c is not None and c > 1) >= 12, periods


def test_policy_round_certificate(recurrence):
    """The settling round's bias X proves its mean p / q an upper bound on every cycle mean.

    On the grid of A: q a_ij - p + X_j <= X_i for every i and j, with
    equality along the final policy, whose walk from node 0 then ends in a
    cycle of mean exactly p / q.
    """
    rng = random.Random(175)
    settled = 0
    cases = [spectral_matrix(rng, rng.randint(1, 12)) for _ in range(60)]
    cases += [rand_matrix(rng, rng.randint(1, 12)) for _ in range(60)]
    cases += [planted_cycles(rng, 12, (3, 4), Fraction(rng.randint(-9, 9), 7)) for _ in range(10)]
    for a in cases:
        value, length = traced_eigenvalue(recurrence, a)
        assert value == karp_eigenvalue(a)
        if length is None:
            continue
        settled += 1
        grid, policy, (p, q, bias) = recurrence.last
        assert grid == closure_module.square_grid(a)[0] and q == length
        assert value == Fraction(p, q * closure_module.square_grid(a)[1])
        for i, row in enumerate(grid):
            assert max(q * x - p + y for x, y in zip(row, bias)) == bias[i]
            assert q * row[policy[i]] - p + bias[policy[i]] == bias[i]
        seen, v = [], 0
        while v not in seen:
            seen.append(v)
            v = policy[v]
        cycle = seen[seen.index(v) :]
        assert Fraction(sum(grid[u][policy[u]] for u in cycle), len(cycle)) == Fraction(p, q)
    assert settled >= 120


def test_long_transient_settles_in_one_policy_round(recurrence):
    """A gate: one round, the certificate of the loop at n - 1, and no Karp fallback."""
    assert long_transient(2) == Matrix([["-1/100", -10], [-10, 0]])
    for n in (2, 3, 7, 16, 33, 128):
        a = long_transient(n)
        for t in (0, Fraction(n, 3)):  # shifted by t, every cycle mean moves by t
            recurrence["round"] = 0
            assert traced_eigenvalue(recurrence, a.scale(t)) == (t, 1)
            assert recurrence["round"] == 1 and recurrence["fallback"] == 0
        assert karp_eigenvalue(a) == 0
        if n <= 7:
            assert brute_cycle_mean(a) == 0


def test_idempotents_settle_in_one_policy_round(recurrence):
    """A gate: the negation of a table that satisfies the triangle inequality settles in one O(n^2) round.

    The first policy takes a 0 entry in every row, so its best cycle has
    mean 0, and the bias it gives every node passes the improvement step:
    n^2 adds and no Karp fallback.
    """
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
        recurrence["add"] = recurrence["round"] = 0
        assert traced_eigenvalue(recurrence, e)[0] == 0
        assert recurrence["round"] == 1 and recurrence["fallback"] == 0
        assert recurrence["add"] == n * n
