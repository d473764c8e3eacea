import random
from collections import Counter
from fractions import Fraction

import pytest

import maxplus.metric as metric_module

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
    brute_validate,
    cube_grid,
    cycle_grid,
    directed_cycle_grid,
    rand_matrix,
    rand_metric,
    rand_scalar,
    rand_semimetric,
    rand_vector,
    rand_zero_diag,
    scan_validate,
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
    assert repr(from_matrix(Matrix([[0, "-1/2"], [-2, 0]]))) == "DistanceTable(2 points: 0 1/2; 2 0)"


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
    # a repeated point is skipped: [x, x, y] answers as [x, y] does
    for x, y in ((Vector([0, 1]), Vector([1, 0])), (Vector([0, 0]), Vector([0, 1]))):
        assert is_antichain([x, x, y]) == is_antichain([x, y])


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


# ``validate`` skips a pair (i, j) when d(i, j) <= low_out[i] + low_in[j],
# the least entries of row i and column j off the diagonal, and on a
# symmetric table scans only pairs with j >= i.  The tables below sit at the
# edge of that bound, so that both the skipped and the scanned pairs matter.


def band_grid(rng, n, m, symmetric):
    """Off-diagonal entries in [m, 2m], so every pair is within the bound; a metric when symmetric."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and not (symmetric and j < i):
                grid[i][j] = Fraction(rng.randint(2 * m, 4 * m), 2)
                if symmetric:
                    grid[j][i] = grid[i][j]
    return grid


def distinct_grid(rng, n):
    """A metric with distinct distances in [48, 96]."""
    values = iter(rng.sample(range(48 * 32, 96 * 32 + 1), n * (n - 1) // 2))
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = grid[j][i] = Fraction(next(values), 32)
    return grid


def perturbed(rng, grid):
    """``grid`` with one off-diagonal entry moved by +-1/2 or +-1, or to 1/2
    past its shortest detour, and its mirror too half the time."""
    n = len(grid)
    grid = [list(row) for row in grid]
    i, j = rng.sample(range(n), 2)
    if n > 2 and rng.random() < 0.4:
        grid[i][j] = min(grid[i][k] + grid[k][j] for k in range(n) if k not in (i, j)) + Fraction(1, 2)
    else:
        grid[i][j] += rng.choice((Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)))
    if rng.random() < 0.5:
        grid[j][i] = grid[i][j]
    return grid


def edge_table(rng, kind):
    if kind == "pushed":  # one entry at 2m + 1/2, just past the bound of a band
        n, m = rng.randint(3, 10), rng.randint(1, 4)
        grid = [[Fraction(0 if i == j else rng.randint(m, 2 * m)) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            grid = [[grid[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        i, j = rng.sample(range(n), 2)
        grid[i][j] = 2 * m + Fraction(1, 2)
        if rng.random() < 0.5:
            grid[j][i] = grid[i][j]
        return grid
    if kind == "negative":  # symmetric with negative entries: diagonal witnesses
        n = rng.randint(2, 8)
        grid = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                grid[i][j] = grid[j][i] = Fraction(rng.randint(-3, 8), rng.choice((1, 2)))
        return grid
    if kind == "tiny":
        n = rng.randint(1, 2)
        grid = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for j in range(n)] for i in range(n)]
        for i in range(n):
            grid[i][i] = Fraction(0)
        return grid
    return perturbed(rng, cycle_grid(rng.randint(3, 12)))


def test_validate_matches_brute_force_at_the_edge_of_its_bound():
    rng = random.Random(230)
    levels, diagonal, pushed = Counter(), 0, 0
    for t in range(400):
        kind = ("pushed", "negative", "tiny", "cycle")[t % 4]
        table = DistanceTable(edge_table(rng, kind))
        res = validate(table)
        assert (int(res.level), res.witness) == brute_validate(table)
        levels[int(res.level)] += 1
        if res.level == DistanceClass.NOT_TRIANGLE:
            diagonal += res.witness[0] == res.witness[2]
            pushed += kind == "pushed"
    assert set(levels) == {0, 1, 2, 3} and min(levels.values()) >= 10
    assert diagonal >= 20 and pushed >= 20
    assert validate(DistanceTable([[0, -1], [-1, 0]])).witness == (0, 1, 0)


def test_validate_matches_the_full_scan_up_to_40_points():
    rng = random.Random(231)
    seen = Counter()
    for n in (2, 3, 5, 8, 13, 21, 32, 40):
        bases = [
            band_grid(rng, n, rng.randint(1, 9), True),
            band_grid(rng, n, rng.randint(1, 9), False),
            cycle_grid(n),
            distinct_grid(rng, n),
        ]
        if n in (2, 8, 32):
            bases.append(cube_grid(n.bit_length() - 1))
        for grid in bases:
            for g in (grid, perturbed(rng, grid)):
                table = DistanceTable(g)
                res = validate(table)
                assert (int(res.level), res.witness) == scan_validate(table)
                seen[int(res.level)] += 1
    assert seen[0] >= 10 and seen[2] >= 10 and seen[3] >= 30


@pytest.fixture
def scans(monkeypatch):
    """Counts the additions of ``validate``'s triangle scans; one scan of n
    points makes n, through ``metric.add``."""
    counts = Counter()

    def counted(a, b):
        counts["add"] += 1
        return a + b

    monkeypatch.setattr(metric_module, "add", counted)
    return counts


def test_validate_scans_only_pairs_outside_the_bound(scans):
    rng = random.Random(232)
    for grid in (band_grid(rng, 24, 5, True), band_grid(rng, 24, 5, False), distinct_grid(rng, 24)):
        assert validate(DistanceTable(grid)).level >= DistanceClass.SEMIMETRIC
        assert scans["add"] == 0
    # on a cycle every off-diagonal bound is 1 + 1, so the pairs at distance
    # 3 or more are scanned: on the symmetric cycle only those with j >= i
    n = 32
    grid = cycle_grid(n)
    assert validate(DistanceTable(grid)).level == DistanceClass.METRIC
    far = [(i, j) for i in range(n) for j in range(n) if grid[i][j] > 2]
    assert scans["add"] == n * len(far) // 2
    scans.clear()
    grid = directed_cycle_grid(n)
    assert validate(DistanceTable(grid)).level == DistanceClass.SEMIMETRIC
    assert scans["add"] == n * sum(grid[i][j] > 2 for i in range(n) for j in range(n))
