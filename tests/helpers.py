"""Seeded random generators and brute-force oracles shared by the tests."""

from fractions import Fraction
from itertools import permutations

from maxplus import (
    NEG_INF,
    DistanceTable,
    ExtMatrix,
    Matrix,
    Vector,
    eigenvalue,
    from_matrix,
    is_strongly_regular,
    kleene_star,
    membership,
    scale,
)
from maxplus.errors import PreconditionError
from maxplus.groups import _resolve_idempotent
from maxplus.polytope import in_span

# The three 3x3 golden idempotents: a polytrope with the origin on its
# boundary, an asymmetric hexagon (a semimetric), and a centrally
# symmetric hexagon (a metric).
TRIANGLE = Matrix([[0, 0, 0], [-3, 0, 0], [-3, -3, 0]])
HEX_ASYM = Matrix([[0, -1, -1], [-3, 0, -2], [-2, -1, 0]])
HEX_SYM = Matrix([["0", "-1.5", "-1.5"], ["-1.5", "0", "-1"], ["-1.5", "-1", "0"]])

# Four points: a hub at distance 1 from three leaves that are pairwise at
# distance 2.  Not embeddable in any Euclidean space.
CLAW = DistanceTable([[0, 2, 2, 1], [2, 0, 2, 1], [2, 2, 0, 1], [1, 1, 1, 0]])

GOLDEN_IDEMPOTENTS = (TRIANGLE, HEX_ASYM, HEX_SYM)


def rand_scalar(rng, lo=-6, hi=6, dens=(1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_vector(rng, n, lo=-6, hi=6):
    return Vector(rand_scalar(rng, lo, hi) for _ in range(n))


def rand_matrix(rng, n, lo=-6, hi=6):
    return Matrix([[rand_scalar(rng, lo, hi) for _ in range(n)] for _ in range(n)])


def rand_zero_diag(rng, n, lo=-6, hi=6):
    grid = [[rand_scalar(rng, lo, hi) for _ in range(n)] for i in range(n)]
    for i in range(n):
        grid[i][i] = Fraction(0)
    return Matrix(grid)


def shift_nonpositive(rng, a):
    """Shift all entries so the maximum cycle mean becomes 0 or negative."""
    lam = eigenvalue(a)
    extra = Fraction(rng.choice((0, 0, 1, 2)))
    return a.scale(-lam - extra)


def star_closed_zero_diag(rng, n):
    """A random zero-diagonal idempotent (the star of a shifted matrix)."""
    res = kleene_star(shift_nonpositive(rng, rand_matrix(rng, n)))
    assert res.converges
    return res.star


def rand_semimetric(rng, n, symmetric=False):
    """Positive raw distances tightened by star closure; always a semimetric."""
    while True:
        grid = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    grid[i][j] = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
        if symmetric:
            for i in range(n):
                for j in range(i + 1, n):
                    grid[j][i] = grid[i][j]
        res = kleene_star(Matrix([[-e for e in row] for row in grid]))
        assert res.converges
        star = res.star
        if all(
            star[i, j] < 0 for i in range(n) for j in range(n) if i != j
        ):
            return from_matrix(star)


def rand_metric(rng, n):
    return rand_semimetric(rng, n, symmetric=True)


def rand_member(rng, e):
    """A random point of the column space of ``e``."""
    cols = e.column_vectors()
    point = scale(rand_scalar(rng), cols[0])
    for c in cols[1:]:
        if rng.random() < 0.8:
            point = point.oplus(scale(rand_scalar(rng), c))
    return point


def rand_outside(rng, e):
    """A random point not in the column space of ``e`` (n >= 2 only)."""
    cols = e.column_vectors()
    while True:
        x = rand_vector(rng, e.rows)
        if not membership(cols, x).member:
            return x


def brute_mat_mul(a, b):
    """Tropical product as a grid, by the naive triple loop over Fraction entries."""
    grid = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            best = NEG_INF
            for k in range(a.cols):
                x, y = a[i, k], b[k, j]
                if x is not NEG_INF and y is not NEG_INF and (best is NEG_INF or x + y > best):
                    best = x + y
            row.append(best)
        grid.append(row)
    return grid


def brute_membership(generators, x):
    """(member, coefficients, projection) by naive loops over Fraction entries.

    Reads only the ``entries`` of the vectors; no package vector operation
    is called.
    """
    gens = [g.entries for g in generators]
    xs = x.entries
    coeffs = []
    for g in gens:
        best = None
        for a, b in zip(g, xs):
            if best is None or b - a < best:
                best = b - a
        coeffs.append(best)
    proj = []
    for i in range(len(xs)):
        best = None
        for lam, g in zip(coeffs, gens):
            if best is None or lam + g[i] > best:
                best = lam + g[i]
        proj.append(best)
    return list(proj) == list(xs), tuple(coeffs), tuple(proj)


def brute_in_hclass(m, n):
    """``hclass_contains(m, n)`` for an ``m`` whose columns are all extremal.

    Mutual span membership of the columns, the negated rows of ``n`` in the
    column space of ``m`` and the negated columns of ``m`` in the row space
    of ``n``, all by :func:`brute_membership` on Fraction entries.
    """
    cols_m = [Vector(c) for c in zip(*m.entries)]
    cols_n = [Vector(c) for c in zip(*n.entries)]
    rows_n = [Vector(r) for r in n.entries]

    def inside(gens, points, sign=1):
        return all(brute_membership(gens, Vector([sign * e for e in x.entries]))[0] for x in points)

    return (
        inside(cols_m, cols_n) and inside(cols_n, cols_m)
        and inside(cols_m, rows_n, -1) and inside(rows_n, cols_m, -1)
    )


def span_in_hclass(m, n, idempotent=None):
    """``hclass_contains(m, n, idempotent)`` by mutual span membership, for
    finite ``Matrix`` inputs of one size.

    The idempotent e is resolved and checked as ``hclass_contains`` does;
    then ``m`` and e must span each other's columns, and the answer is
    mutual span membership of the columns of ``m`` and ``n``, of the
    negated rows of ``n`` in the column space of ``m`` and of the negated
    columns of ``m`` in the row space of ``n``: four to six batched
    ``in_span`` tests.  Once col(m) = col(e) is known, that space has
    exactly n extremal rays, e being strongly regular, so every column of
    ``m`` is extremal.
    """
    cols_m = m.column_vectors()
    e = _resolve_idempotent(m, idempotent)
    if not is_strongly_regular(e):
        raise PreconditionError("column space is not that of a strongly regular idempotent")
    if e is not m:  # m spans its own column space
        cols_e = e.column_vectors()
        if not (in_span(cols_m, *cols_e) and in_span(cols_e, *cols_m)):
            raise PreconditionError("witness idempotent has a different column space")

    cols_n = n.column_vectors()
    if not (in_span(cols_m, *cols_n) and in_span(cols_n, *cols_m)):
        return False
    rows_n = n.row_vectors()
    return in_span(cols_m, *[-r for r in rows_n]) and in_span(rows_n, *[-c for c in cols_m])


def brute_idempotent_family(e, lam):
    """The member of ``idempotent_family`` found by a span-membership search.

    Scales by ``lam`` the lowest-index column in the span of the other
    zero-diagonal columns, deciding membership with :func:`brute_membership`;
    ``None`` when no column is, as for strongly regular input.
    """
    n = e.rows
    cols = e.column_vectors()
    zero_diag = [i for i in range(n) if e[i, i] == 0]
    for j in range(n):
        gens = [cols[i] for i in zero_diag if i != j]
        if gens and brute_membership(gens, cols[j])[0]:
            grid = [list(row) for row in e.entries]
            for row in grid:
                row[j] += lam
            return Matrix(grid)
    return None


def brute_validate(table):
    """(level, witness) as the plain Fraction loops over ``table.d`` decide it.

    Levels are the ints of ``DistanceClass``: 0 not triangle, 1
    pre-semimetric, 2 semimetric, 3 metric.  Witness order is row-major.
    """
    n = table.n
    d = table.d
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d(i, j) > d(i, k) + d(k, j):
                    return 0, (i, k, j)
    for i in range(n):
        for j in range(n):
            if i != j and d(i, j) <= 0:
                return 1, (i, j)
    for i in range(n):
        for j in range(i + 1, n):
            if d(i, j) != d(j, i):
                return 2, (i, j)
    return 3, None


def series_star(a):
    """Brute-force star: join of the identity with the first n powers.

    Powers come from :func:`brute_mat_mul`, so no package kernel is involved.
    """
    n = a.rows
    acc = [[Fraction(0) if i == j else NEG_INF for j in range(n)] for i in range(n)]
    power = ExtMatrix(acc)
    for _ in range(n):
        power = ExtMatrix(brute_mat_mul(power, a))
        for i in range(n):
            for j in range(n):
                x = power[i, j]
                if x is not NEG_INF and (acc[i][j] is NEG_INF or x > acc[i][j]):
                    acc[i][j] = x
    return ExtMatrix(acc)


def brute_permanent(a):
    """(value, attain count, one witness) by enumerating all permutations."""
    n = a.rows
    best = None
    count = 0
    witness = None
    for images in permutations(range(n)):
        total = sum((a[i, images[i]] for i in range(n)), Fraction(0))
        if best is None or total > best:
            best, count, witness = total, 1, images
        elif total == best:
            count += 1
    return best, count, witness


def brute_cycle_mean(a):
    """Maximum mean over all simple cycles, by direct enumeration."""
    n = a.rows
    best = None
    for k in range(1, n + 1):
        for combo in permutations(range(n), k):
            if combo[0] != min(combo):
                continue  # one canonical rotation per cycle
            weight = sum(a[combo[i], combo[(i + 1) % k]] for i in range(k))
            mean = Fraction(weight, k)
            if best is None or mean > best:
                best = mean
    return best


def brute_isometries(table):
    """All distance-preserving permutations, as sorted image tuples."""
    n = table.n
    out = []
    for images in permutations(range(n)):
        if all(
            table.d(images[i], images[j]) == table.d(i, j)
            for i in range(n)
            for j in range(n)
        ):
            out.append(images)
    return sorted(out)


def compose(p, q):
    """Images of p * q, that is i -> p(q(i)), on image tuples."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p):
    """Images of the inverse permutation, on image tuples."""
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def brute_is_group(elements):
    """Whether a set of image tuples is a group, by composing every pair."""
    s = set(elements)
    return (
        bool(s)
        and all(invert(p) in s for p in s)
        and all(compose(p, q) in s for p in s for q in s)
    )


def brute_generated(gens, n):
    """The subgroup of S_n generated by image tuples, by closing under products."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


# Distance grids with known isometry groups: order n! for the uniform
# metric U_n, 2n for the cycle C_n, 2^k k! for the cube Q_k, 120 for the
# Petersen graph, and n for the directed cycle (rotations only).


def uniform_grid(n):
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def cycle_grid(n):
    return [[min((i - j) % n, (j - i) % n) for j in range(n)] for i in range(n)]


def directed_cycle_grid(n):
    """d(i, j) = (j - i) mod n: a semimetric, not a metric."""
    return [[(j - i) % n for j in range(n)] for i in range(n)]


def cube_grid(k):
    return [[bin(i ^ j).count("1") for j in range(2**k)] for i in range(2**k)]


def petersen_grid():
    """Graph distance on 2-subsets of {0..4}: 1 if disjoint, 2 otherwise."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    return [[0 if p == q else (1 if not set(p) & set(q) else 2) for q in pairs] for p in pairs]


def relabelled(rng, grid, factor):
    """The table of ``grid`` with its points shuffled and distances scaled."""
    n = len(grid)
    perm = list(range(n))
    rng.shuffle(perm)
    return DistanceTable([[grid[perm[i]][perm[j]] * factor for j in range(n)] for i in range(n)])


def same_column_space(a, b):
    cols_a = a.column_vectors()
    cols_b = b.column_vectors()
    return all(membership(cols_a, c).member for c in cols_b) and all(
        membership(cols_b, c).member for c in cols_a
    )
