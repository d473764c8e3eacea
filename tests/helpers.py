"""Seeded random generators and brute-force oracles shared by the tests."""

from fractions import Fraction
from itertools import permutations
from operator import add

from maxplus import (
    DistanceTable,
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
from maxplus.semiring import int_grids
from symmetric_tmat import cube_grid, cycle_grid, pairs_grid, paley_grid, uniform_grid  # noqa: F401

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
    """Tropical product as a grid, by the naive triple loop over Fraction entries.

    ``a`` and ``b`` are matrices or grids.  A grid may hold ``None`` for
    -inf, which the package has no value for, so that the monomial units
    of :func:`unit_grid` can be multiplied too.
    """
    a, b = getattr(a, "entries", a), getattr(b, "entries", b)
    grid = []
    for row_a in a:
        row = []
        for j in range(len(b[0])):
            best = None
            for x, row_b in zip(row_a, b):
                y = row_b[j]
                if x is not None and y is not None and (best is None or x + y > best):
                    best = x + y
            row.append(best)
        grid.append(row)
    return grid


def unit_grid(diagonal, images):
    """The monomial unit S * P as a grid, with ``None`` for -inf.

    S is the diagonal matrix of ``diagonal`` and P the permutation matrix
    with P[images[i], i] = 0, so column c holds diagonal[images[c]] in row
    images[c].
    """
    n = len(images)
    grid = [[None] * n for _ in range(n)]
    for c, r in enumerate(images):
        grid[r][c] = Fraction(diagonal[r])
    return grid


def brute_commutes(diagonal, images, d):
    """Whether the unit S * P of :func:`unit_grid` commutes with ``d``, by two
    triple-loop products."""
    g = unit_grid(diagonal, images)
    return brute_mat_mul(g, d) == brute_mat_mul(d, g)


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
    square inputs of one size.

    The idempotent e is resolved and checked as ``hclass_contains`` does;
    then ``m`` and e must span each other's columns, and the answer is
    mutual span membership of the columns of ``m`` and ``n``, of the
    negated rows of ``n`` in the column space of ``m`` and of the negated
    columns of ``m`` in the row space of ``n``, each decided by
    :func:`spans`.  Once col(m) = col(e) is known, that space has exactly
    n extremal rays, e being strongly regular, so every column of ``m`` is
    extremal.
    """
    cols_m = m.column_vectors()
    e = _resolve_idempotent(m, idempotent)
    if not is_strongly_regular(e):
        raise PreconditionError("column space is not that of a strongly regular idempotent")
    if e is not m:  # m spans its own column space
        cols_e = e.column_vectors()
        if not (spans(cols_m, cols_e) and spans(cols_e, cols_m)):
            if idempotent is None:  # e is the star of m: no witness was given
                raise PreconditionError(
                    "cannot recover an idempotent for the column space; pass one explicitly"
                )
            raise PreconditionError("witness idempotent has a different column space")

    cols_n = n.column_vectors()
    if not (spans(cols_m, cols_n) and spans(cols_n, cols_m)):
        return False
    rows_n = n.row_vectors()
    return spans(cols_m, [-r for r in rows_n]) and spans(rows_n, [-c for c in cols_m])


def spans(generators, points):
    """Whether every point is in the tropical span of ``generators``.

    Decided by public ``membership``, one point at a time.
    """
    return all(membership(generators, x).member for x in points)


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


def scan_validate(table):
    """(level, witness) by one O(n) scan for every pair, on the int view.

    The full O(n^3) check that ``validate`` ran before it learnt to skip
    pairs within its lower bound; levels are ints as in
    :func:`brute_validate`.
    """
    (d,), _ = int_grids(table.values)
    cols = list(zip(*d))
    for i, row in enumerate(d):
        for j, col in enumerate(cols):
            dij = row[j]
            if dij > min(map(add, row, col)):
                k = next(k for k, (a, b) in enumerate(zip(row, col)) if dij > a + b)
                return 0, (i, k, j)
    for i, row in enumerate(d):
        for j, dij in enumerate(row):
            if i != j and dij <= 0:
                return 1, (i, j)
    for i, row in enumerate(d):
        for j in range(i + 1, len(d)):
            if row[j] != d[j][i]:
                return 2, (i, j)
    return 3, None


def series_star(a):
    """Brute-force star: join of the identity with the first n powers.

    Powers come from :func:`brute_mat_mul`, so no package kernel is involved.
    """
    n = a.rows
    power = acc = [list(row) for row in a.entries]
    for _ in range(n - 1):
        power = brute_mat_mul(power, a)
        acc = [list(map(max, r, s)) for r, s in zip(acc, power)]
    for i in range(n):
        acc[i][i] = max(acc[i][i], Fraction(0))
    return Matrix(acc)


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


def karp_eigenvalue(a):
    """Maximum cycle mean by Karp's recurrence run for all n steps, with no early exit.

    walk[k][v] is the best weight of a k-edge walk from node 0 to v, and the
    answer is max_v min_k (walk[n][v] - walk[k][v]) / (n - k), on the
    integer grid of ``a``.
    """
    (grid,), den = int_grids(a)
    n = a.rows
    walks = [grid[0]]
    cols = list(zip(*grid))
    for _ in range(n - 1):
        walks.append([max(map(add, walks[-1], col)) for col in cols])
    last = walks[-1]
    best = None
    for v in range(n):
        worst = Fraction(last[0], n) if v == 0 else None
        for k in range(1, n):
            mean = Fraction(last[v] - walks[k - 1][v], n - k)
            if worst is None or mean < worst:
                worst = mean
        if best is None or worst > best:
            best = worst
    return best / den


def distance_ids(table):
    """The table with each distinct distance replaced by a small int: exact, and fast to compare."""
    ids: dict = {}
    return [[ids.setdefault(x, len(ids)) for x in row] for row in table.entries]


def brute_isometries(table):
    """All distance-preserving permutations, as sorted image tuples."""
    n = table.n
    d = distance_ids(table)
    out = []
    for images in permutations(range(n)):
        if all(d[images[i]][images[j]] == d[i][j] for i in range(n) for j in range(n)):
            out.append(images)
    return sorted(out)


def listing_isometries(table):
    """All isometries by exhaustive backtracking, as sorted image tuples.

    Point 0 may go to any point with its multiset of in/out distances, and
    every later point i only to a point at distance (d(0, i), d(i, 0))
    from the image of 0 with the multiset of i; each leaf is checked
    against all earlier points.  It visits one leaf per element, where
    ``isometry_group`` runs one search per generator of a stabiliser chain.
    """
    n = table.n
    d = distance_ids(table)
    profiles = [tuple(sorted((d[i][k], d[k][i]) for k in range(n) if k != i)) for i in range(n)]
    cls = [profiles.index(p) for p in profiles]
    first = [j for j in range(n) if cls[j] == cls[0]]
    # buckets[a][(d(a, j), d(j, a), class of j)] lists those points j in order
    buckets = [{} for _ in range(n)]
    for a in range(n):
        for j in range(n):
            buckets[a].setdefault((d[a][j], d[j][a], cls[j]), []).append(j)

    found = []
    images = [-1] * n
    taken = [False] * n

    def extend(i):
        if i == n:
            found.append(tuple(images))
            return
        candidates = buckets[images[0]].get((d[0][i], d[i][0], cls[i]), ()) if i else first
        for j in candidates:
            if not taken[j] and all(
                d[images[k]][j] == d[k][i] and d[j][images[k]] == d[i][k] for k in range(i)
            ):
                images[i] = j
                taken[j] = True
                extend(i + 1)
                taken[j] = False

    extend(0)
    return sorted(found)


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
# metric U_n, 2n for the cycle C_n, 2^k k! for the cube Q_k and for k
# disjoint pairs, 120 for the Petersen graph, n for the directed cycle
# (rotations only) and q(q - 1)/2 for the Paley graph of a prime q.


def directed_cycle_grid(n):
    """d(i, j) = (j - i) mod n: a semimetric, not a metric."""
    return [[(j - i) % n for j in range(n)] for i in range(n)]


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
