"""Randomized oracle tests for the integer kernels.

The matrix kernels (product, eigenvalue, star, assignment) and the vector layer
(``mat_vec``, residuation, span membership, extremals, ``validate`` and the
isometry search over distance tables) are checked.  Denominators are drawn
from the primes up to 47, so the common denominator of a matrix or of a
set of vectors grows large; every answer is compared with a brute-force
Fraction oracle from ``helpers`` or a naive loop written here.  Kernel
results keep an unreduced D: equality and hashing are checked across Ds,
D is checked to stay within the lcm of the inputs' denominators along
chains of operations, and the audit entry points are checked at a
hostile D (a distinct 120-bit denominator per entry).  A value built from
``Fraction``s is checked to get the least D.  The
pairwise rules that read the structure of an idempotent are checked
against span membership, and counter gates pin how many products,
assignments, span projections, alignments to one denominator and
eigenvalues the audit entry points and the star run.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import maxplus.closure as closure_module
import maxplus.polytope as polytope_module
import maxplus.rank as rank_module
import maxplus.semiring as semiring_module
from maxplus import (
    DistanceTable,
    Matrix,
    Permutation,
    PreconditionError,
    ShapeError,
    Vector,
    classify,
    eigenvalue,
    embed,
    extremal_columns,
    extremal_indices,
    from_matrix,
    halfspace_rep,
    hclass_contains,
    hclass_decompose,
    hclass_element,
    idempotent_family,
    idempotent_rank,
    is_idempotent,
    is_strongly_regular,
    isometry_group,
    kleene_star,
    mat_mul,
    mat_vec,
    membership,
    negation_closed,
    permanent,
    residuation,
    residuation_bound_check,
    scale,
    star_fixed_point_check,
    to_matrix,
    validate,
    zero_diag_regularity,
)
from maxplus.cli import main as cli_main
from maxplus.matio import serialize_matrix
from maxplus.svg import render_matrix

from helpers import (
    GOLDEN_IDEMPOTENTS,
    brute_cycle_mean,
    brute_idempotent_family,
    brute_in_hclass,
    brute_isometries,
    brute_mat_mul,
    brute_membership,
    brute_permanent,
    brute_validate,
    directed_cycle_grid,
    rand_metric,
    rand_semimetric,
    series_star,
    shift_nonpositive,
    spans,
    uniform_grid,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def prime_scalar(rng, lo=-30, hi=30):
    return Fraction(rng.randint(lo, hi), rng.choice(PRIMES))


def prime_grid(rng, rows, cols, neg_inf=0.0):
    """A grid of prime-denominator scalars; a share ``neg_inf`` of the entries
    is ``None``, which keeps the draws of seeds that once made -inf entries."""
    return [
        [None if rng.random() < neg_inf else prime_scalar(rng) for _ in range(cols)]
        for _ in range(rows)
    ]


def prime_matrix(rng, n):
    return Matrix(prime_grid(rng, n, n))


def test_mat_mul_matches_naive_product():
    """Products of finite operands; the draws are those of the seed's mixed
    stream, whose operands with -inf entries are skipped."""
    rng = random.Random(201)
    tested = 0
    for _ in range(160):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        grids = []
        for rows, cols in ((n, k), (k, m)):
            density = 0.0 if rng.random() < 0.5 else rng.choice((0.0, 0.3, 0.7))
            grids.append(prime_grid(rng, rows, cols, density))
        if any(None in row for grid in grids for row in grid):
            continue
        a, b = (Matrix(grid) for grid in grids)
        prod = mat_mul(a, b)
        expected = brute_mat_mul(a, b)
        assert [list(row) for row in prod.entries] == expected
        assert prod == Matrix(expected)
        assert hash(prod) == hash(Matrix(expected))
        tested += 1
    assert tested >= 50


def test_eigenvalue_matches_cycle_enumeration():
    rng = random.Random(202)
    for _ in range(40):
        a = prime_matrix(rng, rng.randint(1, 6))
        assert eigenvalue(a) == brute_cycle_mean(a)


LARGE_PRIMES = (999_983, 1_000_003, 1_000_033, 1_000_037, 1_000_039)


def test_kleene_star_matches_series():
    """Below, at and above the eigenvalue; at 0 exactly (``eigenvalue_zero``
    often gives several critical cycles) and 1/(p q) either side of it, for
    primes p, q near 10^6."""
    rng = random.Random(203)
    cases = []
    for _ in range(40):
        a = prime_matrix(rng, rng.randint(1, 6))
        lam = brute_cycle_mean(a)
        cases.append(a.scale(-lam - rng.choice((0, 0, prime_scalar(rng, 1, 5)))))
        cases.append(a.scale(-lam + prime_scalar(rng, 1, 5)))
        zero = eigenvalue_zero(rng, rng.randint(1, 7))
        p, q = rng.sample(LARGE_PRIMES, 2)
        cases += [zero, zero.scale(Fraction(1, p * q)), zero.scale(Fraction(-1, p * q))]
    seen = Counter()
    for a in cases:
        lam = brute_cycle_mean(a)
        res = kleene_star(a)
        assert res.converges == (lam <= 0)
        assert res.star == (series_star(a) if res.converges else None)
        assert res.eigenvalue == lam
        seen[(lam > 0) - (lam < 0)] += 1
    assert seen[1] == 80 and seen[0] >= 40 and seen[-1] >= 40


def test_permanent_matches_brute_force():
    rng = random.Random(204)
    for _ in range(60):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            a = prime_matrix(rng, n)
        else:  # a small alphabet forces ties between optimal permutations
            alphabet = [prime_scalar(rng, -2, 2) for _ in range(3)]
            a = Matrix([[rng.choice(alphabet) for _ in range(n)] for _ in range(n)])
        res = permanent(a)
        value, count, _ = brute_permanent(a)
        assert res.value == value
        assert res.attaining_unique == (count == 1)
        assert sum(a[i, res.witness(i)] for i in range(n)) == value


# 53 is the least prime above the denominators drawn here: scaling by 1/53
# and back leaves the same value over a D that is not the least one
OFF = Fraction(1, 53)


def near_miss(grid, i, j, den):
    """A copy of ``grid`` with entry (i, j) moved by 1/``den``."""
    out = [list(row) for row in grid]
    out[i][j] += Fraction(1, den)
    return out


def test_value_equal_matrices_are_equal_and_hash_equal():
    half = Matrix([["1/2"]])
    one = Matrix([[1]])
    assert half @ half == one and hash(half @ half) == hash(one)
    assert Matrix([["1/3", "2/3"]]).scale("2/3") == Matrix([[1, "4/3"]])

    rng = random.Random(205)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = prime_matrix(rng, n)
        lam = prime_scalar(rng)
        routes = [
            a,
            Matrix(a.entries),
            a.scale(lam).scale(-lam),
            a.scale(OFF).scale(-OFF),
            a.transpose().transpose(),
            a.oplus(a.scale(-abs(lam) - 1)),
            -(-a),
        ]
        # some pairs differ in D, so equality takes the cross-multiplication branch
        assert len({r._int_view()[1] for r in routes}) >= 2
        assert all(r == a for r in routes)
        assert len({hash(r) for r in routes}) == 1
        assert len(set(routes)) == 1
        assert all(r.entries == a.entries for r in routes)
        den = a._int_view()[1]
        for i, j in ((rng.randrange(n), rng.randrange(n)), (n - 1, 0)):
            near = Matrix(near_miss(a.entries, i, j, rng.choice((den, -den))))
            for miss in (near, near.scale(OFF).scale(-OFF)):
                assert all(r != miss and miss != r for r in routes)


def prime_vector(rng, n):
    return Vector(prime_scalar(rng) for _ in range(n))


def naive_join(coeffs, gens):
    """max over generators of coefficient + entry, on Fraction entries."""
    return [max(lam + g.entries[i] for lam, g in zip(coeffs, gens)) for i in range(len(gens[0]))]


def test_mat_vec_matches_naive_loop():
    rng = random.Random(2060)
    for _ in range(80):
        rows, n = rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(prime_grid(rng, rows, n))
        x = prime_vector(rng, n)
        expected = [max(e + v for e, v in zip(row, x.entries)) for row in a.entries]
        y = mat_vec(a, x)
        assert y.entries == tuple(expected)
        assert y == Vector(expected) and hash(y) == hash(Vector(expected))
        assert y._int_view()[1] == lcm(a._int_view()[1], x._int_view()[1])
    with pytest.raises(ShapeError, match="^cannot apply 2x3 to a vector of length 2$"):
        mat_vec(Matrix([[0, 1, 2], [3, 4, 5]]), Vector([0, 0]))


def test_residuation_matches_naive_min():
    rng = random.Random(207)
    for _ in range(80):
        n = rng.randint(1, 6)
        x, y = prime_vector(rng, n), prime_vector(rng, n)
        assert residuation(x, y) == min(b - a for a, b in zip(x.entries, y.entries))


def test_membership_matches_brute_force():
    rng = random.Random(208)
    batch_rng = random.Random(219)  # keeps the single-point draws as they were
    members = 0
    batches = Counter()
    for _ in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        gens = [prime_vector(rng, n) for _ in range(k)]
        if rng.random() < 0.5:  # a join of scaled generators is a member
            x = Vector(naive_join([prime_scalar(rng) for _ in gens], gens))
        else:
            x = prime_vector(rng, n)
        res = membership(gens, x)
        member, coeffs, proj = brute_membership(gens, x)
        assert res.member == member
        assert res.coefficients == coeffs
        assert all(type(c) is Fraction for c in res.coefficients)
        assert res.projection.entries == proj
        assert res.projection == Vector(proj)
        members += member
        # any number of points against the same generators
        points = [
            Vector(naive_join([prime_scalar(batch_rng) for _ in gens], gens))
            if batch_rng.random() < 0.7
            else prime_vector(batch_rng, n)
            for _ in range(batch_rng.randint(0, 4))
        ]
        inside = [brute_membership(gens, p)[0] for p in points]
        assert spans(gens, points) == all(inside)
        batches[all(inside), bool(inside) and inside[0]] += 1
    assert 75 <= members < 150
    # all members, a non-member after a member first, and a non-member first
    assert batches[True, True] >= 20 and batches[False, True] >= 20 and batches[False, False] >= 20
    with pytest.raises(PreconditionError, match="at least one generator"):
        membership([], Vector([0]))
    with pytest.raises(ShapeError, match="vector lengths differ: 2 vs 1"):
        membership([Vector([0, 1])], Vector([0]))


def test_extremal_indices_collapse_scaling_classes():
    rng = random.Random(209)
    for _ in range(40):
        n = rng.randint(1, 5)
        base = [prime_vector(rng, n) for _ in range(rng.randint(1, 4))]
        vecs = base + [scale(prime_scalar(rng), v) for v in base]
        rng.shuffle(vecs)
        out = extremal_indices(vecs)
        firsts = {}
        for idx, v in enumerate(vecs):
            key = tuple(e - v.entries[-1] for e in v.entries)
            firsts.setdefault(key, idx)
        assert set(out) <= set(firsts.values())
        if n == 1:
            assert out == [0]
    assert extremal_indices([Vector([3]), Vector(["1/7"])]) == [0]


def alphabet_table(rng, n, symmetric):
    """Values from a small alphabet inside [a, 2a]: always a semimetric, often symmetric."""
    a = prime_scalar(rng, 1, 30)
    alphabet = [a, 2 * a] + [a + prime_scalar(rng, 0, 30) * a / 30 for _ in range(rng.randint(0, 2))]
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (not symmetric or i < j):
                grid[i][j] = rng.choice(alphabet)
                if symmetric:
                    grid[j][i] = grid[i][j]
    return grid


def random_table(rng, n):
    """Tables of every validation level, with prime denominators."""
    kind = rng.randrange(4)
    if kind == 0:
        return alphabet_table(rng, n, rng.random() < 0.5)
    if kind == 1:  # a potential difference keeps the triangle inequality, may go negative
        grid = alphabet_table(rng, n, rng.random() < 0.5)
        f = [prime_scalar(rng, -20, 20) for _ in range(n)]
        return [[grid[i][j] + f[j] - f[i] for j in range(n)] for i in range(n)]
    if kind == 2:  # a repeated point: separation fails
        grid = alphabet_table(rng, n, True)
        if n >= 2:
            grid[1] = list(grid[0])
            for row in grid:
                row[1] = row[0]
            grid[0][1] = grid[1][0] = grid[1][1] = Fraction(0)
        return grid
    grid = prime_grid(rng, n, n)
    for i in range(n):
        grid[i][i] = Fraction(0)
    return grid


def test_validate_matches_brute_force():
    rng = random.Random(210)
    levels = set()
    for _ in range(200):
        table = DistanceTable(random_table(rng, rng.randint(1, 6)))
        level, witness = brute_validate(table)
        res = validate(table)
        assert (int(res.level), res.witness) == (level, witness)
        levels.add(level)
    assert levels == {0, 1, 2, 3}


def circulant_table(rng, n):
    """d(i, j) depends on (j - i) mod n only, relabelled: the rotations are isometries."""
    steps = alphabet_table(rng, n, rng.random() < 0.5)[0]
    label = list(range(n))
    rng.shuffle(label)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            grid[label[i]][label[j]] = steps[(j - i) % n]
    return grid


def test_isometry_group_matches_brute_force():
    rng = random.Random(211)
    orders = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            grid = circulant_table(rng, n)
        else:
            grid = alphabet_table(rng, n, rng.random() < 0.7)
        table = DistanceTable(grid)
        group = isometry_group(table)
        assert sorted(p.images for p in group) == brute_isometries(table)
        orders.add(group.order)
    assert len(orders) >= 4


def test_value_equal_vectors_are_equal_and_hash_equal():
    half = Vector([Fraction(1, 2)])
    assert scale(Fraction(1, 2), half) == Vector([1])
    assert hash(scale(Fraction(1, 2), half)) == hash(Vector([1]))
    assert Vector(["2/4", "0.5"]) == Vector([Fraction(1, 2)] * 2)
    assert Vector.zeros(2) == Vector([0, "0/7"]) and hash(Vector.zeros(2)) == hash(Vector([0, 0]))

    rng = random.Random(212)
    for _ in range(30):
        n = rng.randint(1, 6)
        v = prime_vector(rng, n)
        lam = prime_scalar(rng)
        col = Matrix([[e, prime_scalar(rng)] for e in v.entries]).column_vectors()[0]
        routes = [
            v,
            Vector(v.entries),
            Vector(str(e) for e in v.entries),
            col,
            Matrix([list(v.entries)]).row(0),
            Matrix([list(v.entries)]).row_vectors()[0],
            scale(lam, scale(-lam, v)),
            v.oplus(scale(-abs(lam) - 1, v)),
            v.meet(scale(abs(lam) + 1, v)),
            -(-v),
            scale(-OFF, scale(OFF, v)),
        ]
        assert len({r._int_view()[1] for r in routes}) >= 2
        assert all(r == v for r in routes)
        assert len({hash(r) for r in routes}) == 1
        assert all(r.entries == v.entries for r in routes)
        assert all(v <= r and v >= r for r in routes)
        den = v._int_view()[1]
        near = Vector(near_miss([v.entries], 0, rng.randrange(n), rng.choice((den, -den)))[0])
        for miss in (near, scale(-OFF, scale(OFF, near))):
            assert all(r != miss and miss != r for r in routes)


def test_value_equal_tables_are_equal_and_hash_equal():
    rng = random.Random(213)
    for _ in range(30):
        grid = random_table(rng, rng.randint(1, 6))
        table = DistanceTable(grid)
        routes = [
            table,
            DistanceTable([[str(e) for e in row] for row in grid]),
            DistanceTable(table.entries),
            from_matrix(to_matrix(table)),
            from_matrix(-Matrix(grid)),
            from_matrix(to_matrix(table).scale(OFF).scale(-OFF)),
        ]
        assert len({r.values._int_view()[1] for r in routes}) >= 2
        assert all(r == table for r in routes)
        assert len({hash(r) for r in routes}) == 1
        if table.n >= 2:
            den = table.values._int_view()[1]
            near = DistanceTable(near_miss(grid, 0, table.n - 1, rng.choice((den, -den))))
            assert all(r != near and near != r for r in routes)
        assert all(r.entries == table.entries for r in routes)
        assert all(type(r.d(i, j)) is Fraction for r in routes for i in range(r.n) for j in range(r.n))
        assert to_matrix(table) == Matrix([[-e for e in row] for row in grid])


def denominators(*values):
    """The denominators of every entry of the given vectors and finite matrices."""
    out = []
    for value in values:
        rows = [value.entries] if isinstance(value, Vector) else value.entries
        out += [e.denominator for row in rows for e in row]
    return out


CHAIN_OPS = (
    "scale", "oplus", "meet", "negation", "transpose", "mat_mul", "mat_vec", "kleene_star",
    "hclass_element",
)


def test_denominator_stays_bounded_along_chains():
    """A kernel result keeps an unreduced D; along any chain it must still divide the
    lcm of the denominators of every input entry and every scalar."""
    rng = random.Random(217)
    seen = Counter()
    for _ in range(60):
        n = rng.randint(1, 6)
        m, v = prime_matrix(rng, n), prime_vector(rng, n)
        bound = lcm(*denominators(m, v))
        for _ in range(10):
            op = rng.choice(CHAIN_OPS)
            seen[op] += 1
            if op == "scale":
                lam = prime_scalar(rng)
                bound = lcm(bound, lam.denominator)
                m, v = m.scale(lam), scale(lam, v)
            elif op in ("oplus", "meet", "mat_mul"):
                b, w = prime_matrix(rng, n), prime_vector(rng, n)
                bound = lcm(bound, *denominators(b, w))
                if op == "oplus":
                    m, v = m.oplus(b), v.oplus(w)
                elif op == "meet":
                    v = v.meet(w)
                else:
                    m = mat_mul(m, b)
            elif op == "negation":
                m, v = -m, -v
            elif op == "transpose":
                m = m.transpose()
            elif op == "mat_vec":
                v = mat_vec(m, v)
            elif op == "kleene_star":
                lam = eigenvalue(m)
                bound = lcm(bound, lam.denominator)
                m = kleene_star(m.scale(-lam)).star
            else:
                table = DistanceTable(alphabet_table(rng, n, True))
                sigma = rng.choice(list(isometry_group(table)))
                lam = prime_scalar(rng)
                bound = lcm(bound, lam.denominator, *denominators(to_matrix(table)))
                m = mat_mul(m, hclass_element(to_matrix(table), sigma, lam))
            assert bound % m._int_view()[1] == 0
            assert bound % v._int_view()[1] == 0
    assert set(seen) == set(CHAIN_OPS) and min(seen.values()) >= 30


def hostile_grid(rng, n, kind):
    """Zero diagonal and a distinct 120-bit denominator in every other entry.

    ``semimetric``: entries in [-12, -6], so their negations keep the
    triangle inequality; ``metric``: the same, symmetric, one denominator
    per pair; ``other``: entries in [-30, -1], which usually break it.
    """
    lo, hi = (-30, -1) if kind == "other" else (-12, -6)
    grid = [[Fraction(0)] * n for _ in range(n)]
    used = set()
    for i in range(n):
        for j in range(n):
            if i == j or (kind == "metric" and j < i):
                continue
            q = p = 0
            while q in used or gcd(p, q) != 1:
                q = rng.getrandbits(120) | 1 << 119
                p = rng.randint(lo * q, hi * q)
            used.add(q)
            grid[i][j] = Fraction(p, q)
            if kind == "metric":
                grid[j][i] = grid[i][j]
    return grid


def test_kernels_match_fraction_oracles_at_hostile_denominators():
    """n = 10-12 with a distinct 120-bit denominator per entry, so D has
    thousands of bits and kernel results keep Ds that are not least."""
    rng = random.Random(218)
    levels, members = Counter(), Counter()
    for kind in ("semimetric", "metric", "other") * 2:
        n = rng.randint(10, 12)
        a = Matrix(hostile_grid(rng, n, kind))
        grid = [list(row) for row in a.entries]
        idem = brute_mat_mul(a, a) == grid
        assert is_idempotent(a) == idem
        star = kleene_star(a)  # every entry <= 0 and a zero diagonal: eigenvalue 0
        expected_star = series_star(a)
        assert star.converges and star.star == expected_star
        assert star.star.entries == expected_star.entries
        table = DistanceTable([[-e for e in row] for row in grid])
        level, _ = brute_validate(table)
        levels[level] += 1
        report = classify(a)
        assert report.idempotent == idem
        assert report.kleene_fixed == ([list(row) for row in expected_star.entries] == grid)
        assert report.is_semimetric_matrix == (level >= 2)
        assert report.is_metric_matrix == (level == 3)
        if level < 2:
            with pytest.raises(PreconditionError):
                embed(table)
            continue
        points = embed(table)
        for i in range(n):
            for j in range(n):
                dist = max(x - y for x, y in zip(points[i].entries, points[j].entries))
                assert dist == table.d(i, j)
        cols = [Vector(c) for c in zip(*grid)]
        expected = [j for j in range(n) if not brute_membership(cols[:j] + cols[j + 1:], cols[j])[0]]
        assert extremal_columns(a) == expected == list(range(n))
        q = rng.getrandbits(120) | 1 << 119
        moved = [list(row) for row in grid]
        moved[0][n - 1] += Fraction(1, q)
        candidates = [a.scale(Fraction(rng.randint(-q, q), q)), Matrix(moved), a.transpose()]
        for c in candidates:
            member = brute_in_hclass(a, c)
            assert hclass_contains(a, c) == member
            members[member] += 1
    assert levels[0] == 2 and levels[2] == 2 and levels[3] == 2
    assert members[True] >= 4 and members[False] >= 4


def distinct_prime_grid(rng, n):
    """An n x n grid, n <= 6, with a distinct prime denominator in every entry."""
    primes = [k for k in range(2, 152) if all(k % p for p in range(2, k))]  # 36 primes
    qs = rng.sample(primes, n * n)
    return [[Fraction(rng.randint(1, q - 1), q) for q in qs[i * n : (i + 1) * n]] for i in range(n)]


def test_int_view_of_fractions_is_least():
    """For a value built from ``Fraction``s, the view's D is the lcm of the
    entries' denominators and each int is the entry times D, against a flat
    ``Fraction`` reference, for a matrix, a vector and a table."""
    rng = random.Random(220)
    families = {
        "repeated small": lambda n: [
            [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)
        ],
        "distinct primes": lambda n: distinct_prime_grid(rng, n),
        "integers": lambda n: [[Fraction(rng.randint(-30, 30)) for _ in range(n)] for _ in range(n)],
        "hostile": lambda n: hostile_grid(rng, n, "semimetric"),
    }
    dens = Counter()
    for _ in range(15):
        for name, draw in families.items():
            grid = draw(rng.randint(1, 6))
            table = [[0 if i == j else abs(e) for j, e in enumerate(row)] for i, row in enumerate(grid)]
            values = ((Matrix(grid), grid), (Vector(grid[0]), grid[:1]), (DistanceTable(table), table))
            for value, rows in values:
                flat = [Fraction(e) for row in rows for e in row]
                ints, den = value._int_view()
                assert den == lcm(*[e.denominator for e in flat])
                assert [x for row in ints for x in row] == [e * den for e in flat]
                dens[name, den == 1] += 1
    assert dens["integers", True] == 45 and not dens["integers", False]
    for name in ("repeated small", "distinct primes", "hostile"):
        assert dens[name, False] >= 30


def spectral_projector(a):
    """The join over critical nodes c of S[:, c] + S[c, :], for S the star of ``a``.

    ``a`` must have eigenvalue 0.  The result is idempotent; its diagonal is
    negative off the critical nodes, and its rank is the number of critical
    classes.
    """
    n = a.rows
    star = kleene_star(a).star
    plus = mat_mul(a, star)
    critical = [c for c in range(n) if plus[c, c] == 0]
    return Matrix([[max(star[i, c] + star[c, j] for c in critical) for j in range(n)] for i in range(n)])


def blown_up(rng, e, n):
    """``e`` on n >= e.rows points, some repeated, conjugated by a diagonal.

    Repeated points give proportional zero-diagonal columns, and the
    diagonal conjugation keeps them proportional but unequal.
    """
    image = list(range(e.rows)) + [rng.randrange(e.rows) for _ in range(n - e.rows)]
    rng.shuffle(image)
    shift = [prime_scalar(rng, -10, 10) for _ in range(n)]
    return Matrix([[e[image[i], image[j]] - shift[i] + shift[j] for j in range(n)] for i in range(n)])


def eigenvalue_zero(rng, n):
    """A matrix with eigenvalue 0; a small alphabet often gives several critical cycles."""
    if rng.random() < 0.5:
        a = prime_matrix(rng, n)
    else:
        alphabet = [prime_scalar(rng, -3, 3) for _ in range(3)]
        a = Matrix([[rng.choice(alphabet) for _ in range(n)] for _ in range(n)])
    return a.scale(-eigenvalue(a))


def random_idempotent(rng, n):
    """Zero-diagonal stars, spectral projectors, blown-up stars and family members."""
    kind = rng.randrange(4)
    if kind == 0:
        below = eigenvalue_zero(rng, n).scale(-rng.choice((0, 0, prime_scalar(rng, 1, 5))))
        return kleene_star(below).star
    if kind == 1:
        return spectral_projector(eigenvalue_zero(rng, n))
    if kind == 2:
        return blown_up(rng, kleene_star(eigenvalue_zero(rng, rng.randint(1, n))).star, n)
    e = spectral_projector(eigenvalue_zero(rng, n))
    return e if is_strongly_regular(e) else idempotent_family(e, -prime_scalar(rng, 1, 30))


def test_pairwise_rules_match_span_membership():
    rng = random.Random(214)
    negative_diag = deficient = regular = 0
    for _ in range(160):
        n = rng.randint(1, 7)
        e = random_idempotent(rng, n)
        assert is_idempotent(e)
        assert residuation_bound_check(e)  # both diagonal branches, as some diagonals are negative
        cols = e.column_vectors()
        zero_diag = [j for j in range(n) if e[j, j] == 0]
        by_membership = [zero_diag[k] for k in extremal_indices([cols[j] for j in zero_diag])]
        assert extremal_columns(e) == by_membership
        assert idempotent_rank(e) == len(by_membership)
        if is_strongly_regular(e):
            # negation_closed and render take every column as extremal
            assert len(zero_diag) == n and by_membership == list(range(n))
            regular += 1
        if len(zero_diag) == n:
            assert zero_diag_regularity(e) == (len(by_membership) == n)
        lam = -prime_scalar(rng, 1, 30)
        expected = brute_idempotent_family(e, lam)
        if expected is None:
            with pytest.raises(PreconditionError, match="strongly regular"):
                idempotent_family(e, lam)
        else:
            assert idempotent_family(e, lam) == expected
        negative_diag += len(zero_diag) < n
        deficient += expected is not None
    assert negative_diag >= 40 and deficient >= 60 and regular >= 30


@pytest.fixture
def calls(monkeypatch):
    """Counts of products, assignments, ``membership`` calls, span projections,
    alignments of rows to one denominator and eigenvalues."""
    counts = Counter()
    for module, name in (
        (semiring_module, "mat_mul"),
        (closure_module, "eigenvalue"),
        (rank_module, "_max_assignment"),
        (polytope_module, "membership"),
        (polytope_module, "_project"),
        (polytope_module, "int_vectors"),
    ):
        def counted(*args, _orig=getattr(module, name), _name=name):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_audit_entry_points_compute_each_fact_once(calls):
    n = 16
    m = to_matrix(rand_metric(random.Random(215), n))
    assert classify(m).is_metric_matrix
    assert (calls["mat_mul"], calls["_max_assignment"], calls["_project"]) == (0, 1, 2)
    assert calls["eigenvalue"] == 0  # the star decides convergence on its own
    calls.clear()
    hclass_element(m, Permutation.identity(n), 0)
    assert not calls
    assert extremal_columns(m) == list(range(n))
    assert calls["membership"] == calls["_project"] == 0
    calls.clear()
    assert hclass_contains(m, m)
    assert not calls  # the key test reads the columns and rows off the ints
    # one alignment for all n columns, then one projection per representative
    assert extremal_indices(m.column_vectors()) == list(range(n))
    assert (calls["int_vectors"], calls["_project"]) == (1, n)


def test_classify_builds_only_the_two_origins(monkeypatch):
    # the origin tests read the columns off the transpose's view, not as vectors
    built = Counter()

    def counted(*args, _orig=Vector._from_ints):
        built["_from_ints"] += 1
        return _orig(*args)

    monkeypatch.setattr(Vector, "_from_ints", staticmethod(counted))
    m = to_matrix(rand_metric(random.Random(221), 16))
    assert classify(m).is_metric_matrix
    assert built["_from_ints"] == 2


def test_classify_transposes_once(monkeypatch):
    # the column origin reads the rows of classify's own transpose, the row
    # origin the rows of the matrix itself
    made = Counter()

    def counted(self, _orig=Matrix.transpose):
        made["transpose"] += 1
        return _orig(self)

    monkeypatch.setattr(Matrix, "transpose", counted)
    m = to_matrix(rand_metric(random.Random(225), 16))
    assert classify(m).is_metric_matrix
    assert made["transpose"] == 1


def test_hclass_contains_on_a_metric_runs_no_span_test(calls):
    n = 16
    rng = random.Random(216)
    m = to_matrix(rand_metric(rng, n))
    member = hclass_element(m, Permutation.identity(n), Fraction(5, 3))
    outside = [list(row) for row in m.entries]
    outside[0][0] += 1
    calls.clear()
    assert hclass_contains(m, member)
    assert not hclass_contains(m, Matrix(outside))
    assert hclass_decompose(m, member) == (Permutation.identity(n), Fraction(5, 3))
    assert not calls  # no alignment, product, assignment, membership or projection


def test_hclass_contains_on_a_semimetric_matches_keys_only(calls):
    n = 16
    rng = random.Random(217)
    s = to_matrix(rand_semimetric(rng, n))
    swapped = [list(row) for row in s.entries]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    calls.clear()
    # a semimetric matrix is a strongly regular idempotent: no product or assignment
    assert hclass_contains(s, s.scale(Fraction(5, 3)))
    assert not hclass_contains(s, Matrix(swapped))
    assert not calls
    # a witness costs no product (is_idempotent scans A (x) A <= A without one)
    # and one assignment (is_strongly_regular)
    t = list(range(n))
    rng.shuffle(t)
    m = Matrix([[s[i, t[j]] + Fraction(j, 7) for j in range(n)] for i in range(n)])
    assert hclass_contains(m, s.scale(-2), idempotent=s)
    assert (calls["mat_mul"], calls["_max_assignment"]) == (0, 1)
    assert calls["_project"] == calls["int_vectors"] == calls["membership"] == 0


def test_star_computes_the_eigenvalue_only_when_read(calls):
    n = 16
    rng = random.Random(219)
    s = to_matrix(rand_semimetric(rng, n))
    calls.clear()
    assert kleene_star(s.scale(-1)).converges
    assert not calls
    # the directed n-cycle with diagonal -n: column j is column j - 1 of its
    # star, the semimetric matrix e, shifted by -1, and m * m != m
    e = Matrix([[-x for x in row] for row in directed_cycle_grid(n)])
    m = Matrix([[-n if i == j else e[i, j] for j in range(n)] for i in range(n)])
    assert hclass_contains(m, e.scale(Fraction(5, 3)))
    assert calls["mat_mul"] == calls["eigenvalue"] == 0  # the star route
    calls.clear()
    res = kleene_star(s.scale(Fraction(1, 7)))
    assert not res.converges and res.star is None
    assert not calls
    assert res.eigenvalue == Fraction(1, 7)
    assert calls["eigenvalue"] == 1
    assert res.eigenvalue == Fraction(1, 7)
    assert calls["eigenvalue"] == 1


def test_cli_interior_tests_the_point_once(calls, tmp_path, capsys):
    # one alignment and one projection decide both membership and the answer
    path = tmp_path / "metric.tmat"
    path.write_text(serialize_matrix(Matrix([[0, -1, -2], [-1, 0, -2], [-2, -2, 0]])))
    assert cli_main(["interior", str(path), "--point", "0,0,0"]) == 0
    assert capsys.readouterr().out == "interior\n"
    assert (calls["int_vectors"], calls["_project"]) == (1, 1)


def test_render_and_negation_closed_check_once(calls):
    # no product (is_idempotent needs none) and one assignment (is_strongly_regular) each
    for e in GOLDEN_IDEMPOTENTS:
        calls.clear()
        render_matrix(e)
        assert (calls["mat_mul"], calls["_max_assignment"]) == (0, 1)
        calls.clear()
        negation_closed(e)
        assert (calls["mat_mul"], calls["_max_assignment"]) == (0, 1)
        assert calls["int_vectors"] == 1  # the three negated columns in one span test


@pytest.fixture
def entries_reads(monkeypatch):
    """Counts reads of ``Matrix.entries``, the ``Fraction`` form of a matrix."""
    counts = Counter()
    fget = Matrix.entries.fget

    def counted(self):
        counts["entries"] += 1
        return fget(self)

    monkeypatch.setattr(Matrix, "entries", property(counted))
    return counts


def test_diagonal_checks_read_the_int_grid(entries_reads):
    star = kleene_star(to_matrix(rand_semimetric(random.Random(223), 16)).scale(-1)).star
    # an idempotent whose diagonal is not zero: [[0, -1], [-1, -2]] squared is itself
    e = Matrix([[0, -1], [-1, -2]])
    entries_reads.clear()
    assert star_fixed_point_check(star)
    for refuse in (halfspace_rep, render_matrix):
        with pytest.raises(PreconditionError, match="zero-diagonal idempotent"):
            refuse(e)
    assert not entries_reads


def star_output(tmp_path, capsys, a, *flags):
    path = tmp_path / "a.tmat"
    path.write_text(serialize_matrix(a))
    assert cli_main(["star", str(path), *flags]) == 0
    return capsys.readouterr().out


def test_star_diverges_on_a_positive_cycle_through_the_last_pivots(tmp_path, capsys):
    n = 128
    rng = random.Random(221)
    grid = [[Fraction(rng.randint(-30, -1), rng.choice(PRIMES)) - 1 for _ in range(n)] for _ in range(n)]
    grid[n - 2][n - 1], grid[n - 1][n - 2] = Fraction(1, 3), Fraction(-1, 5)
    a = Matrix(grid)
    res = kleene_star(a)
    assert not res.converges and res.star is None
    assert star_output(tmp_path, capsys, a) == "diverges (eigenvalue 1/15)\n"
    assert star_output(tmp_path, capsys, a, "--decimal") == "diverges (eigenvalue 0.06666666666666667)\n"


def star_additions(monkeypatch, a):
    """``kleene_star(a)`` and the number of additions its pass makes."""
    adds = Counter()

    class Counted(int):
        def __add__(self, other):
            adds["+"] += 1
            return int(self) + other

    num, den = semiring_module.square_grid(a)
    grid = [list(map(Counted, row)) for row in num]
    with monkeypatch.context() as patch:
        patch.setattr(closure_module, "square_grid", lambda _: (grid, den))
        res = kleene_star(a)
    return res, adds["+"]


def test_star_of_huge_positive_entries_stops_at_once(monkeypatch, tmp_path, capsys):
    """Every cycle mean is c = 2^100 + 1/3, so entry (0, 0) is positive and
    the star answers before the first pivot: no addition, where a full pass
    or Karp's recurrence makes about n^3."""
    n = 128
    rng = random.Random(222)
    c = 2**100 + Fraction(1, 3)
    x = [Fraction(rng.getrandbits(90), rng.choice(PRIMES)) for _ in range(n)]
    a = Matrix([[c + x[i] - x[j] for j in range(n)] for i in range(n)])
    res, adds = star_additions(monkeypatch, a)
    assert not res.converges and res.star is None
    assert adds == 0
    assert star_output(tmp_path, capsys, a) == f"diverges (eigenvalue {c})\n"
    assert star_output(tmp_path, capsys, a, "--decimal") == "diverges (eigenvalue 1.2676506002282294e+30)\n"


def plain_star(a):
    """The star's Floyd-Warshall pass with no row skipped: (converges, star)."""
    grid, den = semiring_module.square_grid(a)
    grid = [list(row) for row in grid]
    n = a.rows
    for k in range(n):
        rowk = grid[k]
        for i in range(n):
            ik = grid[i][k]
            rowi = grid[i]
            for j in range(n):
                cand = ik + rowk[j]
                if cand > rowi[j]:
                    rowi[j] = cand
            if rowi[i] > 0:
                return False, None
    for i in range(n):
        grid[i][i] = max(grid[i][i], 0)
    return True, Matrix._from_ints(grid, den)


def band_grid(rng, n):
    """Distances in [6, 12] off the diagonal, so each is at most twice any other."""
    symmetric = rng.random() < 0.5
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i][j] = d[j][i] if symmetric and j < i else Fraction(rng.randint(18, 36), 3)
    return d


def hub_grid(rng, n):
    """Distances along a star: leaf i is a[i] from the hub 0, the hub is b[i]
    from leaf i, and leaf to leaf goes through the hub."""
    a = [Fraction(0)] + [Fraction(rng.randint(1, 18), 3) for _ in range(n - 1)]
    b = a  # symmetric half the time
    if rng.random() >= 0.5:
        b = [Fraction(0)] + [Fraction(rng.randint(1, 18), 3) for _ in range(n - 1)]
    return [[a[i] + b[j] if i != j else 0 for j in range(n)] for i in range(n)]


def closed_matrix(rng, kind, n):
    """The matrix -d of a table d that satisfies the triangle inequality."""
    if kind == "metric":
        return to_matrix(rand_metric(rng, n))
    if kind == "semimetric":
        return to_matrix(rand_semimetric(rng, n))
    if kind == "band":
        d = band_grid(rng, n)
    elif kind == "hub":
        d = hub_grid(rng, n)
    else:
        unit = Fraction(rng.randint(1, 9), 2)
        d = [[unit * x for x in row] for row in uniform_grid(n)]
    return Matrix([[-x for x in row] for row in d])


CLOSED_KINDS = ("band", "hub", "uniform", "metric", "semimetric")


def star_oracle_cases(rng):
    """(family, matrix) pairs for the star's oracle."""
    for k in range(100):  # closed tables: the pass changes nothing
        yield "closed", closed_matrix(rng, CLOSED_KINDS[k % 5], rng.randint(2, 10))
    for k in range(100):  # one entry moved, down (the pass may lift it back) or up
        n = rng.randint(3, 10)
        grid = [list(row) for row in closed_matrix(rng, CLOSED_KINDS[k % 5], n).entries]
        i, j = rng.sample(range(n), 2)
        grid[i][j] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 36), rng.choice((1, 2, 3)))
        yield "perturbed", Matrix(grid)
    for k in range(60):  # one positive entry, which lifts entries above every other of their column
        n = rng.randint(3, 10)
        grid = [list(row) for row in closed_matrix(rng, CLOSED_KINDS[k % 3], n).entries]
        i, j = rng.sample(range(n), 2)
        grid[i][j] = -grid[j][i] * rng.randint(1, 6) / 6  # no positive cycle
        yield "positive entry", Matrix(grid)
    for _ in range(60):  # a zero diagonal and no triangle inequality: the bounded pass changes entries
        n = rng.randint(3, 10)
        grid = [[0 if i == j else -prime_scalar(rng, 1, 60) for j in range(n)] for i in range(n)]
        yield "zero diagonal", Matrix(grid)
    for _ in range(20):
        n = rng.randint(1, 8)
        grid = prime_grid(rng, n, n)
        i = rng.randrange(n)
        grid[i][i] = Fraction(rng.randint(1, 9), rng.choice(PRIMES))
        yield "positive diagonal", Matrix(grid)
    for _ in range(20):  # x (x) y with max_i (x_i + y_i) = 0, a negative diagonal elsewhere
        n = rng.randint(2, 8)
        x = [prime_scalar(rng) for _ in range(n)]
        y = [prime_scalar(rng) for _ in range(n)]
        top = max(xi + yi for xi, yi in zip(x, y))
        yield "rank one", Matrix([[xi + yj - top for yj in y] for xi in x])
    for n in (1, 2) * 20:
        yield "small", prime_matrix(rng, n)
    for _ in range(20):  # eigenvalue 0 or below, as the spectral workload shifts
        yield "shifted", shift_nonpositive(rng, prime_matrix(rng, rng.randint(2, 8)))


def test_pruned_star_matches_the_plain_pass_and_the_series():
    families, counts = Counter(), Counter()
    for family, a in star_oracle_cases(random.Random(231)):
        res = kleene_star(a)
        assert (res.converges, res.star) == plain_star(a)
        families[family] += 1
        if not res.converges:
            assert eigenvalue(a) > 0
            counts["diverges"] += 1
            continue
        assert res.star == series_star(a)
        grid, _ = semiring_module.square_grid(a)
        unchanged = all(res.star[i, j] == a[i, j] for i in range(a.rows) for j in range(a.rows) if i != j)
        counts["unchanged"] += unchanged
        counts["negative diagonal, unchanged"] += unchanged and min(row[i] for i, row in enumerate(grid)) < 0
        counts["bounded, changed" if max(map(max, grid)) <= 0 else "positive entry, changed"] += not unchanged
    assert sum(families.values()) == 420
    assert counts["unchanged"] >= 150  # the closed tables, the rank-one ones and more
    assert counts["negative diagonal, unchanged"] >= 40
    assert counts["bounded, changed"] >= 100
    assert counts["positive entry, changed"] >= 70
    assert counts["diverges"] >= 70


def plain_stop(a):
    """The (pivot, row) at which the plain pass stops, or None when it converges."""
    grid = [list(row) for row in semiring_module.square_grid(a)[0]]
    n = len(grid)
    for k in range(n):
        for i in range(n):
            if i != k and grid[i][k] + grid[k][i] > 0:
                return k, i
            grid[i] = [max(x, grid[i][k] + y) for x, y in zip(grid[i], grid[k])]
    return None


def wide_band_matrix(rng, n, x):
    """-d for integer distances in [x, 2x], with d(1, 0) = 2x, and entry (0, 1) raised to 2x.

    The triangle inequality holds, so every cycle through (0, 1) weighs at
    most 2x - d(1, 0) = 0 and the star converges.  Here lo = -2x and hi =
    2x, so the packed pass's field width w is bit_length(4 n x) + 1.
    """
    grid = [[0 if i == j else -rng.randint(x, 2 * x) for j in range(n)] for i in range(n)]
    grid[1][0], grid[0][1] = -2 * x, 2 * x
    return Matrix(grid)


def test_packed_star_matches_the_plain_pass(monkeypatch):
    """Above the packed pass's gate: A - lambda with prime denominators, planted
    positive cycles, and fields just within and just past the width cap.

    On B = A - lambda - 1 every cycle weighs below 0.  Entry (n - 1, m) is
    raised to B*_(n-1),m, the best walk's weight, which keeps every cycle
    below 0, and entry (m, n - 1) to 1/D minus that, so that the 2-cycle on
    m and n - 1 weighs 1/D, one unit of the grid.  Every positive cycle
    passes through both, so the pass stops at pivot m, row n - 1: the first
    pivot, a middle one and the last at which a pass can stop.  Without the
    1/D the best cycles weigh 0 and the star converges.
    """
    gate, cap = closure_module._PACKED_MIN_ROWS, closure_module._PACKED_MAX_WIDTH
    widths = []  # the field width of every packed pass
    packed_pass = closure_module._packed_pass

    def counted(grid, lo, width):
        widths.append(width)
        return packed_pass(grid, lo, width)

    monkeypatch.setattr(closure_module, "_packed_pass", counted)
    rng = random.Random(233)
    cases = []
    for n in (gate - 1, gate, 32, 40):
        for _ in range(3):
            a = prime_matrix(rng, n)
            cases.append(("shifted", a.scale(-eigenvalue(a))))
        for m in (0, n // 2, n - 2, "zero cycle"):
            a = prime_matrix(rng, n)
            base = a.scale(-eigenvalue(a) - 1)
            grid = [list(row) for row in base.entries]
            den = lcm(*(x.denominator for row in grid for x in row))
            at = n // 2 if m == "zero cycle" else m
            grid[n - 1][at] = plain_star(base)[1][n - 1, at]
            grid[at][n - 1] = Fraction(m != "zero cycle", den) - grid[n - 1][at]
            cases.append((m, Matrix(grid)))
    for n in (gate, 32):
        for bits in (cap - 2, cap - 1):  # w = cap, then cap + 1
            x = -(-(2**bits) // (4 * n))
            cases.append(("wide", wide_band_matrix(rng, n, x)))
    runs = Counter()
    for family, a in cases:
        before = len(widths)
        res = kleene_star(a)
        runs[a.rows, family] += len(widths) - before
        assert (res.converges, res.star) == plain_star(a)
        stop = plain_stop(a)
        assert res.converges == (stop is None)
        if family in ("shifted", "wide", "zero cycle"):
            assert res.converges
        else:
            assert stop == (family, a.rows - 1) and eigenvalue(a) > 0
    for n in (gate - 1, gate, 32, 40):
        assert runs[n, "shifted"] == (3 if n >= gate else 0)
        assert [runs[n, m] for m in (0, n // 2, n - 2, "zero cycle")] == [int(n >= gate)] * 4
    # w = cap runs the packed pass and w = cap + 1 the plain one
    assert runs[gate, "wide"] == runs[32, "wide"] == 1 and widths.count(cap) == 2


@pytest.mark.parametrize("n", [16, 128])
def test_star_of_a_closed_table_makes_no_addition(monkeypatch, n):
    """On -d for a band table (distances in [6, 12]), a hub table and a
    uniform one, the column bound skips every row but the pivot's own."""
    rng = random.Random(232 + n)
    for kind in ("band", "hub", "uniform"):
        a = closed_matrix(rng, kind, n)
        res, adds = star_additions(monkeypatch, a)
        assert res.converges and res.star == a
        assert adds == 0, kind
