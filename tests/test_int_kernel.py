"""Randomized oracle tests for the integer kernels: product, Karp, star, assignment.

Denominators are drawn from the primes up to 47, so the common denominator
of a matrix grows large; every answer is compared with a brute-force
Fraction oracle from ``helpers``.
"""

import random
from fractions import Fraction

from maxplus import (
    NEG_INF,
    ExtMatrix,
    Matrix,
    eigenvalue,
    kleene_star,
    mat_mul,
    permanent,
)

from helpers import brute_cycle_mean, brute_mat_mul, brute_permanent, series_star

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def prime_scalar(rng, lo=-30, hi=30):
    return Fraction(rng.randint(lo, hi), rng.choice(PRIMES))


def prime_grid(rng, rows, cols, neg_inf=0.0):
    return [
        [NEG_INF if rng.random() < neg_inf else prime_scalar(rng) for _ in range(cols)]
        for _ in range(rows)
    ]


def prime_matrix(rng, n):
    return Matrix(prime_grid(rng, n, n))


def test_mat_mul_matches_naive_product():
    rng = random.Random(201)
    for _ in range(80):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        density = rng.choice((0.0, 0.0, 0.3, 0.7))
        cls = Matrix if density == 0.0 else ExtMatrix
        a = cls(prime_grid(rng, n, k, density))
        b = cls(prime_grid(rng, k, m, density))
        prod = mat_mul(a, b)
        expected = brute_mat_mul(a, b)
        assert [list(row) for row in prod.entries] == expected
        assert prod == ExtMatrix(expected)
        assert hash(prod) == hash(ExtMatrix(expected))
        finite = all(e is not NEG_INF for row in expected for e in row)
        assert isinstance(prod, Matrix) == finite


def test_eigenvalue_matches_cycle_enumeration():
    rng = random.Random(202)
    for _ in range(40):
        a = prime_matrix(rng, rng.randint(1, 6))
        assert eigenvalue(a) == brute_cycle_mean(a)


def test_kleene_star_matches_series():
    rng = random.Random(203)
    for _ in range(40):
        a = prime_matrix(rng, rng.randint(1, 6))
        lam = brute_cycle_mean(a)
        below = a.scale(-lam - rng.choice((0, 0, prime_scalar(rng, 1, 5))))
        res = kleene_star(below)
        assert res.converges
        assert res.star == series_star(below)
        above = a.scale(-lam + prime_scalar(rng, 1, 5))
        res = kleene_star(above)
        assert not res.converges and res.star is None
        assert res.eigenvalue == brute_cycle_mean(above) > 0


def test_permanent_matches_brute_force():
    rng = random.Random(204)
    for _ in range(60):
        n = rng.randint(1, 6)
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


def test_value_equal_matrices_are_equal_and_hash_equal():
    half = Matrix([["1/2"]])
    one = Matrix([[1]])
    assert half @ half == one and hash(half @ half) == hash(one)
    assert Matrix([["1/3", "2/3"]]).scale("2/3") == Matrix([[1, "4/3"]])
    assert ExtMatrix([[0]]) == Matrix([[0]]) and hash(ExtMatrix([[0]])) == hash(Matrix([[0]]))

    rng = random.Random(205)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = prime_matrix(rng, n)
        lam = prime_scalar(rng)
        routes = [
            a,
            Matrix(a.entries),
            a.scale(lam).scale(-lam),
            -(-a),
            a.transpose().transpose(),
            mat_mul(ExtMatrix.identity(n), a),
            mat_mul(a, ExtMatrix.identity(n)),
            a.oplus(a.scale(-abs(lam) - 1)),
        ]
        assert all(r == a for r in routes)
        assert len({hash(r) for r in routes}) == 1
        assert len(set(routes)) == 1
        assert all(r.entries == a.entries for r in routes)
