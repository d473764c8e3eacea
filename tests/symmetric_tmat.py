"""Print a distance table with a large, known isometry group as a tmat file.

Usage: python tests/symmetric_tmat.py FAMILY N > table.tmat

FAMILY is one of
  uniform  U_N: N points pairwise at distance 1; group order N!
  cycle    C_N: the N-cycle's path metric; order 2N (N >= 3)
  cube     Q_N: the N-cube's Hamming metric on 2^N points; order 2^N N!
  pairs    N disjoint pairs: 2N points at distance 1 within a pair and
           2 across; order 2^N N!
  paley    the Paley graph's distance on N points, N a prime = 1 (mod 4):
           1 where j - i is a nonzero square mod N, else 2; order N(N-1)/2

These are the symmetric families whose isometry groups must be found from
a stabiliser chain rather than listed: at the parse cap of 128 points the
uniform and pairs tables have groups of order about 10^215 and 10^108.
"""

import sys


def uniform_grid(n):
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def cycle_grid(n):
    return [[min((i - j) % n, (j - i) % n) for j in range(n)] for i in range(n)]


def cube_grid(k):
    return [[bin(i ^ j).count("1") for j in range(2**k)] for i in range(2**k)]


def pairs_grid(m):
    return [[0 if i == j else 1 if i // 2 == j // 2 else 2 for j in range(2 * m)] for i in range(2 * m)]


def paley_grid(q):
    squares = {x * x % q for x in range(1, q)}
    return [[0 if i == j else 1 if (j - i) % q in squares else 2 for j in range(q)] for i in range(q)]


FAMILIES = {
    "uniform": uniform_grid,
    "cycle": cycle_grid,
    "cube": cube_grid,
    "pairs": pairs_grid,
    "paley": paley_grid,
}


def main(family: str, n: int) -> None:
    grid = FAMILIES[family](n)
    print("tmat 1")
    print(len(grid), len(grid))
    for row in grid:
        print(" ".join(map(str, row)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
