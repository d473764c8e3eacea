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
  latin    the Latin-square graph of a random N x N Latin square: N^2
           cells, 1 when two cells share a row, a column or a symbol,
           else 2.  The square comes from N^3 steps of the
           Jacobson-Matthews walk (Jacobson & Matthews, 1996) from the
           cyclic square, seeded with 1; its group is usually small

These are the symmetric families whose isometry groups must be found from
a stabiliser chain rather than listed: at the parse cap of 128 points the
uniform and pairs tables have groups of order about 10^215 and 10^108.
The Latin tables are the search's worst case found: few distances, much
hidden structure and a small group, so that most searches fail deep.
"""

import random
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


def latin_square(m):
    """Rows of symbols of a Latin square after m^3 Jacobson-Matthews steps.

    The walk works on the square's incidence cube, where cube[r][c][s] is 1
    when cell (r, c) holds s.  Each step adds 1 at a 0 of the cube (or at
    its one -1, while the square is improper) and moves the 1s of the
    three lines through it around a 2 x 2 x 2 subcube.
    """
    rng = random.Random(1)
    cube = [[[int((r + c) % m == s) for s in range(m)] for c in range(m)] for r in range(m)]
    bad, steps = None, 0
    while steps < m**3 or bad:
        if bad:
            r, c, s = bad
            pick = rng.choice
        else:
            r, c = rng.randrange(m), rng.randrange(m)
            s = rng.choice([z for z in range(m) if not cube[r][c][z]])
            pick = min  # a proper square has one 1 on each line
        r1 = pick([x for x in range(m) if cube[x][c][s] == 1])
        c1 = pick([y for y in range(m) if cube[r][y][s] == 1])
        s1 = pick([z for z in range(m) if cube[r][c][z] == 1])
        for x, y, z, step in ((r, c, s, 1), (r, c1, s1, 1), (r1, c, s1, 1), (r1, c1, s, 1),
                              (r, c, s1, -1), (r, c1, s, -1), (r1, c, s, -1), (r1, c1, s1, -1)):
            cube[x][y][z] += step
        bad = (r1, c1, s1) if cube[r1][c1][s1] < 0 else None
        steps += 1
    return [[cube[r][c].index(1) for c in range(m)] for r in range(m)]


def latin_grid(m):
    square = latin_square(m)
    cells = [(r, c, square[r][c]) for r in range(m) for c in range(m)]
    return [[0 if p == q else 1 if any(a == b for a, b in zip(p, q)) else 2 for q in cells] for p in cells]


FAMILIES = {
    "uniform": uniform_grid,
    "cycle": cycle_grid,
    "cube": cube_grid,
    "pairs": pairs_grid,
    "paley": paley_grid,
    "latin": latin_grid,
}


def tmat(grid) -> str:
    """The text of a square grid as a tmat file."""
    rows = [" ".join(map(str, row)) for row in grid]
    return "\n".join(["tmat 1", f"{len(grid)} {len(grid)}", *rows]) + "\n"


def main(family: str, n: int) -> None:
    print(tmat(FAMILIES[family](n)), end="")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
