"""Print a valid n x n tmat file with a distinct 120-bit denominator per entry.

Usage: python tests/hostile_tmat.py N > hostile.tmat

The off-diagonal entries lie in [-12, -6] and the diagonal is 0, so the
file passes every parse cap up to N = 128 while its common denominator has
about N^2 * 120 bits.  The output depends only on N, which also seeds the
generator.
"""

import random
import sys
from math import gcd


def text(n: int) -> str:
    rng, used = random.Random(n), set()
    lines = ["tmat 1", f"{n} {n}"]
    for i in range(n):
        row = []
        for j in range(n):
            q = p = 0
            while i != j and (q in used or gcd(p, q) != 1):
                q = rng.getrandbits(120) | 1 << 119
                p = rng.randint(-12 * q, -6 * q)
            used.add(q)
            row.append(f"{p}/{q}" if i != j else "0")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def main(n: int) -> None:
    print(text(n), end="")


if __name__ == "__main__":
    main(int(sys.argv[1]))
