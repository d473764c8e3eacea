"""Spectral data of square max-plus matrices: cycle means, Kleene star, idempotency."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub

from .errors import ConsistencyError
from .semiring import Matrix, square_grid

__all__ = ["StarResult", "eigenvalue", "kleene_star", "is_idempotent", "star_fixed_point_check"]


@dataclass(frozen=True)
class StarResult:
    """Outcome of a Kleene star computation.

    ``converges`` holds exactly when the eigenvalue is <= 0; ``star`` is the
    series limit in that case and ``None`` otherwise.  ``eigenvalue`` is
    computed by :func:`eigenvalue` on the input ``matrix`` the first time it
    is read, and then kept: deciding convergence does not need it.  That
    recurrence stops at the first periodic walk, which certifies the answer
    exactly: one O(n^2) step on an idempotent, at most O(n^3).
    """

    converges: bool
    star: Matrix | None
    matrix: Matrix = field(repr=False, compare=False)

    @cached_property
    def eigenvalue(self) -> Fraction:
        return eigenvalue(self.matrix)


def eigenvalue(a: Matrix) -> Fraction:
    """Maximum cycle mean of the complete digraph weighted by ``a``.

    Karp's recurrence, run exactly on the integer grid of ``a``: walk[k][v]
    is the best weight of a k-edge walk from node 0 to v.  It stops at the
    first periodic walk (the early termination of Hartmann & Orlin, 1993):
    if walk[k] - walk[k - c] is one constant s on every node, the answer is
    s / c.  The proof, with B = A^c and y = walk[k - c]:

    - y is a finite left eigenvector of B with eigenvalue s, since
      walk[k] = walk[k - c] (x) A^c.
    - Every entry of B is finite (the package has no -inf), so s is the
      maximum cycle mean of B.  Each y_j >= y_i + b_ij - s; summed around
      any cycle this says its mean is at most s.  Following back from any
      node a predecessor i that attains y_j = y_i + b_ij - s closes a cycle
      on which every edge attains it, so its mean is exactly s.
    - The maximum cycle mean of A^c is c times that of A: a cycle of A^c is
      a closed walk of A with c times as many edges, and a critical cycle
      of A, run c times over, is a closed walk of A^c.

    Idempotents stop at once, as walk[2] = walk[1] when A (x) A = A, so
    they cost one O(n^2) step.  Each step first compares two entries of the
    new walk with every earlier walk, O(k), and runs the O(n) comparison
    only where both agree.  If no walk is periodic by step n, the answer is
    Karp's max_v min_k (walk[n][v] - walk[k][v]) / (n - k), so the worst
    case stays O(n^3).  Means are compared by cross-multiplication, and
    only the answer becomes a ``Fraction``.
    """
    grid, den = square_grid(a)
    n = a.rows
    cols = list(zip(*grid))
    # walks[k - 1][v] = walk[k][v] for k = 1..n, all finite as the digraph is
    # complete; walk[0] is 0 at node 0 and -inf elsewhere
    walks = [grid[0]]
    for _ in range(n - 1):
        walk = [max(map(add, walks[-1], col)) for col in cols]
        for c, earlier in enumerate(reversed(walks), 1):
            s = walk[0] - earlier[0]
            if walk[1] - earlier[1] == s and all(x - y == s for x, y in zip(walk, earlier)):
                return Fraction(s, c * den)
        walks.append(walk)
    return _karp_mean(walks, den)


def _karp_mean(walks: list, den: int) -> Fraction:
    """Karp's max_v min_k (walk[n][v] - walk[k][v]) / (n - k), over D = ``den``."""
    n = len(walks)
    last = walks[-1]
    # a cycle mean is num / length on the scale of the grid, so num / (length * den)
    best_num, best_len = None, 1
    for v in range(n):
        worst_num, worst_len = (last[0], n) if v == 0 else (None, 1)
        for k in range(1, n):
            num, length = last[v] - walks[k - 1][v], n - k
            if worst_num is None or num * worst_len < worst_num * length:
                worst_num, worst_len = num, length
        if best_num is None or worst_num * best_len > best_num * worst_len:
            best_num, best_len = worst_num, worst_len
    return Fraction(best_num, best_len * den)


def kleene_star(a: Matrix) -> StarResult:
    """Join of all powers of ``a`` together with the identity.

    One Floyd-Warshall pass on the integer grid (best walk weights, exact
    when no cycle has positive weight) followed by joining the zero
    diagonal.  The pass decides divergence as it goes: every entry it
    writes is the weight of a real walk, so a positive diagonal entry is a
    positive closed walk and the eigenvalue is positive, and the pass stops
    there.  Conversely, once pivots 0..k are done, entry (u, u) is at least
    the weight of every simple cycle through u whose other nodes are <= k;
    a positive cycle contains a positive simple cycle, which shows on the
    diagonal at its largest node.  So a pass that ends with every diagonal
    entry <= 0 proves the eigenvalue <= 0.
    """
    grid, den = square_grid(a)
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
                return StarResult(False, None, a)
    for i in range(n):
        if grid[i][i] < 0:
            grid[i][i] = 0
    return StarResult(True, Matrix._from_ints(grid, den), a)


def is_idempotent(a: Matrix) -> bool:
    """Exact test of A (x) A == A, on the integer grid and without the product.

    Upper half, A (x) A <= A: every a_ik + a_kj <= a_ij.

    - With i = j = k this says a_ii <= 0, so a positive diagonal entry
      answers False at once.
    - With every a_ii <= 0, the terms k = i and k = j never exceed a_ij.
    - Any other k gives a_ik + a_kj <= hi_out[i] + hi_in[j], the largest
      entries of row i and of column j off the diagonal.  So a pair with
      a_ij >= hi_out[i] + hi_in[j] cannot fail, and a row whose least
      a_ij - hi_in[j] is at least hi_out[i] is settled as a whole.

    Lower half, A (x) A >= A: entry (i, j) is reached through k = i when
    a_ii = 0 and through k = j when a_jj = 0.  Rank-one idempotents x (x) y
    can have negative diagonal entries, so a pair with a_ii < 0 and
    a_jj < 0 is not settled by this.

    Every pair settled by neither half gets its product entry, one O(n)
    maximum, which must equal a_ij; the scan stops at the first pair that
    fails.  On a symmetric matrix A (x) A is symmetric too, hi_out equals
    hi_in, and both rules treat (i, j) and (j, i) alike, so only pairs
    with j >= i are scanned; symmetry is tested only once some row needs
    a scan.  The cost is O(n^2) when the bound settles every row and no
    diagonal entry is negative, and O(n^3) at worst.
    """
    grid, _ = square_grid(a)
    diag = [row[i] for i, row in enumerate(grid)]
    if max(diag) > 0:
        return False
    if len(grid) == 1:
        return diag[0] == 0
    cols = list(zip(*grid))
    hi_in = [max(col[:j] + col[j + 1 :]) for j, col in enumerate(cols)]
    negative = [j for j, x in enumerate(diag) if x < 0]
    half = None  # whether the matrix is symmetric, once some row needs a scan
    for i, row in enumerate(grid):
        bound = max(row[:i] + row[i + 1 :])
        slack = list(map(sub, row, hi_in))
        if min(slack) >= bound:
            scan = negative if diag[i] < 0 else ()
        else:
            scan = [j for j, s in enumerate(slack) if s < bound or diag[i] < 0 and diag[j] < 0]
        if scan and half is None:
            half = list(grid) == cols
        if half:
            scan = [j for j in scan if j >= i]
        for j in scan:
            if max(map(add, row, cols[j])) != row[j]:
                return False
    return True


def star_fixed_point_check(a: Matrix) -> bool:
    """Whether ``a`` equals its own Kleene star.

    These are exactly the idempotents with all-zero diagonal; the direct
    test is cross-checked against the computed closure.
    """
    grid, _ = square_grid(a)
    direct = all(row[i] == 0 for i, row in enumerate(grid)) and is_idempotent(a)
    res = kleene_star(a)
    if res.converges:
        if (res.star == a) != direct:
            raise ConsistencyError("star fixed-point test disagrees with the computed closure")
    elif direct:
        raise ConsistencyError("matrix equal to its star but the star diverges")
    return direct
