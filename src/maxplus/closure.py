"""Spectral data of square max-plus matrices: cycle means, Kleene star, idempotency."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub

from .errors import ConsistencyError
from .semiring import Matrix, square_grid

__all__ = ["StarResult", "eigenvalue", "kleene_star", "is_idempotent", "star_fixed_point_check"]

# the star's packed pass runs from this many rows, at fields this wide at most;
# see kleene_star
_PACKED_MIN_ROWS = 24
_PACKED_MAX_WIDTH = 96


@dataclass(frozen=True)
class StarResult:
    """Outcome of a Kleene star computation.

    ``converges`` holds exactly when the eigenvalue is <= 0; ``star`` is the
    series limit in that case and ``None`` otherwise.  ``eigenvalue`` is
    computed by :func:`eigenvalue` on the input ``matrix`` the first time it
    is read, and then kept: deciding convergence does not need it.  That
    policy iteration stops at the first round that certifies the answer
    exactly: one O(n^2) round on the negation of a distance table that
    satisfies the triangle inequality, at most O(n^3).
    """

    converges: bool
    star: Matrix | None
    matrix: Matrix = field(repr=False, compare=False)

    @cached_property
    def eigenvalue(self) -> Fraction:
        return eigenvalue(self.matrix)


def eigenvalue(a: Matrix) -> Fraction:
    """Maximum cycle mean of the complete digraph weighted by ``a``.

    Howard's policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick
    & Quadrat, "Numerical computation of spectral elements in max-plus
    algebra", 1998), run exactly on the integer grid of ``a``.  A policy
    picks one successor pi(i) for every node, starting from the first
    maximum of row i.  Each round takes the best cycle of the policy, of
    mean p / q (weight p over q edges), and the bias X of B = q A - p that
    leads every node along the policy into that cycle (see
    :func:`_policy_value`).  Then pi(i) moves to the first j attaining
    max_j (b_ij + X_j), and only where that maximum exceeds X_i.

    A round that moves nothing certifies p / q exactly: b_ij + X_j <= X_i
    for every i and j, so around any cycle of length L and weight W,
    q W - L p <= 0, that is W / L <= p / q; and the policy's cycle attains
    p / q.  The first round settles an idempotent with a zero diagonal and
    no positive entry, the negation of a distance table that satisfies the
    triangle inequality: its first policy takes only 0 edges, so every
    cycle of it has p = 0, and the bias is 0 on the nodes led into r and
    q a_ir on the others, which idempotency keeps above every b_ij + X_j.
    A round costs O(n^2); if none of n rounds settles, Karp's recurrence
    walk[k][v], the best weight of a k-edge walk from node 0 to v, runs for
    n steps and the answer is max_v min_k (walk[n][v] - walk[k][v]) /
    (n - k), so the worst case stays O(n^3).  Means are compared by
    cross-multiplication, and only the answer becomes a ``Fraction``.
    """
    grid, den = square_grid(a)
    n = a.rows
    policy = [row.index(max(row)) for row in grid]
    scaled = {1: grid}  # q A, for each cycle length q a round has met
    for _ in range(n):
        p, q, bias = _policy_value(grid, policy)
        if q not in scaled:
            scaled[q] = [[q * x for x in row] for row in grid]
        stable = True
        for i, row in enumerate(scaled[q]):
            top = max(map(add, row, bias))
            if top - p > bias[i]:
                policy[i] = list(map(add, row, bias)).index(top)
                stable = False
        if stable:
            return Fraction(p, q * den)
    cols = list(zip(*grid))
    # walks[k - 1][v] = walk[k][v] for k = 1..n, all finite as the digraph is
    # complete; walk[0] is 0 at node 0 and -inf elsewhere
    walks = [grid[0]]
    for _ in range(n - 1):
        walks.append([max(map(add, walks[-1], col)) for col in cols])
    return _karp_mean(walks, den)


def _policy_value(grid, policy: list) -> tuple[int, int, list]:
    """The best cycle of ``policy``, of weight p over q edges, and its bias X.

    Every walk along the policy ends in a cycle.  The cycle of greatest
    mean p / q (the first found, on ties) is kept, with r its node first
    reached.  Every node whose walk ends in another cycle is pointed at r
    instead, so that ``policy`` (changed in place) leads every node into
    r's cycle.  Then X_r = 0 and X_i = q a_i,pi(i) - p + X_pi(i) for every
    other node, which is consistent around r's cycle, whose weight in
    q A - p is 0.  O(n).
    """
    n = len(grid)
    walk_of = [None] * n  # the start of the walk that first reached each node
    ends, cycles = [], []  # ends[start]: the index in ``cycles`` its walk ends in
    for start in range(n):
        v = start
        while walk_of[v] is None:
            walk_of[v] = start
            last, v = v, policy[v]
        if walk_of[v] != start:  # the walk ran into an earlier one
            ends.append(ends[walk_of[v]])
            continue
        weight, length, u = grid[last][v], 1, v
        while u != last:
            weight += grid[u][policy[u]]
            length += 1
            u = policy[u]
        ends.append(len(cycles))
        cycles.append((weight, length, v))
    best = 0
    for k, (weight, length, _) in enumerate(cycles):
        if weight * cycles[best][1] > cycles[best][0] * length:
            best = k
    p, q, r = cycles[best]
    bias = [None] * n
    bias[r] = 0
    if len(cycles) > 1:
        for u in range(n):
            if ends[walk_of[u]] != best:
                policy[u] = r
                bias[u] = q * grid[u][r] - p
    for start in range(n):
        if bias[start] is not None:
            continue
        path, v = [], start
        while bias[v] is None:
            path.append(v)
            v = policy[v]
        x = bias[v]
        for u in reversed(path):
            x = bias[u] = q * grid[u][policy[u]] - p + x
    return p, q, bias


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
    there; a positive entry of ``a``'s own diagonal stops it before the
    first pivot.  Conversely, once pivots 0..k are done, entry (u, u) is at
    least the weight of every simple cycle through u whose other nodes are
    <= k; a positive cycle contains a positive simple cycle, which shows on
    the diagonal at its largest node.  So a pass that ends with every
    diagonal entry <= 0 proves the eigenvalue <= 0.

    Some rows that the pass would leave unchanged are skipped.  Every
    diagonal entry stays <= 0, as each is checked up front and after every
    row that changes, so g_kk + g_kj <= g_kj and row k is skipped at pivot
    k.  When no entry of ``a`` is positive, the other rows are skipped by a
    column bound.  Let hi_in[j] be the largest entry of column j of ``a``
    off the diagonal, and slack[i] = min_j (a_ij - hi_in[j]).  The pass
    writes an entry g_ij only as g_ik + g_kj with k not i or j, so no entry
    becomes positive and every off-diagonal entry of column j stays <=
    hi_in[j].  Entries only rise, so slack[i] <= g_ij - hi_in[j] for every
    j.  At pivot k, row i is skipped when g_ik <= slack[i]: then for j != k,
    g_ik + g_kj <= slack[i] + hi_in[j] <= g_ij, and for j = k, g_kk <= 0.
    So after every pivot the grid is the plain pass's.

    A positive entry in column k keeps every row at pivot k, since slack[i]
    <= a_ik - hi_in[k] < a_ik <= g_ik.  On such matrices, as A - lambda of a
    random A mostly is, a bound built anyway settled a few rows in a
    hundred, and its O(n^2) set-up cost more than they saved.  On the
    negation of a distance table d, row i is skipped at every pivot when
    d(i, j) <= d(i, k) + min_{m != j} d(m, j) for all j and all k != i: for
    example when every distance off the diagonal is at most twice every
    other one, or when d is measured along a star through one hub point.
    If the bound settles every row, the pass costs O(n^2); the worst case
    stays O(n^3).

    Otherwise some entry is positive, and when n >= 24 and w <= 96 (below)
    the pass runs on packed rows, "SIMD within a register" (Lamport, "Multiple
    byte processing with full-word instructions", 1975).  Let lo = min(0,
    least entry), hi the largest entry, and w = bit_length(2 (n-1) hi -
    2 lo) + 1.  Row i becomes one int whose field j, w bits from bit j w,
    holds g_ij - 2 lo; H marks the top bit of every field and ONES the
    lowest.  At pivot k the pass first tests g_ik + g_ki > 0, the only
    candidate for entry (i, i), so it stops at the same (k, i) as the plain
    pass.  Else c = row_k + g_ik ONES holds g_ik + g_kj - 2 lo in field j;
    m = ((row_i | H) - c) & H keeps the top bit of the fields where
    g_ij >= c_j, m -= m >> (w - 1) fills each such field below that bit,
    and row_i = c ^ ((row_i ^ c) & m) is the fieldwise maximum, the plain
    pass's row.  None of this carries or borrows across fields while every
    field of row_i and of c lies in [0, 2^(w-1)), which holds when every
    entry lies in [lo, (n-1) hi].  Entries only rise, so none is below lo.
    Each entry written is the weight of a walk whose inner nodes were
    pivots, so <= k while pivot k runs.  Cut the walk at repeated nodes into
    a path, of at most n - 1 edges each <= hi, and simple cycles on nodes
    <= k.  A cycle whose largest node is m weighs at most g_mm as it stood
    before pivot m, by the claim above, and that entry is <= 0, as every
    test before the stop passed.  So an entry off the diagonal is at most
    (n - 1) hi, and one on it at most 0.  Packing costs O(n^2) int
    operations, and each of the n (n - 1) row updates a dozen on ints of
    n w bits.  Measured on CPython 3.11 against the plain pass, on A -
    lambda with prime denominators: 1.2x at n = 24 and 1.35x at n = 32
    (w near 70), near 1x at n = 16 and at w near 100, where g_ik ONES
    multiplies by a fourth 30-bit digit.  The width cap also keeps tables
    with huge denominators on the plain pass.
    """
    grid, den = square_grid(a)
    n = a.rows
    if max(row[i] for i, row in enumerate(grid)) > 0:
        return StarResult(False, None, a)
    top = max(map(max, grid))
    width = 0  # of the packed pass's fields, when it may run
    if top > 0 and n >= _PACKED_MIN_ROWS:
        lo = min(0, min(map(min, grid)))
        width = (2 * (n - 1) * top - 2 * lo).bit_length() + 1
    if 0 < width <= _PACKED_MAX_WIDTH:
        grid = _packed_pass(grid, lo, width)
        if grid is None:
            return StarResult(False, None, a)
    else:
        grid = [list(row) for row in grid]
        slack = None
        if top <= 0:
            # at n = 1 no column has an entry off the diagonal, and only row k = 0 exists
            hi_in = [max(col[:j] + col[j + 1 :], default=0) for j, col in enumerate(zip(*grid))]
            slack = [min(map(sub, row, hi_in)) for row in grid]
        for k in range(n):
            rowk = grid[k]
            for i in range(n):
                rowi = grid[i]
                ik = rowi[k]
                if i == k or slack and ik <= slack[i]:
                    continue
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


def _packed_pass(grid, lo: int, width: int) -> list | None:
    """The pass on rows packed into ints of ``width``-bit fields; None once it diverges.

    Field j of row i holds f_ij = g_ij - 2 lo, which leaves room for the
    sum of two entries too; :func:`kleene_star` proves that it fits.
    Divergence at pivot 0 is found before any row is packed.
    """
    row0 = grid[0]
    if any(row[0] + x > 0 for row, x in zip(grid, row0)):
        return None
    n = len(grid)
    bias = -2 * lo
    mask = (1 << width) - 1
    top_bit = width - 1
    shifts = range(0, n * width, width)
    ones = ((1 << n * width) - 1) // mask
    guards = ones << top_bit
    packed = []
    for row in grid:
        r = 0
        for x in reversed(row):
            r = r << width | x + bias
        packed.append(r)
    for k, rowk in enumerate(packed):
        # c = base + f_ik ones holds g_ik + g_kj - 2 lo in field j
        base = rowk - bias * ones
        # g_ik + g_ki > 0 exactly when f_ik > limit[i]
        limit = [2 * bias - (rowk >> s & mask) for s in shifts]
        at = k * width
        for i, rowi in enumerate(packed):
            if i == k:
                continue
            fik = rowi >> at & mask
            if fik > limit[i]:
                return None
            c = base + fik * ones
            m = ((rowi | guards) - c) & guards
            m -= m >> top_bit
            packed[i] = c ^ ((rowi ^ c) & m)
    return [[(r >> s & mask) - bias for s in shifts] for r in packed]


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
