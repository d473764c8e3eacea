"""Tropical permanent, strong regularity, and ranks of idempotent matrices."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closure import is_idempotent
from .errors import ConsistencyError, PreconditionError, ShapeError
from .permutation import Permutation
from .semiring import Matrix, from_int, int_grid, scalar

__all__ = [
    "PermanentResult",
    "permanent",
    "is_strongly_regular",
    "zero_diag_regularity",
    "idempotent_rank",
    "idempotent_family",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PermanentResult:
    """Maximum over permutations of the tropical diagonal product.

    ``witness`` attains ``value``; ``attaining_unique`` says whether it is
    the only permutation doing so.
    """

    value: Fraction
    attaining_unique: bool
    witness: Permutation


def _max_assignment(cost):
    """Maximum-weight assignment via the O(n^3) potentials method, exactly.

    Runs the shortest-augmenting-path Hungarian algorithm on ``cost``, the
    negated integer weights.  Returns (column-of-row images, u, v) where the
    potentials satisfy u[i] + v[j] <= cost[i][j] with equality on matched
    pairs, so the tight edges carry every optimal permutation.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [n] * (n + 1)  # p[j] = row matched to column j; column n is virtual
    way = [n] * (n + 1)
    for i in range(n):
        p[n] = i
        j0 = n
        minv = [None] * (n + 1)  # the first scan from row i sets every column
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = None
            row = cost[i0]
            ui = u[i0]
            for j in range(n):
                if used[j]:
                    continue
                cur = row[j] - ui - v[j]
                m = minv[j]
                if m is None or cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if delta is None or m < delta:
                    delta = m
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == n:
                break
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    images = [0] * n
    for j in range(n):
        images[p[j]] = j
    return images, u[:n], v[:n]


def _second_optimum_exists(cost, images, u, v) -> bool:
    """Look for an alternating cycle of tight edges.

    Every optimal permutation uses only edges tight against the optimal
    dual, and a second one exists exactly when the digraph
    row i -> row matched to j, over tight non-matching edges (i, j),
    contains a directed cycle.
    """
    n = len(cost)
    owner = [0] * n
    for i, j in enumerate(images):
        owner[j] = i
    succs = []
    for i in range(n):
        row = cost[i]
        out = [
            owner[j]
            for j in range(n)
            if j != images[i] and row[j] == u[i] + v[j]
        ]
        succs.append(out)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack = [(start, iter(succs[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def permanent(a: Matrix) -> PermanentResult:
    """Tropical permanent with an optimal permutation and a uniqueness flag."""
    if not a.is_square:
        raise ShapeError(f"square matrix required, got {a.rows}x{a.cols}")
    weights = int_grid(a, "permanent")
    cost = [[-e for e in row] for row in weights]
    images, u, v = _max_assignment(cost)
    value = from_int(a, sum(weights[i][images[i]] for i in range(a.rows)))
    unique = not _second_optimum_exists(cost, images, u, v)
    return PermanentResult(value, unique, Permutation(images))


def is_strongly_regular(a: Matrix) -> bool:
    """Full tropical rank: the permanent is attained by a unique permutation."""
    return permanent(a).attaining_unique


def zero_diag_regularity(e: Matrix) -> bool:
    """Regularity test special to zero-diagonal idempotents.

    Such a matrix has rank below n exactly when some off-diagonal pair
    satisfies e[i, j] == -e[j, i]; the answer is cross-checked against the
    permanent-based test.
    """
    if not is_idempotent(e):
        raise PreconditionError("zero_diag_regularity requires an idempotent matrix")
    n = e.rows
    if any(e[i, i] != _ZERO for i in range(n)):
        raise PreconditionError("zero_diag_regularity requires an all-zero diagonal")
    deficient = any(
        e[i, j] == -e[j, i] for i in range(n) for j in range(i + 1, n)
    )
    result = not deficient
    if result != is_strongly_regular(e):
        raise ConsistencyError("pairwise regularity test disagrees with the permanent")
    return result


def idempotent_rank(e: Matrix) -> int:
    """Number of extremal points of the column space, up to scaling."""
    from .polytope import extremal_columns

    return len(extremal_columns(e))


def idempotent_family(e: Matrix, lam) -> Matrix:
    """A distinct idempotent with the same column space as ``e``.

    Scales by ``lam < 0`` the lowest-index column expressible from the
    other zero-diagonal columns.  Only rank-deficient idempotents admit
    such a column; strongly regular input is an error.
    """
    from .polytope import membership

    lam = scalar(lam)
    if lam >= 0:
        raise PreconditionError("the scaling parameter must be negative")
    if not is_idempotent(e):
        raise PreconditionError("idempotent_family requires an idempotent matrix")
    n = e.rows
    cols = e.column_vectors()
    zero_diag = [i for i in range(n) if e[i, i] == _ZERO]
    for j in range(n):
        gens = [cols[i] for i in zero_diag if i != j]
        if gens and membership(gens, cols[j]).member:
            grid = [list(row) for row in e.entries]
            for i in range(n):
                grid[i][j] += lam
            return Matrix(grid)
    raise PreconditionError("matrix is strongly regular: every column is essential")
