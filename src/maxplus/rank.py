"""Tropical permanent, strong regularity, and ranks of idempotent matrices."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .closure import is_idempotent
from .errors import ConsistencyError, PreconditionError
from .permutation import Permutation, invert
from .semiring import Matrix, scalar, square_grid

__all__ = [
    "PermanentResult",
    "permanent",
    "is_strongly_regular",
    "zero_diag_regularity",
    "idempotent_rank",
    "idempotent_family",
]


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
    """Minimum-cost assignment via the O(n^3) potentials method, exactly.

    ``cost`` holds the negated integer weights, so this is the maximum-weight
    assignment.  Returns (column-of-row images, u, v) where the potentials
    satisfy u[i] + v[j] <= cost[i][j] with equality on matched pairs, so the
    tight edges carry every optimal permutation.

    A column reduction (Jonker & Volgenant, "A shortest augmenting path
    algorithm for dense and sparse linear assignment problems", 1987)
    starts it: u = 0, v[j] is the least cost in column j, and column j is
    matched to its first least row when that row is still free.  This dual
    is feasible and tight on the matched pairs, so only the rows left free
    run the shortest-augmenting-path Hungarian step, O(n^2) each.  That
    step is Dijkstra with lazy duals, as in the same paper: it moves the
    duals once per path rather than once per step, and the images and
    duals come out as the textbook step's (see :func:`_augment`).  A zero
    diagonal with positive costs elsewhere (the negation of a semimetric
    matrix) is matched in full by the reduction, in O(n^2).
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [n] * (n + 1)  # p[j] = row matched to column j; column n is virtual
    matched = [False] * n
    for j, col in enumerate(zip(*cost)):
        v[j] = low = min(col)
        i = col.index(low)
        if not matched[i]:
            matched[i] = True
            p[j] = i
    for i in range(n):
        if not matched[i]:
            _augment(cost, u, v, p, i)
    images = [0] * n
    for j in range(n):
        images[p[j]] = j
    return images, u[:n], v[:n]


def _augment(cost, u, v, p, i) -> None:
    """Match free row ``i`` along a shortest augmenting path, updating u, v and p in place.

    Dijkstra over the columns not yet reached, kept in index order: each
    step scans the row matched to the column reached last, at that
    column's distance d, and reaches the first column of least distance
    (``min`` keeps the first, as a strict < does).  The duals change once,
    when a free column is reached at distance D: each reached column j
    gives D - d_j to the dual of its row and takes it from v_j, and row
    ``i`` gains D.  The textbook step (e-maxx's Hungarian algorithm) moves
    the duals by the least slack after every step instead.  Its slacks are
    these distances less the sum of the earlier moves, one constant per
    step, and its moves sum to the same D - d_j, so it compares the same
    numbers in the same order and ends with the same path, images and
    duals.
    """
    n = len(cost)
    p[n] = i
    way = [n] * n
    dist = [x - u[i] for x in map(sub, cost[i], v)]  # the first scan sets every column
    free = list(range(n))
    reached = []
    while True:
        j0 = min(free, key=dist.__getitem__)
        free.remove(j0)
        d0 = dist[j0]
        i0 = p[j0]
        if i0 == n:
            break
        reached.append(j0)
        row = cost[i0]
        off = d0 - u[i0]
        for j in free:
            cur = row[j] - v[j] + off
            if cur < dist[j]:
                dist[j] = cur
                way[j] = j0
    for j in reached:
        delta = d0 - dist[j]
        u[p[j]] += delta
        v[j] -= delta
    u[i] += d0
    while j0 != n:
        j1 = way[j0]
        p[j0] = p[j1]
        j0 = j1


def _second_optimum_exists(cost, images, u, v) -> bool:
    """Look for an alternating cycle of tight edges.

    Every optimal permutation uses only edges tight against the optimal
    dual, and a second one exists exactly when the digraph
    row i -> row matched to j, over tight non-matching edges (i, j),
    contains a directed cycle.  The digraph has no self-loops, as
    owner[j] != i for j != images[i]; Kahn's algorithm peels rows of
    in-degree 0, and a cycle remains exactly when some row is never peeled.
    """
    n = len(cost)
    owner = invert(images)
    succs = []
    indegree = [0] * n
    for i, row in enumerate(cost):
        red = list(map(sub, row, v))  # edge (i, j) is tight when red[j] == u[i]
        out = []
        if red.count(u[i]) > 1:  # else the matched edge is the only tight one
            out = [owner[j] for j, x in enumerate(red) if x == u[i] and j != images[i]]
        for k in out:
            indegree[k] += 1
        succs.append(out)
    peeled = [i for i in range(n) if indegree[i] == 0]
    for i in peeled:  # the list grows while it is scanned
        for k in succs[i]:
            indegree[k] -= 1
            if indegree[k] == 0:
                peeled.append(k)
    return len(peeled) < n


def permanent(a: Matrix) -> PermanentResult:
    """Tropical permanent with an optimal permutation and a uniqueness flag."""
    weights, den = square_grid(a)
    cost = [[-e for e in row] for row in weights]
    images, u, v = _max_assignment(cost)
    value = Fraction(sum(weights[i][images[i]] for i in range(a.rows)), den)
    unique = not _second_optimum_exists(cost, images, u, v)
    return PermanentResult(value, unique, Permutation(images))


def is_strongly_regular(a: Matrix) -> bool:
    """Full tropical rank: the permanent is attained by a unique permutation."""
    return permanent(a).attaining_unique


def column_classes(e: Matrix, what: str) -> tuple[tuple[tuple[int, ...], ...], list[list[int]]]:
    """Package-internal: the integer grid of an idempotent and its column classes.

    A class holds the zero-diagonal columns proportional to its first one,
    by the rule E[j, k] + E[k, j] == 0; classes and their members are in
    index order.  A strongly regular idempotent has a zero diagonal and n
    singleton classes, its columns all being extremal (Develin, Santos &
    Sturmfels, "On the rank of a tropical matrix", 2005).  Raises
    ``PreconditionError``, naming ``what``, unless ``e`` is idempotent.
    """
    if not is_idempotent(e):
        raise PreconditionError(f"{what} requires an idempotent matrix")
    grid, _ = square_grid(e)
    classes: list[list[int]] = []
    for j, row in enumerate(grid):
        if row[j] != 0:
            continue
        # proportionality is an equivalence, so each class's first column decides
        for cls in classes:
            if row[cls[0]] + grid[cls[0]][j] == 0:
                cls.append(j)
                break
        else:
            classes.append([j])
    return grid, classes


def zero_diag_regularity(e: Matrix) -> bool:
    """Regularity test special to zero-diagonal idempotents.

    Such a matrix has rank below n exactly when some off-diagonal pair
    satisfies e[i, j] + e[j, i] == 0, that is when two columns are
    proportional (Butkovic, *Max-linear Systems*, 2010); the answer is
    cross-checked against the permanent-based test.
    """
    grid, classes = column_classes(e, "zero_diag_regularity")
    if any(row[i] != 0 for i, row in enumerate(grid)):
        raise PreconditionError("zero_diag_regularity requires an all-zero diagonal")
    result = len(classes) == e.rows
    if result != is_strongly_regular(e):
        raise ConsistencyError("pairwise regularity test disagrees with the permanent")
    return result


def idempotent_rank(e: Matrix) -> int:
    """Number of extremal points of the column space, up to scaling.

    These are the classes of zero-diagonal columns j, k with
    E[j, k] + E[k, j] == 0 (Butkovic, *Max-linear Systems*, 2010).
    """
    return len(column_classes(e, "idempotent_rank")[1])


def idempotent_family(e: Matrix, lam) -> Matrix:
    """A distinct idempotent with the same column space as ``e``.

    Scales by ``lam < 0`` the lowest-index column expressible from the
    other zero-diagonal columns: the lowest j with a nonzero diagonal
    entry, or with a zero-diagonal partner k != j such that
    E[j, k] + E[k, j] == 0 (Butkovic, *Max-linear Systems*, 2010).  Only
    rank-deficient idempotents admit such a column; strongly regular input
    is an error.
    """
    lam = scalar(lam)
    if lam >= 0:
        raise PreconditionError("the scaling parameter must be negative")
    grid, classes = column_classes(e, "idempotent_family")
    paired = {j for cls in classes if len(cls) > 1 for j in cls}
    redundant = [j for j, row in enumerate(grid) if row[j] != 0 or j in paired]
    if not redundant:
        raise PreconditionError("matrix is strongly regular: every column is essential")
    j = redundant[0]
    return Matrix([[x + lam if k == j else x for k, x in enumerate(row)] for row in e.entries])
