"""The dictionary between distance functions and max-plus idempotent matrices.

A distance function d on n points corresponds to the matrix with entries
-d(i, j).  The triangle inequality translates to idempotency, semimetrics
to strongly regular idempotents with negative off-diagonal entries, and
metrics to the symmetric ones.  ``classify`` evaluates every
characterization independently and treats any disagreement between the
provably equivalent routes as an internal bug.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum
from fractions import Fraction
from operator import add, sub

from .closure import is_idempotent, kleene_star
from .errors import ConsistencyError, PreconditionError, ShapeError
from .polytope import interior_test
from .rank import is_strongly_regular
from .semiring import Matrix, Vector, _Exact, int_grids, require_square, residuation, square_grid

__all__ = [
    "DistanceClass",
    "ValidationResult",
    "DistanceTable",
    "ClassificationReport",
    "validate",
    "to_matrix",
    "from_matrix",
    "classify",
    "residuation_distance",
    "hilbert_distance",
    "is_antichain",
    "embed",
    "residuation_bound_check",
]


class DistanceClass(IntEnum):
    """Strength ladder for a distance function; comparisons follow inclusion."""

    NOT_TRIANGLE = 0
    PRE_SEMIMETRIC = 1
    SEMIMETRIC = 2
    METRIC = 3

    def __str__(self):
        return self.name.lower()


@dataclass(frozen=True)
class ValidationResult:
    level: DistanceClass
    witness: tuple[int, ...] | None  # triple for a triangle failure, pair otherwise


class DistanceTable(_Exact):
    """A function d on pairs of [n] with exact rational values and zero diagonal.

    The d values are held in the storage core that ``semiring`` gives
    matrices and vectors, so the kernels run on their integer view; ``d``
    and ``entries`` give ``Fraction``s.  A table never equals a ``Matrix``.
    """

    __slots__ = ()

    def __init__(self, rows):
        super().__init__(rows)
        # checked on the rows as given: the integer view, built last, can cost far more
        grid = self._fracs
        if len(grid) != len(grid[0]):
            raise ShapeError("a distance table must be square and non-empty")
        for i, row in enumerate(grid):
            if row[i] != 0:
                raise PreconditionError(f"self-distance of point {i + 1} is {row[i]}, not 0")
        self._int_view()

    @property
    def n(self) -> int:
        return len(self._any_rows())

    @property
    def values(self) -> Matrix:
        """The d values as a matrix sharing the table's rows, in O(1).

        :func:`to_matrix` gives their negation.
        """
        return self._as(Matrix)

    def d(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"DistanceTable({self.n} points: {body})"


def validate(table: DistanceTable) -> ValidationResult:
    """Report the strongest class the table satisfies, with a failure witness.

    Checks the triangle inequality first, then nonnegativity and separation,
    then symmetry; the witness is the first violating triple or pair in
    row-major order.

    A pair (i, j) fails the triangle inequality only through a third point
    k, and d(i, k) + d(k, j) is at least low_out[i] + low_in[j], the least
    entries of row i and column j off the diagonal.  So a pair within that
    bound cannot fail and is not scanned.  Symmetry is decided first: on a
    symmetric table the columns are the rows, so low_in is low_out, and
    (j, i) fails whenever (i, j) does, so only pairs with j >= i are
    scanned.
    The cost is O(n^2) when every pair is within the bound, and otherwise
    one O(n) scan per remaining pair; the worst case is still O(n^3).
    """
    (d,), _ = int_grids(table)
    n = len(d)
    if n == 1:
        return ValidationResult(DistanceClass.METRIC, None)
    cols = list(zip(*d))
    mirrored = [row == col for row, col in zip(d, cols)]
    half = all(mirrored)
    low_out = _off_diagonal_minima(d)
    low_in = low_out if half else _off_diagonal_minima(cols)
    failure = _triangle_failure(d, cols, range(n), low_out, low_in, half)
    if failure is not None:
        return ValidationResult(DistanceClass.NOT_TRIANGLE, failure)
    for i, row in enumerate(d):
        if low_out[i] <= 0:
            j = next(j for j, dij in enumerate(row) if j != i and dij <= 0)
            return ValidationResult(DistanceClass.PRE_SEMIMETRIC, (i, j))
    if not half:
        i = mirrored.index(False)
        j = next(j for j in range(i + 1, n) if d[i][j] != cols[i][j])
        return ValidationResult(DistanceClass.SEMIMETRIC, (i, j))
    return ValidationResult(DistanceClass.METRIC, None)


def _off_diagonal_minima(grid) -> list:
    """Package-internal: the least entry of each row of a square grid, its diagonal left out."""
    return [min(row[:i] + row[i + 1 :]) for i, row in enumerate(grid)]


def _triangle_failure(d, cols, rows, low_out, low_in, half) -> tuple[int, int, int] | None:
    """Package-internal: the first triple (i, k, j) with d(i, j) > d(i, k) + d(k, j), i in ``rows``.

    ``d`` is a square int grid with zero diagonal, ``cols`` its columns,
    and ``low_out``, ``low_in`` the :func:`_off_diagonal_minima` of both.
    The rows are scanned in the order given, each over increasing j, or
    over j >= i only when ``half`` is set; that suffices only when ``d``
    is symmetric and ``rows`` holds every row.  A pair with
    d(i, j) - low_in[j] <= low_out[i] is within the bound and is skipped.
    """
    for i in rows:
        row = d[i]
        start = i if half else 0
        bound = low_out[i]
        slack = list(map(sub, row[start:], low_in[start:]))
        if max(slack) <= bound:
            continue
        for j, s in enumerate(slack, start):
            if s > bound:
                dij, col = row[j], cols[j]
                if dij > min(map(add, row, col)):
                    k = next(k for k, (a, b) in enumerate(zip(row, col)) if dij > a + b)
                    return i, k, j
    return None


def _table_level(a: Matrix) -> DistanceClass | None:
    """Package-internal: the ``validate`` level of the table -a.

    ``a`` is a square ``Matrix``; the answer is ``None`` when its diagonal
    is nonzero, so that -a is no table.
    """
    try:
        table = from_matrix(a)
    except PreconditionError:
        return None
    return validate(table).level


def to_matrix(table: DistanceTable) -> Matrix:
    """The matrix of the distance function: entrywise negation."""
    return -table.values


def from_matrix(d: Matrix) -> DistanceTable:
    """Inverse of :func:`to_matrix`; requires an all-zero diagonal."""
    require_square(d)  # the diagonal is read before the integer view is built
    if any(row[i] != 0 for i, row in enumerate(d._any_rows())):
        raise PreconditionError("matrix has a nonzero diagonal entry")
    return (-d)._as(DistanceTable)


@dataclass(frozen=True)
class ClassificationReport:
    """Independent findings for one square matrix; see :func:`classify`."""

    idempotent: bool
    zero_diagonal: bool
    kleene_fixed: bool
    strongly_regular: bool
    off_diagonal_negative: bool
    symmetric: bool
    origin_in_interior: bool
    columns_sum_to_zero: bool
    rows_sum_to_zero: bool
    is_semimetric_matrix: bool
    is_metric_matrix: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _origin_interior(gens: Matrix, sr: bool, idem: bool) -> bool:
    # interior_test is None when the origin is outside the span of the rows
    return sr and idem and interior_test(gens, Vector.zeros(gens.cols)) is True


def classify(a: Matrix) -> ClassificationReport:
    """Evaluate every matrix-side characterization of semimetrics and metrics.

    All flags are computed independently; the characterizations are provably
    equivalent, so any disagreement raises ``ConsistencyError``.
    """
    grid, _ = square_grid(a)
    idem = is_idempotent(a)
    zero_diag = all(row[i] == 0 for i, row in enumerate(grid))
    star = kleene_star(a)
    kleene_fixed = star.converges and star.star == a
    sr = is_strongly_regular(a)
    # per-row maxima off the diagonal; at n = 1 there is none, and the flag holds
    off_neg = all(max(row[:i] + row[i + 1 :], default=-1) < 0 for i, row in enumerate(grid))
    at = a.transpose()
    symmetric = a == at
    cols_zero = all(max(row) == 0 for row in grid)
    rows_zero = all(max(col) == 0 for col in zip(*grid))
    # the columns of a are the rows of at, and the other way round
    origin_col = _origin_interior(at, sr, idem)
    origin_row = _origin_interior(a, sr, idem)

    level = _table_level(a)
    semi = level is not None and level >= DistanceClass.SEMIMETRIC

    equivalents = {
        "regular idempotent with negative off-diagonal": sr and off_neg and idem,
        "star-fixed with negative off-diagonal": kleene_fixed and off_neg,
        "origin interior to the column space": origin_col,
        "columns sum to the interior origin": origin_col and cols_zero,
        "origin interior to the row space": origin_row,
        "rows sum to the interior origin": origin_row and rows_zero,
    }
    for name, value in equivalents.items():
        if value != semi:
            raise ConsistencyError(
                f"semimetric characterizations disagree: direct test {semi}, {name} {value}"
            )

    metric = semi and symmetric
    if metric != (sr and symmetric and idem):
        raise ConsistencyError("metric characterizations disagree")

    return ClassificationReport(
        idempotent=idem,
        zero_diagonal=zero_diag,
        kleene_fixed=kleene_fixed,
        strongly_regular=sr,
        off_diagonal_negative=off_neg,
        symmetric=symmetric,
        origin_in_interior=origin_col,
        columns_sum_to_zero=cols_zero,
        rows_sum_to_zero=rows_zero,
        is_semimetric_matrix=semi,
        is_metric_matrix=metric,
    )


def residuation_distance(x: Vector, y: Vector) -> Fraction:
    """max(x_i - y_i): the negated residuation bracket."""
    return -residuation(x, y)


def hilbert_distance(x: Vector, y: Vector) -> Fraction:
    """Mean of the two residuation distances; a metric up to scaling."""
    return (residuation_distance(x, y) + residuation_distance(y, x)) / 2


def is_antichain(points) -> bool:
    """No two distinct points comparable in the componentwise order."""
    pts = list(points)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if x == y:
                continue
            if x <= y or y <= x:
                return False
    return True


def embed(table: DistanceTable) -> list[Vector]:
    """Realize a semimetric as points of tropical n-space.

    The columns of the associated matrix reproduce the table under
    residuation distance, and under the Hilbert distance as well when the
    table is symmetric.
    """
    result = validate(table)
    if result.level < DistanceClass.SEMIMETRIC:
        witness = tuple(i + 1 for i in result.witness)
        raise PreconditionError(
            f"table is {result.level}, not a semimetric (witness points {witness})"
        )
    return to_matrix(table).column_vectors()


def residuation_bound_check(e: Matrix) -> bool:
    """Verify the residuation identities satisfied by every idempotent.

    Each entry is bounded by the row and the column bracket.  The row
    bracket is attained whenever e[j, j] == 0, the column bracket whenever
    e[i, i] == 0; in particular both equalities hold everywhere for
    zero-diagonal idempotents.  These always hold, so a violation is a
    fatal consistency error.
    """
    grid, _ = square_grid(e)
    if not is_idempotent(e):
        raise PreconditionError("residuation_bound_check requires an idempotent matrix")
    cols = list(zip(*grid))
    # on ints over one D: the row bracket of (i, j) is min_k(e[i, k] - e[j, k]),
    # the column bracket min_k(e[k, j] - e[k, i])
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            row_bracket = min(map(sub, row, grid[j]))
            col_bracket = min(map(sub, cols[j], cols[i]))
            if x > row_bracket or x > col_bracket:
                raise ConsistencyError(f"residuation bound violated at ({i}, {j})")
            if grid[j][j] == 0 and x != row_bracket:
                raise ConsistencyError(f"row residuation equality violated at ({i}, {j})")
            if grid[i][i] == 0 and x != col_bracket:
                raise ConsistencyError(f"column residuation equality violated at ({i}, {j})")
    return True
