"""Isometry groups, units of the extended matrix monoid, and maximal subgroups."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .closure import _require_square, _square_grid, is_idempotent, kleene_star
from .errors import ConsistencyError, PreconditionError, ShapeError
from .metric import DistanceClass, DistanceTable, _table_level, validate
from .permutation import Permutation
from .polytope import in_span
from .rank import is_strongly_regular
from .semiring import (
    NEG_INF,
    ExtMatrix,
    Matrix,
    from_int_grid,
    from_int_scalars,
    int_grid,
    int_grids,
    scalar,
)

__all__ = [
    "IsometryGroup",
    "UnitDecomposition",
    "is_unit",
    "unit_decompose",
    "isometry_group",
    "commutes_with",
    "hclass_element",
    "hclass_decompose",
    "hclass_contains",
]


@dataclass(frozen=True)
class IsometryGroup:
    """All permutations preserving a distance table, closed under the group ops."""

    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma) -> bool:
        return sigma in self.elements

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class UnitDecomposition:
    """Factorization of a unit as diagonal times permutation matrix."""

    diagonal: tuple[Fraction, ...]
    perm: Permutation


def _unit_columns(g: ExtMatrix) -> list[int] | None:
    """Each row's one finite column, or ``None`` when ``g`` is not a unit."""
    _require_square(g)
    cols = []
    for row in g.entries:
        finite = [j for j, x in enumerate(row) if x is not NEG_INF]
        if len(finite) != 1:
            return None
        cols.append(finite[0])
    return cols if sorted(cols) == list(range(g.rows)) else None


def is_unit(g: ExtMatrix) -> bool:
    """Exactly one finite entry in every row and every column."""
    return _unit_columns(g) is not None


def unit_decompose(g: ExtMatrix) -> UnitDecomposition:
    """Write a unit as S * P with S the diagonal of its rows' finite entries."""
    cols = _unit_columns(g)
    if cols is None:
        raise PreconditionError("unit_decompose requires a unit matrix")
    diagonal = tuple(g[i, j] for i, j in enumerate(cols))
    # column j's finite entry sits in row sigma(j)
    return UnitDecomposition(diagonal, Permutation(cols).inverse())


def _require_group(found, n: int) -> list[tuple[int, ...]]:
    """Check that a set of image tuples of degree ``n`` is a group; return generators.

    The identity and every inverse must be in the set.  Then H = <T> grows
    from {id}: each generator is the first element of the sorted set not
    yet in H, and every new product must be in the set.  The set is a group
    exactly when H reaches all of it.  By Lagrange each generator at least
    doubles H, so |T| <= log2 |G| and the check costs O(|G| |T|)
    compositions.
    """
    members = set(found)
    identity = tuple(range(n))
    if identity not in members:
        # a finite nonempty set closed under composition holds the identity
        raise ConsistencyError("isometry set is not closed under composition")
    for p in members:
        inv = [0] * n
        for i, img in enumerate(p):
            inv[img] = i
        if tuple(inv) not in members:
            raise ConsistencyError("isometry set is not closed under inversion")

    gens: list[tuple[int, ...]] = []
    group = {identity}
    fresh: list[tuple[int, ...]] = []

    def multiply(h, s):
        q = tuple([h[j] for j in s])  # h * s
        if q not in group:
            if q not in members:
                raise ConsistencyError("isometry set is not closed under composition")
            group.add(q)
            fresh.append(q)

    for g in sorted(members):
        if g in group:
            continue
        gens.append(g)
        # the group so far is closed under the earlier generators, so only
        # its products with g are new; each new element meets every generator
        fresh.clear()
        for h in list(group):
            multiply(h, g)
        for h in fresh:
            for s in gens:
                multiply(h, s)
    return gens


def isometry_group(table: DistanceTable) -> IsometryGroup:
    """All permutations of the points preserving the (possibly asymmetric) table.

    Backtracking search: point 0 may go to any point with its multiset of
    in/out distances, and every later point i only to a point at distance
    (d(0, i), d(i, 0)) from the image of 0 with the multiset of i; each
    leaf is checked against all earlier points.  The set found is verified
    to be a group on a generating set (:func:`_require_group`).
    """
    if validate(table).level < DistanceClass.SEMIMETRIC:
        raise PreconditionError("isometry_group requires at least a semimetric table")
    n = table.n
    d = int_grid(table.values, "isometry_group")
    profiles = [
        tuple(sorted((d[i][k], d[k][i]) for k in range(n) if k != i)) for i in range(n)
    ]
    profile_ids: dict = {}
    cls = [profile_ids.setdefault(p, len(profile_ids)) for p in profiles]
    first = [j for j in range(n) if cls[j] == cls[0]]
    # buckets[a][(d(a, j), d(j, a), class of j)] lists those points j in order
    buckets: list[dict] = [{} for _ in range(n)]
    for a in range(n):
        for j in range(n):
            buckets[a].setdefault((d[a][j], d[j][a], cls[j]), []).append(j)

    found: list[tuple[int, ...]] = []
    images = [-1] * n
    taken = [False] * n

    def extend(i: int):
        if i == n:
            found.append(tuple(images))
            return
        candidates = buckets[images[0]].get((d[0][i], d[i][0], cls[i]), ()) if i else first
        for j in candidates:
            if taken[j]:
                continue
            ok = True
            for k in range(i):
                if d[images[k]][j] != d[k][i] or d[j][images[k]] != d[i][k]:
                    ok = False
                    break
            if ok:
                images[i] = j
                taken[j] = True
                extend(i + 1)
                taken[j] = False
        images[i] = -1

    extend(0)
    found.sort()
    _require_group(found, n)
    return IsometryGroup(tuple([Permutation(p) for p in found]))


def commutes_with(g: ExtMatrix, d: ExtMatrix) -> bool:
    """Exact test of g*d == d*g."""
    if g.rows != d.rows or g.cols != d.cols or not g.is_square:
        raise ShapeError("commutes_with requires square matrices of equal size")
    return (g @ d) == (d @ g)


def _is_isometry(grid, images) -> bool:
    return all(
        grid[images[i]][images[j]] == e for i, row in enumerate(grid) for j, e in enumerate(row)
    )


def hclass_element(d: Matrix, sigma: Permutation, lam) -> Matrix:
    """The maximal-subgroup member indexed by an isometry and a scalar.

    Returns lam * P * d, i.e. ``d`` with rows permuted by sigma and shifted
    by lam.  The map (sigma, lam) -> element is a group isomorphism onto
    the subgroup around ``d``; :func:`hclass_decompose` is its inverse.
    """
    lam = scalar(lam)
    grid = _square_grid(d, "hclass_element")
    if _table_level(d, grid) != DistanceClass.METRIC:
        raise PreconditionError("hclass_element requires a metric matrix")
    if sigma.n != d.rows:
        raise ShapeError("permutation degree does not match the matrix size")
    if not _is_isometry(grid, sigma.images):
        raise PreconditionError("permutation is not an isometry of the metric")
    inv = sigma.inverse()
    return from_int_grid(d, [grid[inv(i)] for i in range(d.rows)]).scale(lam)


def _decompose(e: Matrix, n: Matrix) -> tuple[Permutation, Fraction] | None:
    """:func:`hclass_decompose` for a metric matrix ``e`` and a finite ``Matrix`` ``n``.

    Column j of lam * P_sigma * e is column j of ``e``, rows permuted by
    sigma and shifted by lam.  Off its zero diagonal a metric matrix is
    negative, so that column has its unique maximum lam in row sigma(j).
    """
    ge, gn, den = int_grids(e, n, "hclass_decompose")
    images = [col.index(max(col)) for col in zip(*gn)]
    if len(set(images)) != len(images) or not _is_isometry(ge, images):
        return None
    lam = gn[images[0]][0]
    shift = [lam] * len(ge)
    # row sigma(k) of n must be row k of e shifted by lam
    if any(list(map(sub, gn[img], row)) != shift for img, row in zip(images, ge)):
        return None
    return Permutation(images), from_int_scalars((lam,), den)[0]


def hclass_decompose(e: Matrix, n: Matrix) -> tuple[Permutation, Fraction] | None:
    """The (sigma, lam) with ``n == hclass_element(e, sigma, lam)``, or ``None``.

    ``e`` must be a metric matrix.  Its maximal subgroup is
    {lam * P_sigma * e : sigma an isometry, lam rational}, isomorphic to
    Isom(d) x Q, so ``None`` means that ``n`` lies outside the subgroup.
    sigma is read from the column maxima of ``n`` and lam is their common
    value; then sigma is checked to be an isometry and ``n`` is compared
    with the element entry by entry, all in O(n^2) after the O(n^3)
    metric check.
    """
    if not (e.is_square and n.is_square and e.rows == n.rows):
        raise ShapeError("hclass_decompose requires square matrices of equal size")
    grid = _square_grid(e, "hclass_decompose")
    _square_grid(n, "hclass_decompose")
    if _table_level(e, grid) != DistanceClass.METRIC:
        raise PreconditionError("hclass_decompose requires a metric matrix")
    return _decompose(e, n)


def _resolve_idempotent(m: Matrix, supplied: Matrix | None) -> Matrix:
    if supplied is not None:
        _square_grid(supplied, "hclass_contains")
        if not is_idempotent(supplied):
            raise PreconditionError("supplied witness is not idempotent")
        return supplied
    if is_idempotent(m):
        return m
    star = kleene_star(m)
    if star.converges:
        return star.star
    raise PreconditionError(
        "cannot recover an idempotent for the column space; pass one explicitly"
    )


def _span_contains(m: Matrix, n: Matrix, idempotent: Matrix | None) -> bool:
    """:func:`hclass_contains` by mutual span membership, for finite ``Matrix`` inputs.

    Four batched span tests, six when the idempotent e is a witness or the
    star of ``m``.  Once col(m) = col(e) is known, that space has exactly n
    extremal rays, e being strongly regular (Develin, Santos & Sturmfels
    2005).  Every generating set holds a representative of each ray and
    ``m`` has n columns, so every column of ``m`` is extremal.
    """
    cols_m = m.column_vectors()
    e = _resolve_idempotent(m, idempotent)
    if not is_strongly_regular(e):
        raise PreconditionError("column space is not that of a strongly regular idempotent")
    if e is not m:  # m spans its own column space
        cols_e = e.column_vectors()
        if not (in_span(cols_m, *cols_e) and in_span(cols_e, *cols_m)):
            raise PreconditionError("witness idempotent has a different column space")

    cols_n = n.column_vectors()
    if not (in_span(cols_m, *cols_n) and in_span(cols_n, *cols_m)):
        return False
    rows_n = n.row_vectors()
    return in_span(cols_m, *[-r for r in rows_n]) and in_span(rows_n, *[-c for c in cols_m])


def hclass_contains(m: Matrix, n: Matrix, idempotent: Matrix | None = None) -> bool:
    """Whether ``n`` lies in the maximal subgroup determined by ``m``.

    Membership means the column spaces of ``m`` and ``n`` coincide and
    the row space of ``n`` is the negated column space.  Two routes decide
    it.  When no witness is supplied and ``m`` is a metric matrix (zero
    diagonal, ``validate`` level ``METRIC``), the subgroup is
    {lam * P_sigma * m : sigma an isometry}, and the answer is whether
    :func:`hclass_decompose` finds (sigma, lam): O(n^2) after the O(n^3)
    metric check.  Otherwise ``m`` must span the column space of a
    strongly regular idempotent (itself, a supplied witness, or its Kleene
    star), and both conditions are decided by mutual span membership on
    generators; the paper proves the product form only for metrics.
    Every matrix must be a finite ``Matrix``.
    """
    if not (m.is_square and n.is_square and m.rows == n.rows):
        raise ShapeError("hclass_contains requires square matrices of equal size")
    grid = _square_grid(m, "hclass_contains")
    _square_grid(n, "hclass_contains")
    if idempotent is None and _table_level(m, grid) == DistanceClass.METRIC:
        return _decompose(m, n) is not None
    return _span_contains(m, n, idempotent)
