"""Isometry groups, monomial units, and maximal subgroups.

The matrices here are finitary; -inf enters the paper's semigroup only
through its units, the monomial matrices S * P.  A unit is held as its
factors, a :class:`UnitDecomposition`, and never as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .closure import _square_grid, is_idempotent, kleene_star
from .errors import ConsistencyError, PreconditionError, ShapeError
from .metric import DistanceClass, DistanceTable, _table_level, validate
from .permutation import Permutation
from .rank import is_strongly_regular
from .semiring import Matrix, from_int_grid, from_int_scalars, int_grid, int_grids, scalar

__all__ = [
    "IsometryGroup",
    "UnitDecomposition",
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
    """A unit of the extended matrix monoid, given as its factors S * P.

    The units are exactly the monomial matrices: one finite entry in each
    row and each column.  S is the diagonal matrix of ``diagonal`` and P
    the permutation matrix of ``perm``, with P[perm(i), i] = 0 and -inf
    elsewhere, so row r of S * P has its finite entry ``diagonal[r]`` in
    column perm^-1(r).
    """

    diagonal: tuple[Fraction, ...]
    perm: Permutation


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
    d = int_grid(table.values)
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


def commutes_with(g: UnitDecomposition, d: Matrix) -> bool:
    """Exact test of G*d == d*G for the unit G = S * P given by ``g``.

    Row r of G*d is row perm^-1(r) of ``d`` shifted by s_r, and column c
    of d*G is column perm(c) of ``d`` shifted by s_perm(c).  So the two
    products agree exactly when s_r + d[perm^-1(r), c] equals
    d[r, perm(c)] + s_perm(c) for all r and c, compared in O(n^2) on ints
    over one denominator.
    """
    n = g.perm.n
    if not (d.is_square and d.rows == n == len(g.diagonal)):
        raise ShapeError("commutes_with requires a square matrix of the unit's size")
    (s,), gd, _ = int_grids(Matrix([g.diagonal]), d)
    sigma = g.perm.images
    inv = g.perm.inverse().images
    return all(
        s[r] + gd[inv[r]][c] == row[sigma[c]] + s[sigma[c]]
        for r, row in enumerate(gd)
        for c in range(n)
    )


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
    grid = _square_grid(d)
    if _table_level(d, grid) != DistanceClass.METRIC:
        raise PreconditionError("hclass_element requires a metric matrix")
    if sigma.n != d.rows:
        raise ShapeError("permutation degree does not match the matrix size")
    if not _is_isometry(grid, sigma.images):
        raise PreconditionError("permutation is not an isometry of the metric")
    inv = sigma.inverse()
    return from_int_grid(d, [grid[inv(i)] for i in range(d.rows)]).scale(lam)


def hclass_decompose(e: Matrix, n: Matrix) -> tuple[Permutation, Fraction] | None:
    """The (sigma, lam) with ``n == hclass_element(e, sigma, lam)``, or ``None``.

    ``e`` must be a metric matrix.  Its maximal subgroup is
    {lam * P_sigma * e : sigma an isometry, lam rational}, isomorphic to
    Isom(d) x Q, so ``None`` means that ``n`` lies outside the subgroup.
    Column j of lam * P_sigma * e is column j of ``e``, rows permuted by
    sigma and shifted by lam; off its zero diagonal a metric matrix is
    negative, so that column has its unique maximum lam in row sigma(j).
    So sigma is read from the column maxima of ``n`` and lam is their
    common value; then sigma is checked to be an isometry and ``n`` is
    compared with the element row by row, all in O(n^2) on ints over one
    denominator after the O(n^3) metric check.
    """
    if not (e.is_square and n.is_square and e.rows == n.rows):
        raise ShapeError("hclass_decompose requires square matrices of equal size")
    grid = int_grid(e)
    if _table_level(e, grid) != DistanceClass.METRIC:
        raise PreconditionError("hclass_decompose requires a metric matrix")
    ge, gn, den = int_grids(e, n)
    images = [col.index(max(col)) for col in zip(*gn)]
    if len(set(images)) != len(images) or not _is_isometry(ge, images):
        return None
    lam = gn[images[0]][0]
    shift = [lam] * len(ge)
    # row sigma(k) of n must be row k of e shifted by lam
    if any(list(map(sub, gn[img], row)) != shift for img, row in zip(images, ge)):
        return None
    return Permutation(images), from_int_scalars((lam,), den)[0]


_NO_IDEMPOTENT = "cannot recover an idempotent for the column space; pass one explicitly"


def _resolve_idempotent(m: Matrix, supplied: Matrix | None) -> Matrix:
    if supplied is not None:
        if not is_idempotent(supplied):
            raise PreconditionError("supplied witness is not idempotent")
        return supplied
    if is_idempotent(m):
        return m
    star = kleene_star(m)
    if star.converges:
        return star.star
    raise PreconditionError(_NO_IDEMPOTENT)


def _ray_keys(vectors) -> set[tuple[int, ...]]:
    """Each int vector keyed by its differences to its first entry.

    Two vectors share a key exactly when they differ by a scalar, so keys
    are comparable only between vectors over one denominator.
    """
    return {tuple([x - v[0] for x in v]) for v in vectors}


def hclass_contains(m: Matrix, n: Matrix, idempotent: Matrix | None = None) -> bool:
    """Whether ``n`` lies in the maximal subgroup determined by ``m``.

    Membership means the column spaces of ``m`` and ``n`` coincide and
    the row space of ``n`` is the negated column space.  Both are read off
    a strongly regular idempotent e with the column space of ``m``.  When
    no witness is supplied and ``m`` is a semimetric matrix (zero
    diagonal, ``validate`` level ``SEMIMETRIC`` or ``METRIC``), e is ``m``
    itself: by the paper's dictionary such a matrix is a strongly regular
    idempotent, so no product or assignment runs.  Otherwise e is ``m``, a
    supplied witness or the Kleene star of ``m``, checked to be idempotent
    and strongly regular, and a witness or star must have the columns of
    ``m``, each shifted by a scalar, in some order.

    The n columns of e are extremal and pairwise non-proportional
    (Develin, Santos & Sturmfels 2005), and the negated column space
    {x : x_j - x_i >= e[i, j]} is spanned by the rows of e.  n vectors
    span a space with n extremal rays only when they lie on its rays, one
    on each, so ``n`` is a member exactly when its columns are the columns
    of e and its rows the rows of e, each shifted by a scalar, in some order.
    Both are decided by comparing sets of :func:`_ray_keys` over one
    denominator per pair, in O(n^2) after the preconditions.  Every matrix
    must be square and of the same size.
    """
    given = (m, n) if idempotent is None else (m, n, idempotent)
    if not all(a.is_square and a.rows == m.rows for a in given):
        raise ShapeError("hclass_contains requires square matrices of equal size")
    grid = int_grid(m)
    semimetric = (DistanceClass.SEMIMETRIC, DistanceClass.METRIC)
    if idempotent is None and _table_level(m, grid) in semimetric:
        e = m
    else:
        e = _resolve_idempotent(m, idempotent)
        if not is_strongly_regular(e):
            raise PreconditionError("column space is not that of a strongly regular idempotent")
        if e is not m:  # m spans its own column space
            ge, gm, _ = int_grids(e, m)
            if _ray_keys(zip(*ge)) != _ray_keys(zip(*gm)):
                if idempotent is None:  # e is the star of m: no witness was given
                    raise PreconditionError(_NO_IDEMPOTENT)
                raise PreconditionError("witness idempotent has a different column space")
    ge, gn, _ = int_grids(e, n)
    return _ray_keys(zip(*ge)) == _ray_keys(zip(*gn)) and _ray_keys(ge) == _ray_keys(gn)
