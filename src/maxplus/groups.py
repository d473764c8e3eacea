"""Isometry groups, monomial units, and maximal subgroups.

The matrices here are finitary; -inf enters the paper's semigroup only
through its units, the monomial matrices S * P.  A unit is held as its
factors, a :class:`UnitDecomposition`, and never as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import sub

from .closure import is_idempotent, kleene_star
from .errors import ConsistencyError, PreconditionError, ShapeError
from .metric import (
    DistanceClass,
    DistanceTable,
    _off_diagonal_minima,
    _table_level,
    _triangle_failure,
)
from .permutation import Permutation, invert
from .rank import is_strongly_regular
from .semiring import Matrix, int_grids, ray_key, scalar, square_grid

__all__ = [
    "IsometryGroup",
    "UnitDecomposition",
    "isometry_group",
    "commutes_with",
    "hclass_element",
    "hclass_decompose",
    "hclass_contains",
]


class IsometryGroup:
    """A permutation group: the isometries of a table, or a given listing.

    :func:`isometry_group` gives the group as a stabiliser chain.  G_i is
    the subgroup fixing 0..i-1, and each base point i whose G_i-orbit is
    more than {i} has a transversal: a dict sending each j of the orbit to
    the image tuple of one u_j in G_i with u_j(i) = j.  ``order`` is the
    product of the orbit lengths and ``sigma in group`` sifts sigma
    through the transversals; neither lists the group.  ``elements`` and
    iteration list it in the sorted order of the image tuples on first
    read, check that the list is a group (:func:`_require_group`) and keep
    it.  ``IsometryGroup(elements)`` holds a given list as it is,
    unchecked, and takes it as its generators.

    ``len`` is the order, so like any ``len`` it works only below
    ``sys.maxsize``; ``order`` is always exact.  A group is never empty.
    """

    __slots__ = ("generators", "_n", "_levels", "_listing")

    def __init__(self, elements=None, *, n=0, generators=(), levels=None):
        self._listing = None if elements is None else tuple(elements)
        self.generators = tuple(generators if elements is None else self._listing)
        self._n, self._levels = n, levels

    @property
    def order(self) -> int:
        return len(self._listing) if self._levels is None else prod(len(u) for _, u in self._levels)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._listing is None:
            found = [tuple(range(self._n))]
            for i, u in self._levels:
                # h * u_j sends i to h(j): sorting on h(j) keeps the list sorted
                found = [
                    tuple([h[x] for x in uj])
                    for h in found
                    for _, uj in sorted([(h[j], uj) for j, uj in u.items()])
                ]
            _require_group(found, self._n)
            self._listing = tuple([Permutation(p) for p in found])
        return self._listing

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, sigma) -> bool:
        if self._levels is None:
            return sigma in self._listing
        if not isinstance(sigma, Permutation) or sigma.n != self._n:
            return False
        tau = sigma.inverse().images  # tau * u_j fixes i when sigma(i) = j
        for i, u in self._levels:
            j = tau.index(i)
            if j not in u:
                return False
            tau = tuple([tau[x] for x in u[j]])
        return tau == tuple(range(self._n))

    def __len__(self):
        return self.order

    def __bool__(self):
        return True


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
        if invert(p) not in members:
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


_NOT_SEMIMETRIC = "isometry_group requires at least a semimetric table"


def isometry_group(table: DistanceTable) -> IsometryGroup:
    """The permutations of the points preserving the (possibly asymmetric) table.

    A stabiliser chain (Schreier-Sims style; Seress, *Permutation Group
    Algorithms*, 2003) over the base points n-1, ..., 0, each with the
    subgroup G_i fixing 0..i-1.  When base point i comes up the generators
    found so far generate G_(i+1), and i may go to each point j of its
    distance bucket from 0 (from the in/out distance profile class of 0
    when i = 0).  A j already in the orbit of i under the generators is
    skipped, and so is a j in the orbit of a j' whose search failed: an
    isometry in G_i sending i to j would give one sending i to j'.  Any
    other j gets one backtracking search for an isometry fixing 0..i-1
    and sending i to j: each later point m goes only to a point at
    distance (d(0, m), d(m, 0)) from the image of 0 with the profile class
    of m, checked against all earlier points, so a leaf is a full
    isometry.  A success is a new generator, and each one merges two
    orbits, so there are fewer than n generators.  The order is the
    product of the orbit lengths; the elements are listed on demand.

    A point's profile is its sorted (out, in) distance pairs.  On a
    symmetric table, decided once, each pair is (x, x), so the sorted row
    alone gives the same classes, labels and search, and is the profile
    there.  There a candidate x for m is also checked on its row alone:
    d(x, sigma a) = d(m, a) for the earlier points a already gives
    d(sigma a, x) = d(a, m), which an asymmetric table checks apart.
    A list of flags marks the used images: a candidate's flag is set when
    it is placed and cleared when the search backs out of it, and the
    fixed points 0..i-1 stay flagged while base point i runs.  Positivity
    makes the flags redundant (d(x, sigma a) = d(m, a) > 0 rules out
    x = sigma a), but a flag rejects a used candidate at once, where the
    row check would cost it O(m), and U128 took about 20 times as long
    without them (2.4 against 0.11 s on CPython 3.11).

    The table must be a semimetric, as :func:`~maxplus.metric.validate`
    decides, but its triangle inequality is checked on one row per orbit
    of the group found, not on every row:

    1. every off-diagonal entry is positive, in O(n^2).  On a symmetric
       table the least off-diagonal entry of a row is the second entry of
       its profile: the diagonal's 0 sorts first unless an off-diagonal
       entry is <= 0, and then the second entry is <= 0 as well;
    2. the triangle scan of :func:`~maxplus.metric.validate` runs on the
       first point of each profile class (on every row, and on a
       symmetric table over j >= i only, when every class is one point);
    3. the search runs;
    4. the scan runs on the least point of each orbit of the group that
       holds no row scanned in step 2.  The orbit of 0 is the first
       level's transversal, so a transitive group needs no orbit pass.

    Orbit invariance: an isometry sigma sends a triple (i, k, j) to
    (sigma i, sigma k, sigma j) and keeps all three distances, so
    d(i, j) > d(i, k) + d(k, j) exactly when the same holds at the image.
    The rows that hold a failing triple are therefore a union of orbits,
    and one fully scanned row per orbit finds a failure when there is one.
    The search does not rely on the triangle inequality: it compares
    distances for equality only, and each leaf is an exactly checked
    isometry, so the group it finds is that of the table either way.

    Bounded time: after step 1 every off-diagonal entry is positive, and
    the search's work depends only on which entries are equal.  With
    c = max d, the table d + c (J - I) has the same equality pattern and
    is a semimetric, as each off-diagonal entry lies in (c, 2c].  So a
    table that fails the triangle inequality costs the search no more
    than some table it would accept.  The checks cost O(n^2) plus one
    O(n^2) row scan per orbit: O(n^3) at worst, for the trivial group.
    """
    n = table.n
    if n == 1:
        return IsometryGroup(n=1, levels=())
    d = list(map(list, int_grids(table)[0][0]))
    dt = list(map(list, zip(*d)))
    symmetric = d == dt
    # each point's sorted distances (sorted (out, in) pairs when the table
    # is asymmetric); the diagonal adds 0 (or (0, 0)) to every one
    points = [tuple(sorted(d[i] if symmetric else zip(d[i], dt[i]))) for i in range(n)]
    if symmetric:
        # a profile's second entry is its row's least off-diagonal entry,
        # or is <= 0 (step 1)
        low_out = low_in = [p[1] for p in points]
    else:
        low_out, low_in = _off_diagonal_minima(d), _off_diagonal_minima(dt)
    if min(low_out) <= 0:
        raise PreconditionError(_NOT_SEMIMETRIC)
    # each point labelled by the first point of its profile class
    profiles: dict = {}
    cls = [profiles.setdefault(p, i) for i, p in enumerate(points)]
    scanned = list(profiles.values())
    half = len(scanned) == n and symmetric
    if _triangle_failure(d, dt, scanned, low_out, low_in, half) is not None:
        raise PreconditionError(_NOT_SEMIMETRIC)
    key = [(d[0][j], d[j][0], cls[j]) for j in range(n)]

    def buckets(a: int) -> dict:
        """The points j keyed by (d(a, j), d(j, a), class of j), in order."""
        out: dict = {}
        for j in range(n):
            out.setdefault((d[a][j], d[j][a], cls[j]), []).append(j)
        return out

    home = buckets(0)
    images = list(range(n))
    used = [True] * n  # used[x]: x is one of images[0..m-1]

    def extend(m: int, candidates, bucket: dict) -> bool:
        """Complete ``images`` from point m on; ``bucket`` is that of images[0].

        x may go to m when it is unused and its distances to and from the
        images of 0..m-1 are those of m.
        """
        pre, row = images[:m], d[m][:m]
        col = None if symmetric else dt[m][:m]
        for x in candidates:
            if (
                not used[x]
                and [d[x][a] for a in pre] == row
                and (symmetric or [dt[x][a] for a in pre] == col)
            ):
                images[m] = x
                used[x] = True
                done = m + 1 == n or extend(m + 1, bucket.get(key[m + 1], ()), bucket)
                used[x] = False
                if done:
                    return True
        return False

    gens: list[tuple[int, ...]] = []

    def close(u: dict) -> dict:
        """Extend a transversal {j: u_j} of an orbit to the generators' orbit."""
        queue = list(u)
        for p in queue:
            for g in gens:
                if g[p] not in u:
                    u[g[p]] = tuple([g[x] for x in u[p]])
                    queue.append(g[p])
        return u

    identity = tuple(range(n))
    levels = []
    for i in range(n - 1, -1, -1):
        used[i] = False  # 0..i-1 stay fixed, and used, while level i runs
        u = {i: identity}  # the orbit of i under the generators so far
        unreachable: set = set()
        for j in home.get(key[i], ()) if i else [j for j in range(n) if cls[j] == cls[0]]:
            if j < i or j in u or j in unreachable:
                continue
            if extend(i, (j,), buckets(j) if i == 0 else home):
                gens.append(tuple(images))
                close(u)
            else:
                unreachable.update(close({j: identity}))
        if len(u) > 1:
            levels.append((i, u))
    transitive = levels and levels[-1][0] == 0 and len(levels[-1][1]) == n
    if len(scanned) < n and not transitive:
        # the least point of each orbit; an orbit lies in one profile
        # class, and the first point of each class has been scanned
        least: dict = {}
        for s in range(n):
            if s not in least:
                least.update(dict.fromkeys(close({s: identity}), s))
        rest = [s for s in range(n) if least[s] == s and cls[s] != s]
        if _triangle_failure(d, dt, rest, low_out, low_in, False) is not None:
            raise PreconditionError(_NOT_SEMIMETRIC)
    return IsometryGroup(n=n, generators=map(Permutation, gens), levels=tuple(reversed(levels)))


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
    ((s,), gd), _ = int_grids(Matrix([g.diagonal]), d)
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
    grid, den = square_grid(d)
    if _table_level(d) != DistanceClass.METRIC:
        raise PreconditionError("hclass_element requires a metric matrix")
    if sigma.n != d.rows:
        raise ShapeError("permutation degree does not match the matrix size")
    if not _is_isometry(grid, sigma.images):
        raise PreconditionError("permutation is not an isometry of the metric")
    inv = sigma.inverse()
    return Matrix._from_ints([grid[inv(i)] for i in range(d.rows)], den).scale(lam)


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
    (ge, gn), den = int_grids(e, n)
    if _table_level(e) != DistanceClass.METRIC:
        raise PreconditionError("hclass_decompose requires a metric matrix")
    images = [col.index(max(col)) for col in zip(*gn)]
    if len(set(images)) != len(images) or not _is_isometry(ge, images):
        return None
    lam = gn[images[0]][0]
    shift = [lam] * len(ge)
    # row sigma(k) of n must be row k of e shifted by lam
    if any(list(map(sub, gn[img], row)) != shift for img, row in zip(images, ge)):
        return None
    return Permutation(images), Fraction(lam, den)


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
    Both are decided by comparing sets of ``semiring.ray_key`` over one
    denominator per pair, in O(n^2) after the preconditions.  Every matrix
    must be square and of the same size.
    """
    given = (m, n) if idempotent is None else (m, n, idempotent)
    if not all(a.is_square and a.rows == m.rows for a in given):
        raise ShapeError("hclass_contains requires square matrices of equal size")
    semimetric = (DistanceClass.SEMIMETRIC, DistanceClass.METRIC)
    if idempotent is None and _table_level(m) in semimetric:
        e = m
    else:
        e = _resolve_idempotent(m, idempotent)
        if not is_strongly_regular(e):
            raise PreconditionError("column space is not that of a strongly regular idempotent")
        if e is not m:  # m spans its own column space
            (ge, gm), _ = int_grids(e, m)
            if set(map(ray_key, zip(*ge))) != set(map(ray_key, zip(*gm))):
                if idempotent is None:  # e is the star of m: no witness was given
                    raise PreconditionError(_NO_IDEMPOTENT)
                raise PreconditionError("witness idempotent has a different column space")
    (ge, gn), _ = int_grids(e, n)
    return all(
        set(map(ray_key, a)) == set(map(ray_key, b)) for a, b in ((zip(*ge), zip(*gn)), (ge, gn))
    )
