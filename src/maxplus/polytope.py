"""Column spaces as tropical polytopes: membership, extremals, duality, vertices.

Row-space questions are answered by transposing and reusing the column
machinery; rows and columns live in the same space here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from .closure import is_idempotent
from .errors import ConsistencyError, PreconditionError, ShapeError
from .rank import column_classes, is_strongly_regular
from .semiring import Matrix, Vector, int_vectors, mat_vec, ray_key, require_square, square_grid

__all__ = [
    "SpanMembership",
    "PolytropeHRep",
    "membership",
    "project_onto",
    "interior_point",
    "extremal_indices",
    "extremal_columns",
    "duality_map",
    "negation_closed",
    "halfspace_rep",
    "polytrope_vertices_2d",
]


@dataclass(frozen=True)
class SpanMembership:
    """Result of projecting a point onto the span of a generating set.

    ``coefficients`` are the maximal scalings, ``projection`` their join;
    the projection never exceeds the point and equals it exactly for
    members of the span.
    """

    member: bool
    coefficients: tuple[Fraction, ...]
    projection: Vector


def _project(gens, xs):
    """Maximal coefficients and their join, on ints over one denominator."""
    lams = [min(map(sub, xs, g)) for g in gens]
    terms = [[lam + a for a in g] for lam, g in zip(lams, gens)]
    return lams, tuple([max(t) for t in zip(*terms)])


def membership(generators: Sequence[Vector], x: Vector) -> SpanMembership:
    """Decide whether ``x`` lies in the tropical span of ``generators``."""
    gens = list(generators)
    if not gens:
        raise PreconditionError("membership requires at least one generator")
    (*gens, xs), den = int_vectors(gens + [x])
    lams, proj = _project(gens, xs)
    coefficients = tuple([Fraction(lam, den) for lam in lams])
    return SpanMembership(proj == xs, coefficients, Vector._from_ints(proj, den))


def _require_strongly_regular_idempotent(e: Matrix, what: str):
    if not is_idempotent(e):
        raise PreconditionError(f"{what} requires an idempotent matrix")
    if not is_strongly_regular(e):
        raise PreconditionError(f"{what} requires a strongly regular matrix")


def project_onto(e: Matrix, x: Vector) -> Vector:
    """Left-multiply by ``e``: fixes members, sends outside points to the boundary."""
    _require_strongly_regular_idempotent(e, "project_onto")
    return mat_vec(e, x)


def interior_point(e: Matrix, x: Vector) -> bool:
    """Whether ``x`` is interior to the column space of ``e``.

    For strongly regular idempotents, interior points are exactly those
    with a unique expression over the columns: every column must attain
    some coordinate of ``x`` alone.

    One span test decides both membership and the answer.  The checks run
    in this order, and the first that fails raises: ``x`` has ``e.rows``
    entries (``ShapeError``), ``x`` is in the column space
    (``PreconditionError``), ``e`` is square (``ShapeError``), and ``e`` is
    a strongly regular idempotent (``PreconditionError``).  So a point outside the column space of a
    matrix that is also not square, or not an idempotent, is reported as
    outside the column space.
    """
    interior = interior_test(e.transpose(), x)
    if interior is None:
        raise PreconditionError("point is not in the column space")
    require_square(e)
    _require_strongly_regular_idempotent(e, "interior_point")
    return interior


def interior_test(gens: Matrix, x: Vector) -> bool | None:
    """Package-internal: :func:`interior_point` on the span of the rows of ``gens``.

    For the column space of e, ``gens`` is e's transpose; for its row
    space, e itself, so a caller holding both transposes none.  Returns
    ``None`` when ``x`` is outside the span.  The rows of ``gens``'s
    integer view are aligned with ``x`` in one call, so no ``Vector`` is
    built.
    """
    *cols, xs = int_vectors([gens, x])[0]
    lams, proj = _project(cols, xs)
    if proj != xs:
        return None
    # column j is private at coordinate i when it alone attains x[i] there
    private = set()
    for i, xi in enumerate(xs):
        attaining = [j for j, (lam, col) in enumerate(zip(lams, cols)) if lam + col[i] == xi]
        if len(attaining) == 1:
            private.add(attaining[0])
    return len(private) == len(cols)


def extremal_indices(vectors: Sequence[Vector]) -> list[int]:
    """Indices of the extremal generators of the span of ``vectors``.

    Scaling classes are collapsed to their smallest index; a representative
    is extremal when it is not in the span of the other representatives.
    The vectors are aligned to one denominator once, and each
    representative is projected onto the others on those ints.
    """
    vecs = list(vectors)
    if not vecs:
        raise PreconditionError("extremal_indices requires at least one vector")
    views, _ = int_vectors(vecs)
    reps: dict[tuple, int] = {}
    for idx, ints in enumerate(views):
        reps.setdefault(ray_key(ints), idx)
    rep_idx = sorted(reps.values())
    # a lone representative projects onto the empty join (), so it is extremal
    return [
        idx
        for idx in rep_idx
        if _project([views[k] for k in rep_idx if k != idx], views[idx])[1] != views[idx]
    ]


def extremal_columns(e: Matrix) -> list[int]:
    """Column indices generating the extremal points of the column space.

    Only columns with a zero diagonal entry can be extremal.  For an
    idempotent E, zero-diagonal columns j and k are proportional exactly
    when E[j, k] + E[k, j] == 0, and such a column is extremal exactly when
    it is the first of its class (Butkovic, *Max-linear Systems*, Springer
    2010).
    """
    return [cls[0] for cls in column_classes(e, "extremal_columns")[1]]


def duality_map(a: Matrix, x: Vector) -> Vector:
    """Send a row-space point to the column space: x -> a * (-x).

    The rows of ``a`` and ``x`` are aligned to one denominator once; the
    span test and the product a * (-x), max_j (a[i, j] - x[j]), both run
    on those ints.
    """
    (*rows, xs), den = int_vectors([a, x])
    if _project(rows, xs)[1] != xs:
        raise PreconditionError("point is not in the row space")
    return Vector._from_ints([max(map(sub, row, xs)) for row in rows], den)


def negation_closed(e: Matrix) -> bool:
    """Whether the column space equals its own pointwise negation.

    Decided two independent ways that must agree: symmetry of ``e``, and
    membership of every negated extremal column, in one span test.  A
    strongly regular idempotent has tropical rank n, so all n of its
    columns are extremal (Develin, Santos & Sturmfels, "On the rank of a
    tropical matrix", 2005).  The columns and their negations are the rows
    of the transpose and of its negation, aligned in one call.
    """
    _require_strongly_regular_idempotent(e, "negation_closed")
    et = e.transpose()
    symmetric = e == et
    rows = int_vectors([et, -et])[0]
    cols, negated = rows[: e.cols], rows[e.cols :]
    by_extremals = all(_project(cols, xs)[1] == xs for xs in negated)
    if symmetric != by_extremals:
        raise ConsistencyError("negation-closure tests disagree (symmetry vs extremals)")
    return symmetric


@dataclass(frozen=True)
class PolytropeHRep:
    """The column space of a zero-diagonal idempotent as difference constraints.

    A point belongs exactly when x[i] - x[j] >= bounds[i][j] for all i, j;
    the diagonal constraints are vacuous.
    """

    n: int
    bounds: tuple[tuple[Fraction, ...], ...]

    def contains(self, x: Vector) -> bool:
        if len(x) != self.n:
            raise ShapeError(f"expected a vector of length {self.n}, got {len(x)}")
        return all(
            x[i] - x[j] >= self.bounds[i][j]
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )


def halfspace_rep(e: Matrix) -> PolytropeHRep:
    """Halfspace description of the column space of a zero-diagonal idempotent."""
    if any(row[i] != 0 for i, row in enumerate(square_grid(e)[0])) or not is_idempotent(e):
        raise PreconditionError("halfspace_rep requires a zero-diagonal idempotent")
    return PolytropeHRep(e.rows, e.entries)


def polytrope_vertices_2d(e: Matrix) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the projectivized 3x3 polytrope, counterclockwise.

    In coordinates (u, v) = (x1 - x3, x2 - x3) the region is cut out by
    six constraints: u between e[0, 2] and -e[2, 0], v between e[1, 2] and
    -e[2, 1], and u - v between e[0, 1] and -e[1, 0].  Idempotency makes
    every one of them tight, so the vertices are where constraints adjacent
    in the counterclockwise order of their outward normals meet.  The list
    starts at the lexicographically smallest vertex.

    The size is checked before idempotency and strong regularity, so a
    large matrix is refused before any product or integer view is built,
    and a matrix that is neither 3x3 nor idempotent is reported by size.
    """
    require_square(e)
    if e.rows != 3:
        raise PreconditionError("vertex enumeration is implemented for 3x3 matrices only")
    _require_strongly_regular_idempotent(e, "polytrope_vertices_2d")
    return vertices_2d(e)


def vertices_2d(e: Matrix) -> list[tuple[Fraction, Fraction]]:
    """Package-internal: :func:`polytrope_vertices_2d` without its checks.

    ``e`` is a 3x3 matrix already known to be a strongly regular idempotent.
    The constraints, by outward normal, are left, bottom, u - v <= w_hi,
    right, top and u - v >= w_lo; the ring of their adjacent meets repeats
    a vertex wherever an edge has length zero.
    """
    u_lo, u_hi = e[0, 2], -e[2, 0]
    v_lo, v_hi = e[1, 2], -e[2, 1]
    w_lo, w_hi = e[0, 1], -e[1, 0]  # w = u - v
    ring = [
        (u_lo, v_lo),
        (v_lo + w_hi, v_lo),
        (u_hi, u_hi - w_hi),
        (u_hi, v_hi),
        (v_hi + w_lo, v_hi),
        (u_lo, u_lo - w_lo),
    ]
    verts = [p for p, prev in zip(ring, ring[-1:] + ring[:-1]) if p != prev]
    start = verts.index(min(verts))
    return verts[start:] + verts[:start]
