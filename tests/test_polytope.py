import random
from collections import Counter
from fractions import Fraction

import pytest

from maxplus import (
    Matrix,
    PreconditionError,
    Vector,
    duality_map,
    extremal_columns,
    extremal_indices,
    halfspace_rep,
    interior_point,
    is_strongly_regular,
    kleene_star,
    mat_vec,
    membership,
    negation_closed,
    polytrope_vertices_2d,
    project_onto,
    projectivize,
)

from helpers import (
    GOLDEN_IDEMPOTENTS,
    HEX_ASYM,
    HEX_SYM,
    TRIANGLE,
    rand_member,
    rand_metric,
    rand_outside,
    rand_semimetric,
    rand_vector,
    star_closed_zero_diag,
)

from maxplus import to_matrix

ORIGIN3 = Vector.zeros(3)


def test_membership_examples():
    res = membership(HEX_ASYM.column_vectors(), ORIGIN3)
    assert res.member and res.projection == ORIGIN3

    res = membership([Vector([0, 0])], Vector([1, 1]))
    assert res.member and res.coefficients == (Fraction(1),)

    res = membership([Vector([0, -1])], Vector([0, 0]))
    assert not res.member
    assert res.projection == Vector([0, -1])


def test_membership_errors():
    from maxplus import ShapeError

    with pytest.raises(PreconditionError):
        membership([], Vector([0]))
    with pytest.raises(ShapeError):
        membership([Vector([0, 0])], Vector([0]))


def test_membership_projection_dominated():
    rng = random.Random(91)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = [rand_vector(rng, n) for _ in range(rng.randint(1, 4))]
        x = rand_vector(rng, n)
        res = membership(gens, x)
        assert res.projection <= x
        assert res.member == (res.projection == x)


def test_fixed_point_law():
    # for an idempotent, span membership coincides with being fixed by it
    rng = random.Random(92)
    for _ in range(20):
        e = star_closed_zero_diag(rng, rng.randint(2, 4))
        cols = e.column_vectors()
        for x in (rand_member(rng, e), rand_vector(rng, e.rows)):
            assert membership(cols, x).member == (mat_vec(e, x) == x)


def test_project_onto_examples():
    assert project_onto(HEX_ASYM, ORIGIN3) == ORIGIN3
    y = project_onto(TRIANGLE, Vector([1, -4, -4]))
    assert membership(TRIANGLE.column_vectors(), y).member
    for col in HEX_SYM.column_vectors():
        assert project_onto(HEX_SYM, col) == col


def test_project_onto_boundary_law():
    rng = random.Random(93)
    for table_gen in (rand_semimetric, rand_metric):
        for _ in range(8):
            e = to_matrix(table_gen(rng, rng.randint(2, 4)))
            x = rand_outside(rng, e)
            y = project_onto(e, x)
            assert membership(e.column_vectors(), y).member
            assert not interior_point(e, y)


# strongly regular (the permanent 2 is attained only by the swap), not idempotent
SWAP_NOT_IDEMPOTENT = Matrix([[0, 1], [1, 0]])


def test_project_onto_requires_strong_regularity():
    with pytest.raises(PreconditionError):
        project_onto(Matrix([[0, 0], [0, 0]]), Vector([0, 0]))
    with pytest.raises(PreconditionError, match="^project_onto requires an idempotent matrix$"):
        project_onto(SWAP_NOT_IDEMPOTENT, Vector([0, 0]))


def test_interior_point_examples():
    assert interior_point(HEX_ASYM, ORIGIN3)
    assert not interior_point(TRIANGLE, ORIGIN3)
    assert interior_point(HEX_SYM, ORIGIN3)


def test_interior_point_errors():
    from maxplus import ShapeError

    with pytest.raises(PreconditionError, match="column space"):
        interior_point(HEX_ASYM, Vector([5, 5, 0]))
    with pytest.raises(PreconditionError):
        interior_point(Matrix([[0, 0], [0, 0]]), Vector([0, 0]))
    # membership is tested before squareness and idempotency, so a point
    # outside the span is reported as such whatever else is wrong
    with pytest.raises(PreconditionError, match="column space"):
        interior_point(Matrix([[1, 0], [0, 0]]), Vector([0, 5]))
    with pytest.raises(PreconditionError, match="column space"):
        interior_point(Matrix([[0, -1, -2], [0, 0, 0]]), Vector([0, 5]))
    with pytest.raises(ShapeError, match="square"):
        interior_point(Matrix([[0, -1, -2], [0, 0, 0]]), Vector([0, 2]))
    with pytest.raises(ShapeError, match="lengths differ"):
        interior_point(Matrix([[1, 0], [0, 0]]), Vector([0, 0, 0]))


def test_extremal_columns_examples():
    assert extremal_columns(TRIANGLE) == [0, 1, 2]
    assert extremal_columns(Matrix([[0, 0], [0, 0]])) == [0]
    assert extremal_columns(Matrix([[0, -1], [0, -1]])) == [0]


def test_extremal_columns_requires_idempotent():
    with pytest.raises(PreconditionError):
        extremal_columns(Matrix([[1]]))


def test_extremal_indices_general():
    gens = [Vector([0, 0]), Vector([2, 2]), Vector([0, -3])]
    assert extremal_indices(gens) == [0, 2]  # second is a scaling of the first
    with pytest.raises(PreconditionError, match="^extremal_indices requires at least one vector$"):
        extremal_indices([])


def test_duality_map_examples():
    assert duality_map(HEX_ASYM, Vector([0, -1, -1])) == Vector([0, 1, 1])
    for row in HEX_SYM.row_vectors():
        assert duality_map(HEX_SYM, row) == -row
    assert duality_map(Matrix([[0]]), Vector([5])) == Vector([-5])
    with pytest.raises(PreconditionError):
        duality_map(HEX_ASYM, Vector([9, 0, 0]))


def test_duality_negation_on_strongly_regular():
    rng = random.Random(94)
    for _ in range(10):
        e = to_matrix(rand_semimetric(rng, rng.randint(2, 4)))
        cols = e.column_vectors()
        for r in e.row_vectors():
            assert duality_map(e, r) == -r
            assert membership(cols, -r).member


def test_negation_closed():
    assert negation_closed(HEX_SYM)
    assert not negation_closed(HEX_ASYM)
    assert negation_closed(Matrix([[0]]))
    with pytest.raises(PreconditionError):
        negation_closed(Matrix([[0, 0], [0, 0]]))
    with pytest.raises(PreconditionError, match="^negation_closed requires an idempotent matrix$"):
        negation_closed(SWAP_NOT_IDEMPOTENT)


def test_halfspace_rep_golden():
    from maxplus import ShapeError

    rep = halfspace_rep(HEX_ASYM)
    # generators reported in the picture satisfy all constraints
    for col in HEX_ASYM.column_vectors():
        assert rep.contains(col)
    assert not rep.contains(Vector([9, 0, 0]))
    trivial = halfspace_rep(Matrix([[0]]))
    assert trivial.contains(Vector([17]))
    band = halfspace_rep(Matrix([[0, -1], [-2, 0]]))
    with pytest.raises(ShapeError, match="^expected a vector of length 2, got 3$"):
        band.contains(Vector([0, 0, 0]))


def test_halfspace_rep_projected_bounds():
    # in (u, v) = (x1 - x3, x2 - x3) the asymmetric hexagon is cut out by
    # u in [-1, 2], v in [-2, 1], u - v in [-1, 3]
    e = HEX_ASYM
    assert (e[0, 2], -e[2, 0]) == (Fraction(-1), Fraction(2))
    assert (e[1, 2], -e[2, 1]) == (Fraction(-2), Fraction(1))
    assert (e[0, 1], -e[1, 0]) == (Fraction(-1), Fraction(3))
    # projectivized constraints of the symmetric hexagon are symmetric bands
    e = HEX_SYM
    assert (e[0, 2], -e[2, 0]) == (Fraction(-3, 2), Fraction(3, 2))
    assert (e[1, 2], -e[2, 1]) == (Fraction(-1), Fraction(1))
    assert (e[0, 1], -e[1, 0]) == (Fraction(-3, 2), Fraction(3, 2))


def test_halfspace_rep_agrees_with_membership():
    rng = random.Random(95)
    for e in GOLDEN_IDEMPOTENTS:
        rep = halfspace_rep(e)
        cols = e.column_vectors()
        points = [rand_vector(rng, 3) for _ in range(25)]
        points += [rand_member(rng, e) for _ in range(10)]
        for x in points:
            assert rep.contains(x) == membership(cols, x).member


def test_halfspace_rep_requires_zero_diag_idempotent():
    with pytest.raises(PreconditionError):
        halfspace_rep(Matrix([[0, 0], [-1, -1]]))


def test_polytrope_vertices_triangle():
    assert polytrope_vertices_2d(TRIANGLE) == [
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(3), Fraction(3)),
    ]


def test_polytrope_vertices_hexagons():
    verts = polytrope_vertices_2d(HEX_ASYM)
    assert set(verts) == {
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(2), Fraction(-1)),
        (Fraction(1), Fraction(-2)),
        (Fraction(-1), Fraction(-2)),
    }
    for j in extremal_columns(HEX_ASYM):
        assert projectivize(HEX_ASYM.col(j)) in verts

    sym = polytrope_vertices_2d(HEX_SYM)
    assert {(-u, -v) for u, v in sym} == set(sym)  # centrally symmetric


def _shoelace(verts):
    total = Fraction(0)
    for i, (x1, y1) in enumerate(verts):
        x2, y2 = verts[(i + 1) % len(verts)]
        total += x1 * y2 - x2 * y1
    return total


def _feasible_meets(e):
    """Brute force: the meets of the six boundary lines that satisfy every constraint."""
    u_lo, u_hi = e[0, 2], -e[2, 0]
    v_lo, v_hi = e[1, 2], -e[2, 1]
    w_lo, w_hi = e[0, 1], -e[1, 0]
    meets = [(u, v) for u in (u_lo, u_hi) for v in (v_lo, v_hi)]
    meets += [(u, u - w) for u in (u_lo, u_hi) for w in (w_lo, w_hi)]
    meets += [(v + w, v) for v in (v_lo, v_hi) for w in (w_lo, w_hi)]
    return {
        (u, v)
        for u, v in meets
        if u_lo <= u <= u_hi and v_lo <= v <= v_hi and w_lo <= u - v <= w_hi
    }


def _small_star_idempotents(rng, count):
    """Strongly regular 3x3 idempotents: a quarter from semimetrics, the rest
    stars of small-integer matrices, whose polytropes are often degenerate."""
    cases = []
    while len(cases) < count:
        if len(cases) % 4 == 0:
            cases.append(to_matrix(rand_semimetric(rng, 3)))
            continue
        a = Matrix([[0 if i == j else rng.randint(-3, 1) for j in range(3)] for i in range(3)])
        star = kleene_star(a)
        if star.converges and is_strongly_regular(star.star):
            cases.append(star.star)
    return cases


def test_polytrope_vertices_properties():
    rng = random.Random(96)
    cases = list(GOLDEN_IDEMPOTENTS) + [to_matrix(rand_semimetric(rng, 3)) for _ in range(10)]
    cases += _small_star_idempotents(random.Random(98), 320)
    sizes = Counter()
    for e in cases:
        verts = polytrope_vertices_2d(e)
        assert 3 <= len(verts) <= 6
        assert len(set(verts)) == len(verts)
        assert set(verts) == _feasible_meets(e)
        assert verts[0] == min(verts)
        assert _shoelace(verts) > 0  # counterclockwise
        for k, (x0, y0) in enumerate(verts):  # every turn strictly left
            (x1, y1), (x2, y2) = verts[k - 2], verts[k - 1]
            assert (x2 - x1) * (y0 - y2) - (y2 - y1) * (x0 - x2) > 0
        u_lo, u_hi = e[0, 2], -e[2, 0]
        v_lo, v_hi = e[1, 2], -e[2, 1]
        w_lo, w_hi = e[0, 1], -e[1, 0]
        for u, v in verts:
            tight = sum([u in (u_lo, u_hi), v in (v_lo, v_hi), u - v in (w_lo, w_hi)])
            assert u_lo <= u <= u_hi and v_lo <= v <= v_hi and w_lo <= u - v <= w_hi
            assert tight >= 2
        for j in extremal_columns(e):
            assert projectivize(e.col(j)) in verts
        sizes[len(verts)] += 1
    assert all(sizes[k] >= 20 for k in (3, 4, 5, 6)), sizes


def test_polytrope_vertices_degenerate_parallelogram():
    # collinear 3-point metric (one distance is the sum of the others):
    # the hexagon degenerates to a centrally symmetric parallelogram
    e = Matrix([[0, -1, -2], [-1, 0, -3], [-2, -3, 0]])
    verts = polytrope_vertices_2d(e)
    assert verts == [
        (Fraction(-2), Fraction(-3)),
        (Fraction(2), Fraction(1)),
        (Fraction(2), Fraction(3)),
        (Fraction(-2), Fraction(-1)),
    ]
    assert {(-u, -v) for u, v in verts} == set(verts)
    assert negation_closed(e)


def test_polytrope_vertices_requires_3x3_strongly_regular():
    with pytest.raises(PreconditionError):
        polytrope_vertices_2d(Matrix([[0, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        polytrope_vertices_2d(to_matrix(rand_metric(random.Random(0), 4)))


def test_polytrope_vertices_refuse_large_matrices_before_their_integer_view():
    # the size is checked before the product and the assignment, which build the view
    big = Matrix([[Fraction(-i - j, 7 + i) for j in range(4)] for i in range(4)])
    with pytest.raises(PreconditionError, match="3x3"):
        polytrope_vertices_2d(big)
    assert big._ints is None


def test_min_plus_closure_of_polytropes():
    # projective full polytropes are closed under the componentwise minimum
    rng = random.Random(97)
    cases = [HEX_ASYM, HEX_SYM] + [to_matrix(rand_semimetric(rng, rng.randint(2, 4))) for _ in range(8)]
    for e in cases:
        cols = e.column_vectors()
        for _ in range(10):
            x, y = rand_member(rng, e), rand_member(rng, e)
            assert membership(cols, x.meet(y)).member
