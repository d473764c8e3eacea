import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from maxplus import (
    ConsistencyError,
    DistanceTable,
    ExtMatrix,
    Matrix,
    NEG_INF,
    Permutation,
    PreconditionError,
    ShapeError,
    commutes_with,
    from_matrix,
    hclass_contains,
    hclass_decompose,
    hclass_element,
    is_unit,
    isometry_group,
    mat_mul,
    to_matrix,
    unit_decompose,
)
from maxplus.groups import _require_group, _span_contains

from helpers import (
    CLAW,
    HEX_ASYM,
    HEX_SYM,
    brute_generated,
    brute_in_hclass,
    brute_is_group,
    brute_isometries,
    cube_grid,
    cycle_grid,
    directed_cycle_grid,
    petersen_grid,
    rand_metric,
    rand_semimetric,
    relabelled,
    uniform_grid,
)

SWAP23 = Permutation([0, 2, 1])


def test_permutation_basics():
    p = Permutation([1, 2, 0])
    assert p(0) == 1 and p(2) == 0
    assert p.inverse() == Permutation([2, 0, 1])
    assert p * p.inverse() == Permutation.identity(3)
    assert (SWAP23 * SWAP23).is_identity()
    assert p.cycle_notation() == "(1 2 3)"
    assert SWAP23.cycle_notation() == "(2 3)"
    assert Permutation.identity(4).cycle_notation() == "id"
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_permutation_matrix():
    p = SWAP23.matrix()
    assert p[0, 0] == 0 and p[2, 1] == 0 and p[1, 2] == 0
    assert p[0, 1] is NEG_INF
    # left multiplication permutes the rows accordingly
    assert mat_mul(p, HEX_SYM) == Matrix(
        [list(HEX_SYM.entries[0]), list(HEX_SYM.entries[2]), list(HEX_SYM.entries[1])]
    )


def test_is_unit_examples():
    g = ExtMatrix([["-inf", 5], [-2, "-inf"]])
    assert is_unit(g)
    dec = unit_decompose(g)
    assert dec.diagonal == (Fraction(5), Fraction(-2))
    assert dec.perm == Permutation([1, 0])

    cyc = Permutation([1, 2, 0]).matrix()
    assert is_unit(cyc)
    assert unit_decompose(cyc).diagonal == (Fraction(0),) * 3
    assert unit_decompose(cyc).perm == Permutation([1, 2, 0])

    assert not is_unit(ExtMatrix([[0, 0], ["-inf", 0]]))
    with pytest.raises(PreconditionError):
        unit_decompose(ExtMatrix([[0, 0], ["-inf", 0]]))


def test_unit_reconstruction():
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 5)
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(images)
        diag = [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n)]
        g = mat_mul(ExtMatrix.diagonal(diag), sigma.matrix())
        assert is_unit(g)
        dec = unit_decompose(g)
        assert dec.diagonal == tuple(diag)
        assert dec.perm == sigma
        assert mat_mul(ExtMatrix.diagonal(dec.diagonal), dec.perm.matrix()) == g


def test_isometry_group_examples():
    hex_metric = from_matrix(HEX_SYM)
    g = isometry_group(hex_metric)
    assert g.order == 2
    assert list(g) == [Permutation.identity(3), SWAP23]

    assert isometry_group(CLAW).order == 6

    discrete = DistanceTable([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert isometry_group(discrete).order == 6


def test_isometry_group_rejects_invalid_tables():
    with pytest.raises(PreconditionError):
        isometry_group(DistanceTable([[0, 0], [0, 0]]))


def test_isometry_group_matches_brute_force():
    rng = random.Random(62)
    for symmetric in (False, True):
        for _ in range(6):
            table = rand_semimetric(rng, rng.randint(2, 5), symmetric=symmetric)
            got = [p.images for p in isometry_group(table)]
            assert got == brute_isometries(table)
    seven = rand_semimetric(rng, 7, symmetric=True)
    assert [p.images for p in isometry_group(seven)] == brute_isometries(seven)
    # symmetric tables, where the search has many branches to keep
    for grid in (uniform_grid(6), cycle_grid(7), directed_cycle_grid(6), cube_grid(2), CLAW.entries):
        table = relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        assert [p.images for p in isometry_group(table)] == brute_isometries(table)


@pytest.mark.parametrize(
    "grid, order",
    [
        (cube_grid(4), 384),
        (cycle_grid(32), 64),
        (petersen_grid(), 120),
        (uniform_grid(6), 720),
        (directed_cycle_grid(9), 9),
        (directed_cycle_grid(16), 16),
    ],
)
def test_isometry_group_known_orders(grid, order):
    rng = random.Random(len(grid) * order)
    table = relabelled(rng, grid, Fraction(7, 3))
    group = isometry_group(table)
    assert group.order == order
    images = [p.images for p in group]
    assert images == sorted(set(images))
    n = table.n
    d = table.entries
    for p in images:
        assert all(d[p[i]][p[j]] == d[i][j] for i in range(n) for j in range(n))


def _accepts(elements, n):
    try:
        gens = _require_group(elements, n)
    except ConsistencyError:
        return False
    assert len(gens) <= math.floor(math.log2(len(set(elements))))
    assert brute_generated(gens, n) == set(elements)
    return True


def test_require_group_matches_pairwise_closure():
    s3 = list(permutations(range(3)))
    for mask in range(2 ** len(s3)):
        subset = [p for b, p in enumerate(s3) if mask >> b & 1]
        assert _accepts(subset, 3) == brute_is_group(subset)

    rng = random.Random(66)
    accepted = 0
    for n in (4, 5):
        sym = list(permutations(range(n)))
        for _ in range(200):
            density = rng.choice((0.05, 0.3, 0.7))
            subset = [p for p in sym if rng.random() < density]
            assert _accepts(subset, n) == brute_is_group(subset)
        for _ in range(30):
            group = brute_generated(rng.sample(sym, 2), n)
            assert _accepts(group, n) and brute_is_group(group)
            accepted += 1
            outsider = rng.choice([p for p in sym if p not in group] or sym)
            for bad in (group - {rng.choice(sorted(group))}, group | {outsider}):
                assert _accepts(bad, n) == brute_is_group(bad)
    assert accepted == 60


def test_require_group_messages():
    with pytest.raises(ConsistencyError, match="inversion"):
        _require_group([(0, 1, 2), (1, 2, 0)], 3)
    with pytest.raises(ConsistencyError, match="composition"):
        _require_group([(0, 1, 2), (1, 0, 2), (0, 2, 1)], 3)
    with pytest.raises(ConsistencyError, match="composition"):
        _require_group([(1, 0, 2)], 3)


@pytest.mark.parametrize("grid", [cube_grid(3), cycle_grid(12), petersen_grid()])
def test_require_group_rejects_any_missing_element(grid):
    n = len(grid)
    group = [p.images for p in isometry_group(DistanceTable(grid))]
    assert len(_require_group(group, n)) <= math.floor(math.log2(len(group)))
    for k in range(len(group)):
        with pytest.raises(ConsistencyError):
            _require_group(group[:k] + group[k + 1 :], n)


def test_commutes_with_examples():
    assert commutes_with(SWAP23.matrix(), HEX_SYM)
    assert not commutes_with(Permutation([1, 0, 2]).matrix(), HEX_SYM)
    rng = random.Random(63)
    d = to_matrix(rand_metric(rng, 4))
    lam_i = ExtMatrix.identity(4).scale(Fraction(7, 2))
    assert commutes_with(lam_i, d)
    with pytest.raises(ShapeError):
        commutes_with(ExtMatrix.identity(2), HEX_SYM)


def test_isometries_are_exactly_commuting_permutations():
    rng = random.Random(64)
    for _ in range(5):
        table = rand_metric(rng, 4)
        d = to_matrix(table)
        group = {p.images for p in isometry_group(table)}
        for images in permutations(range(4)):
            sigma = Permutation(images)
            assert commutes_with(sigma.matrix(), d) == (images in group)


def test_commuting_units_are_scaled_permutations():
    # scaled isometry matrices commute; breaking the scalar diagonal breaks it
    table = from_matrix(HEX_SYM)
    d = HEX_SYM
    for sigma in isometry_group(table):
        g = sigma.matrix().scale(Fraction(5, 2))
        assert is_unit(g)
        assert commutes_with(g, d)
        dec = unit_decompose(g)
        assert len(set(dec.diagonal)) == 1
        lopsided = mat_mul(ExtMatrix.diagonal([0, 0, 1]), sigma.matrix())
        assert not commutes_with(lopsided, d)


def test_hclass_element_examples():
    moved = hclass_element(HEX_SYM, SWAP23, 0)
    assert moved == Matrix([["0", "-1.5", "-1.5"], ["-1.5", "-1", "0"], ["-1.5", "0", "-1"]])
    assert hclass_element(HEX_SYM, Permutation.identity(3), 0) == HEX_SYM
    assert hclass_element(HEX_SYM, Permutation.identity(3), 5) == HEX_SYM.scale(5)


def test_hclass_element_errors():
    with pytest.raises(PreconditionError, match="isometry"):
        hclass_element(HEX_SYM, Permutation([1, 0, 2]), 0)
    with pytest.raises(PreconditionError, match="metric"):
        hclass_element(HEX_ASYM, Permutation.identity(3), 0)
    # a finite ExtMatrix used to leak a TypeError from the negation
    with pytest.raises(PreconditionError, match="^hclass_element requires a Matrix, not an ExtMatrix$"):
        hclass_element(ExtMatrix([[0, -1], [-1, 0]]), Permutation.identity(2), 0)
    with pytest.raises(PreconditionError, match="^hclass_element requires finite entries$"):
        hclass_element(ExtMatrix([[0, NEG_INF], [-1, 0]]), Permutation.identity(2), 0)


def test_hclass_contains_examples():
    assert hclass_contains(HEX_SYM, HEX_SYM)
    assert hclass_contains(HEX_SYM, hclass_element(HEX_SYM, SWAP23, 7))
    assert not hclass_contains(HEX_SYM, HEX_ASYM)


def test_hclass_contains_supplied_idempotent():
    shifted = HEX_SYM.scale(3)  # same column space, not idempotent
    member = hclass_element(HEX_SYM, SWAP23, -2)
    assert hclass_contains(shifted, member, idempotent=HEX_SYM)
    with pytest.raises(PreconditionError):
        hclass_contains(shifted, member, idempotent=HEX_ASYM)


def test_hclass_contains_requires_full_rank_space():
    flat = Matrix([[0, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        hclass_contains(flat, flat)


def test_hclass_group_law():
    rng = random.Random(65)
    for table in (from_matrix(HEX_SYM), CLAW):
        d = to_matrix(table)
        group = list(isometry_group(table))
        lams = [Fraction(0), Fraction(5), Fraction(-3, 2)]
        for sigma in group:
            for tau in group:
                lam, mu = rng.choice(lams), rng.choice(lams)
                lhs = mat_mul(hclass_element(d, sigma, lam), hclass_element(d, tau, mu))
                rhs = hclass_element(d, sigma * tau, lam + mu)
                assert lhs == rhs
        assert hclass_element(d, Permutation.identity(table.n), 0) == d


def test_hclass_elements_are_members_and_injective():
    table = from_matrix(HEX_SYM)
    d = HEX_SYM
    seen = set()
    for sigma in isometry_group(table):
        for lam in (Fraction(0), Fraction(1, 2), Fraction(-2)):
            elem = hclass_element(d, sigma, lam)
            assert hclass_contains(d, elem)
            assert elem not in seen
            seen.add(elem)


def test_hclass_decompose_examples():
    assert hclass_decompose(HEX_SYM, HEX_SYM) == (Permutation.identity(3), 0)
    element = hclass_element(HEX_SYM, SWAP23, Fraction(-7, 2))
    assert hclass_decompose(HEX_SYM, element) == (SWAP23, Fraction(-7, 2))
    # the rows of HEX_SYM swapped by a permutation that is not an isometry
    assert hclass_decompose(HEX_SYM, Matrix([HEX_SYM.entries[i] for i in (1, 0, 2)])) is None
    assert hclass_decompose(HEX_SYM, HEX_ASYM) is None


def test_hclass_decompose_errors():
    with pytest.raises(PreconditionError, match="hclass_decompose requires a metric matrix"):
        hclass_decompose(HEX_ASYM, HEX_ASYM)
    with pytest.raises(ShapeError):
        hclass_decompose(HEX_SYM, Matrix([[0, -1], [-1, 0]]))


@pytest.mark.parametrize("call", [hclass_contains, hclass_decompose], ids=lambda f: f.__name__)
def test_hclass_refuses_ext_matrices_in_either_position(call):
    # hclass_contains used to leak AttributeError (no column_vectors on an ExtMatrix)
    name = call.__name__
    finite = ExtMatrix(HEX_SYM.entries)
    with_inf = ExtMatrix([[0, NEG_INF, -1], [-1, 0, -1], [-1, -1, 0]])
    for e, x in ((HEX_SYM, finite), (finite, HEX_SYM)):
        with pytest.raises(PreconditionError, match=f"^{name} requires a Matrix, not an ExtMatrix"):
            call(e, x)
    for e, x in ((HEX_SYM, with_inf), (with_inf, HEX_SYM)):
        with pytest.raises(PreconditionError, match=f"^{name} requires finite entries$"):
            call(e, x)
    if call is hclass_contains:
        with pytest.raises(PreconditionError, match="not an ExtMatrix"):
            hclass_contains(HEX_SYM.scale(1), HEX_SYM, idempotent=finite)


def permuted(grid, s, t, lam):
    """P_s * grid * P_t + lam, as a Matrix: entry (s(i), t(j)) is grid[i][j] + lam."""
    n = len(grid)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[s[i]][t[j]] = grid[i][j] + lam
    return Matrix(out)


def oracle_metrics(rng):
    """Metric tables with n <= 6: random ones and some with large isometry groups."""
    tables = [rand_metric(rng, n) for n in (2, 3, 4, 5, 6, 6)]
    for grid in (uniform_grid(4), uniform_grid(5), uniform_grid(6), cycle_grid(5), cycle_grid(6)):
        tables.append(relabelled(rng, grid, Fraction(rng.randint(1, 5), rng.choice((1, 2, 3)))))
    return tables


def test_hclass_contains_metric_route_matches_span_route():
    """On metric matrices the decomposition agrees with mutual span membership."""
    rng = random.Random(601)
    members = others = 0
    for table in oracle_metrics(rng):
        e = to_matrix(table)
        n = table.n
        grid = [list(row) for row in e.entries]
        group = list(isometry_group(table))
        identity = tuple(range(n))
        candidates = []
        for _ in range(12):
            sigma = rng.choice(group)
            lam = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            member = hclass_element(e, sigma, lam)
            candidates.append(member)
            # a near miss: one entry moved by 1/3
            near = [list(row) for row in member.entries]
            near[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1)) * Fraction(1, 3)
            candidates.append(Matrix(near))
            s = list(range(n))
            rng.shuffle(s)
            t = list(range(n))
            rng.shuffle(t)
            candidates.append(permuted(grid, s, identity, lam))  # P_s E, s often no isometry
            candidates.append(permuted(grid, s, t, lam))  # P_s E P_t
            candidates.append(permuted(grid, s, s, 0))  # E relabelled by s
        for x in candidates:
            expected = _span_contains(e, x, None)
            assert hclass_contains(e, x) == expected
            found = hclass_decompose(e, x)
            assert (found is not None) == expected
            if found is not None:
                assert hclass_element(e, *found) == x
            members += expected
            others += not expected
    assert members >= 250 and others >= 350


def span_route_cases(rng, kind):
    """(m, witness) for the span route; scalings of the witness, or of ``m``
    when there is none, are members.

    ``semimetric``: a semimetric matrix, sometimes one with a large isometry
    group.  ``conjugate``: D * S * D^-1 for a semimetric matrix S and a
    diagonal D, a strongly regular idempotent with positive entries off the
    diagonal.  ``witness``: S with its columns permuted and scaled, passed
    with S as witness.
    """
    n = rng.randint(2, 5)
    if rng.random() < 0.25:
        grid = rng.choice((uniform_grid, cycle_grid, directed_cycle_grid))(n)
        s = to_matrix(relabelled(rng, grid, rng.randint(1, 3)))
    else:
        s = to_matrix(rand_semimetric(rng, n, symmetric=rng.random() < 0.3))
    if kind == "semimetric":
        return s, None
    shift = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
    if kind == "conjugate":
        return Matrix([[s[i, j] - shift[i] + shift[j] for j in range(n)] for i in range(n)]), None
    t = list(range(n))
    rng.shuffle(t)
    return Matrix([[s[i, t[j]] + shift[j] for j in range(n)] for i in range(n)]), s


@pytest.mark.parametrize("kind", ["semimetric", "conjugate", "witness"])
def test_span_route_matches_brute_force(kind):
    """The span route, which takes every column of m as extremal, against
    mutual span membership on Fraction entries."""
    rng = random.Random(604)
    found = Counter()
    for _ in range(15):
        m, witness = span_route_cases(rng, kind)
        base = m if witness is None else witness
        n = m.rows
        grid = [list(row) for row in base.entries]
        identity = tuple(range(n))
        candidates = [m]
        for _ in range(2):
            lam = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            member = base.scale(lam)
            near = [list(row) for row in member.entries]
            near[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1)) * Fraction(1, 3)
            s = list(range(n))
            rng.shuffle(s)
            t = list(range(n))
            rng.shuffle(t)
            shift = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            candidates += [
                member,
                Matrix(near),
                permuted(grid, s, identity, lam),  # rows permuted
                permuted(grid, s, t, lam),  # both permuted
                Matrix([[x + c for x, c in zip(row, shift)] for row in grid]),  # columns scaled
            ]
        for x in candidates:
            expected = brute_in_hclass(m, x)
            assert _span_contains(m, x, witness) == expected
            found[expected] += 1
    assert found[True] >= 30 and found[False] >= 30


def test_hclass_decompose_inverts_hclass_element():
    rng = random.Random(602)
    for table in oracle_metrics(rng):
        e = to_matrix(table)
        for sigma in isometry_group(table):
            lam = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 7)))
            assert hclass_decompose(e, hclass_element(e, sigma, lam)) == (sigma, lam)


def test_hclass_decompose_is_a_homomorphism():
    """The decomposition of a * b is (sigma_a sigma_b, lam_a + lam_b)."""
    rng = random.Random(603)
    for table in oracle_metrics(rng):
        e = to_matrix(table)
        group = list(isometry_group(table))
        for _ in range(10):
            pairs = [
                (rng.choice(group), Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))))
                for _ in range(2)
            ]
            (sa, la), (sb, lb) = pairs
            a, b = (hclass_element(e, s, lam) for s, lam in pairs)
            assert hclass_decompose(e, mat_mul(a, b)) == (sa * sb, la + lb)


def test_hclass_contains_checks_a_supplied_witness_on_a_metric():
    # a supplied witness takes the span route, which checks its column space
    with pytest.raises(PreconditionError, match="different column space"):
        hclass_contains(HEX_SYM, HEX_SYM, idempotent=HEX_ASYM)
    assert hclass_contains(HEX_SYM, hclass_element(HEX_SYM, SWAP23, 1), idempotent=HEX_SYM)
