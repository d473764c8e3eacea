import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from maxplus import (
    ConsistencyError,
    DistanceClass,
    DistanceTable,
    IsometryGroup,
    Matrix,
    MaxplusError,
    Permutation,
    PreconditionError,
    ShapeError,
    UnitDecomposition,
    commutes_with,
    from_matrix,
    hclass_contains,
    hclass_decompose,
    hclass_element,
    isometry_group,
    kleene_star,
    mat_mul,
    to_matrix,
    validate,
)
import maxplus.groups as groups_module
from maxplus.groups import _require_group

from helpers import (
    CLAW,
    HEX_ASYM,
    HEX_SYM,
    brute_commutes,
    brute_generated,
    brute_in_hclass,
    brute_mat_mul,
    brute_is_group,
    brute_isometries,
    cube_grid,
    cycle_grid,
    directed_cycle_grid,
    listing_isometries,
    pairs_grid,
    paley_grid,
    petersen_grid,
    rand_metric,
    rand_semimetric,
    relabelled,
    span_in_hclass,
    uniform_grid,
    unit_grid,
)

SWAP23 = Permutation([0, 2, 1])


def test_permutation_basics():
    p = Permutation([1, 2, 0])
    assert p(0) == 1 and p(2) == 0
    assert len(p) == 3 and repr(p) == "Permutation([1, 2, 0])"
    assert hash(p) == hash(Permutation((1, 2, 0)))
    assert p != [1, 2, 0] and (1, 2, 0) != p
    assert p.inverse() == Permutation([2, 0, 1])
    assert p * p.inverse() == Permutation.identity(3)
    assert (SWAP23 * SWAP23).is_identity()
    assert p.cycle_notation() == "(1 2 3)"
    assert SWAP23.cycle_notation() == "(2 3)"
    assert Permutation.identity(4).cycle_notation() == "id"
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError, match="^cannot compose permutations of different degree$"):
        SWAP23 * Permutation([1, 0])


def test_permutation_images_must_be_ints():
    # int() used to make [0.9, 1.2] the identity and ["1", "0"] a swap
    for images in ([0.9, 1.2], ["1", "0"], [True, False], [Fraction(1), Fraction(0)]):
        with pytest.raises(TypeError):
            Permutation(images)
    assert Permutation(range(2)) == Permutation([0, 1])


def test_permutation_matrix():
    # P[sigma(i), i] = 0 and -inf (None) elsewhere, the convention of UnitDecomposition
    p = unit_grid((0, 0, 0), SWAP23.images)
    assert p[0][0] == 0 and p[2][1] == 0 and p[1][2] == 0
    assert p[0][1] is None
    # left multiplication permutes the rows accordingly
    rows = HEX_SYM.entries
    assert brute_mat_mul(p, HEX_SYM) == [list(rows[0]), list(rows[2]), list(rows[1])]
    assert commutes_with(UnitDecomposition((0, 0, 0), SWAP23), HEX_SYM)


def test_unit_reconstruction():
    # S times P is the monomial unit whose row r holds s_r in column perm^-1(r)
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 5)
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(images)
        diag = [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n)]
        g = brute_mat_mul(unit_grid(diag, range(n)), unit_grid([0] * n, images))
        assert g == unit_grid(diag, images)
        for r, row in enumerate(g):
            assert [j for j, x in enumerate(row) if x is not None] == [sigma.inverse()(r)]
            assert row[sigma.inverse()(r)] == diag[r]


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


def few_distance_grid(rng, n, symmetric=True):
    """A random table with one to three distinct off-diagonal values.

    The values lie in [4, 8], so every triangle inequality holds.
    """
    values = rng.sample(range(4, 9), rng.randint(1, 3))
    grid = [[0 if i == j else rng.choice(values) for j in range(n)] for i in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                grid[i][j] = grid[j][i]
    return grid


def test_symmetric_search_matches_brute_force():
    """The search with sorted-row profiles and the row check alone, against brute force.

    Symmetric tables with few distances have many equal profiles and many
    branches.  Their twists are asymmetric and take the pair profiles, but
    a twist's row check implies its column check.  So asymmetric tables
    with few distances are drawn as well, and directed 7-cycles on a
    uniform background, where a search without the column check finds
    maps that are no isometries.  Petersen has ten points, too many for
    brute force, so its oracle is the listing search.
    """
    rng = random.Random(2503)
    tables = []
    for _ in range(60):
        n = rng.randint(2, 7)
        grid = few_distance_grid(rng, n)
        tables.append(relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        tables.append(twisted(rng, grid))
        tables.append(DistanceTable(few_distance_grid(rng, n, symmetric=False)))
    for k in range(1, 7):
        grid = [[0 if i == j else 5 if (j - i) % 7 == k else 7 for j in range(7)] for i in range(7)]
        tables.append(DistanceTable(grid))
        tables.append(relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
    for grid in (cycle_grid(rng.randint(3, 8)), cube_grid(3), petersen_grid()):
        tables.append(relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        tables.append(twisted(rng, grid))
    seen = Counter()
    for table in tables:
        n, d = table.n, table.entries
        symmetric = all(d[i][j] == d[j][i] for i in range(n) for j in range(i))
        if symmetric:
            # the sorted row and the sorted (out, in) pairs give one partition
            by_row = [tuple(sorted(row)) for row in d]
            by_pair = [tuple(sorted(zip(row, col))) for row, col in zip(d, zip(*d))]
            assert [by_row.index(p) for p in by_row] == [by_pair.index(p) for p in by_pair]
        group = isometry_group(table)
        expected = brute_isometries(table) if n <= 8 else listing_isometries(table)
        assert group.order == len(expected)
        for g in group.generators:
            p = g.images
            assert all(d[p[i]][p[j]] == d[i][j] for i in range(n) for j in range(n))
        seen[symmetric, group.order > 1] += 1
    assert seen[True, True] >= 30 and seen[True, False] >= 5
    assert seen[False, True] >= 20 and seen[False, False] >= 20


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


def graph_grid(rng, n, directed):
    """Shortest paths of a random graph on a Hamiltonian cycle, arcs of length 1 or 2.

    Undirected, the cycle keeps the graph connected; directed, strongly
    connected.  Random graphs this small often have automorphisms.
    """
    inf = 4 * n
    g = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    p = rng.choice((0.2, 0.5, 0.8))
    for i in range(n):
        for j in range(n):
            if i != j and (j == (i + 1) % n or rng.random() < p):
                g[i][j] = rng.choice((1, 1, 2))
                if not directed:
                    g[j][i] = g[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                g[i][j] = min(g[i][j], g[i][k] + g[k][j])
    return g


def twisted(rng, grid):
    """d(i, j) + phi_j - phi_i for d = 4 * grid: a semimetric, asymmetric when phi is not constant.

    phi takes at most two values, so isometries of d that keep its level
    sets stay isometries of the twisted table.
    """
    n = len(grid)
    levels = (Fraction(0), Fraction(rng.randint(1, 5), rng.choice((3, 4, 7))))
    phi = [rng.choice(levels) for _ in range(n)]
    return DistanceTable([[4 * grid[i][j] + phi[j] - phi[i] for j in range(n)] for i in range(n)])


def isometry_oracle_tables(rng):
    """The tables the isometry tests use, then 240 random ones with n <= 10.

    The random ones are random semimetrics (symmetric or not), graph and
    digraph metrics, the known families, and twists of both, each
    relabelled and scaled.
    """
    yield from (from_matrix(HEX_SYM), CLAW, DistanceTable(uniform_grid(3)))
    for grid in (
        uniform_grid(6), uniform_grid(7), cycle_grid(7), cycle_grid(12), cycle_grid(32),
        directed_cycle_grid(6), directed_cycle_grid(9), directed_cycle_grid(16),
        cube_grid(2), cube_grid(3), cube_grid(4), petersen_grid(), CLAW.entries,
    ):  # fmt: skip
        yield DistanceTable(grid)
        yield relabelled(rng, grid, Fraction(7, 3))
    families = (uniform_grid, cycle_grid, directed_cycle_grid, pairs_grid)
    for k in range(240):
        n = rng.randint(1, 10)
        kind = k % 6
        if kind == 0:
            yield rand_semimetric(rng, n, symmetric=rng.random() < 0.5)
            continue
        if kind in (1, 2):
            grid = graph_grid(rng, n, directed=kind == 2)
        elif kind == 3:
            grid = rng.choice((cube_grid(rng.randint(1, 3)), petersen_grid(), paley_grid(5)))
        else:
            family = rng.choice(families)
            grid = family(min(n, 6) if family is uniform_grid else (n + 1) // 2 if family is pairs_grid else n)
        if kind == 5:
            grid = twisted(rng, grid).entries
        yield relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def test_isometry_group_matches_the_listing_search():
    """The chain against today's listing search and, for n <= 7, brute force.

    Sifting random permutations and random words in the generators must
    agree with a direct isometry check without listing the group; then the
    listing must equal the search's, element for element, and the
    generators must generate it.
    """
    rng = random.Random(1313)
    seen = Counter()
    for table in isometry_oracle_tables(rng):
        n = table.n
        d = table.entries
        group = isometry_group(table)
        gens = [g.images for g in group.generators]
        for _ in range(12):
            images = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(images)
            for g in rng.choices(gens, k=rng.randint(0, 4)) if gens else ():
                images = [g[x] for x in images]
            sigma = Permutation(images)
            is_isometry = all(d[sigma(i)][sigma(j)] == d[i][j] for i in range(n) for j in range(n))
            assert (sigma in group) == is_isometry
            seen[is_isometry] += 1
        assert Permutation.identity(n + 1) not in group and "id" not in group
        assert group._listing is None
        expected = listing_isometries(table)
        assert group.order == len(expected)
        assert [p.images for p in group.elements] == expected
        assert brute_generated(gens, n) == set(expected)
        if n <= 7:
            assert expected == brute_isometries(table)
        symmetric = all(d[i][j] == d[j][i] for i in range(n) for j in range(i))
        seen["symmetric" if symmetric else "asymmetric", group.order > 1] += 1
    # sifted members and non-members; tables with and without symmetry, of both kinds
    assert seen[True] >= 1500 and seen[False] >= 1000
    assert seen["symmetric", True] >= 100 and seen["symmetric", False] >= 30
    assert seen["asymmetric", True] >= 30 and seen["asymmetric", False] >= 50


@pytest.mark.parametrize(
    "grid, order",
    [
        (uniform_grid(128), math.factorial(128)),
        (pairs_grid(64), 2**64 * math.factorial(64)),
        (cube_grid(7), 645120),
        (cycle_grid(128), 256),
        (directed_cycle_grid(16), 16),
        (petersen_grid(), 120),
        (paley_grid(13), 78),
    ],
    ids=["U128", "64 pairs", "Q7", "C128", "directed C16", "Petersen", "Paley13"],
)
def test_isometry_group_orders_at_scale(grid, order):
    """Analytic orders from the chain, with the group never listed."""
    group = isometry_group(DistanceTable(grid))
    assert group.order == order
    n = len(grid)
    assert len(group.generators) < n
    for g in group.generators:
        inv = g.inverse().images
        assert all([grid[i][j] for j in g.images] == grid[inv[i]] for i in range(n))
        assert g in group
    swap = Permutation([1, 0, *range(2, n)])
    rows_agree = grid[0][2:] == grid[1][2:] and grid[0][1] == grid[1][0]
    columns_agree = all(row[0] == row[1] for row in grid[2:])
    assert (swap in group) == (rows_agree and columns_agree)
    assert group._listing is None


@pytest.fixture
def row_scans(monkeypatch):
    """Records each call of ``isometry_group``'s triangle scan: its rows and its answer."""
    calls = []
    scan = groups_module._triangle_failure

    def recorded(d, cols, rows, *bounds):
        rows = list(rows)
        failure = scan(d, cols, rows, *bounds)
        calls.append((rows, failure))
        return failure

    monkeypatch.setattr(groups_module, "_triangle_failure", recorded)
    return calls


def search_nodes(table):
    """``isometry_group(table)`` and the number of search nodes it visited, or its error."""
    consts = groups_module.isometry_group.__code__.co_consts
    extend = next(c for c in consts if getattr(c, "co_name", "") == "extend")
    nodes = 0

    def profile(frame, event, _):
        nonlocal nodes
        nodes += event == "call" and frame.f_code is extend

    sys.setprofile(profile)
    try:
        return isometry_group(table), nodes
    except PreconditionError as err:
        return err, nodes
    finally:
        sys.setprofile(None)


def split_class_grid(m, first, second, apart):
    """Two m-point circulant blocks ``apart`` from each other.

    Offset t has distance ``first[t - 1]`` in the first block and
    ``second[t - 1]`` in the second, for t up to m // 2.  When the second
    pattern permutes the first among the offsets below m / 2, every point
    has the same profile, so all 2m points share one profile class.
    """
    patterns = (first, second)

    def distance(i, j):
        if i // m != j // m:
            return apart
        return 0 if i == j else patterns[i // m][min((i - j) % m, (j - i) % m) - 1]

    return [[distance(i, j) for j in range(2 * m)] for i in range(2 * m)]


# all 12 points in one class, and only the second block fails: 1 + 1 < 4
SPLIT_BROKEN = split_class_grid(6, (4, 1, 5), (1, 4, 5), 10)
SPLIT_VALID = split_class_grid(6, (4, 1, 5), (4, 1, 5), 10)


def split_class_tables(rng, count):
    """Random split-class tables, each followed by its valid twin.

    The first block is valid, and the second permutes its pattern so that
    the second block fails the triangle inequality.
    """
    while count:
        m = rng.randint(5, 8)
        first = [rng.randint(1, 6) for _ in range(m // 2)]
        second = first[: (m - 1) // 2]
        rng.shuffle(second)
        second += first[len(second) :]
        top = 2 * max(first)
        blocks = [DistanceTable(split_class_grid(m, p, p, top)) for p in (first, second)]
        if [validate(t).level >= DistanceClass.SEMIMETRIC for t in blocks] == [True, False]:
            count -= 1
            yield split_class_grid(m, first, second, top)
            yield split_class_grid(m, first, first, top)


NOT_SEMIMETRIC = r"^isometry_group requires at least a semimetric table$"

DISTANCE_MAPS = {
    "square": lambda t, c: t * t,
    "power": lambda t, c: 2**t,
    "shift": lambda t, c: t + c,
    "piecewise": lambda t, c: t if t < 2 else t + c,
}


def orbit_oracle_tables(rng):
    """The split-class tables, then the known families under the maps, perturbed and relabelled."""
    for grid in (SPLIT_BROKEN, SPLIT_VALID, *split_class_tables(rng, 24)):
        yield relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    families = (
        lambda: cycle_grid(rng.randint(5, 12)),
        lambda: cube_grid(rng.randint(2, 4)),
        petersen_grid,
        lambda: uniform_grid(rng.randint(3, 6)),
        lambda: paley_grid(13),
        lambda: directed_cycle_grid(rng.randint(4, 10)),
    )
    for k in range(300):
        grid = families[k % 6]()
        n = len(grid)
        if k // 6 % 5:
            name = rng.choice(sorted(DISTANCE_MAPS))
            c = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            grid = [[DISTANCE_MAPS[name](t, c) if t else t for t in row] for row in grid]
        grid = [list(row) for row in grid]
        i, j = rng.sample(range(n), 2)
        change = rng.random()
        if change < 0.2:  # one broken symmetric pair
            grid[i][j] = grid[j][i] = rng.choice((grid[i][j] * 3, Fraction(grid[i][j], 3), grid[i][j] + 1))
        elif change < 0.3:  # one broken direction
            grid[i][j] += rng.choice((-1, 1)) * Fraction(1, 2)
        elif change < 0.4:  # a zero or negative distance, in both directions or one
            grid[i][j] = rng.choice((0, -1))
            if change < 0.35:
                grid[j][i] = grid[i][j]
        yield relabelled(rng, grid, Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def test_isometry_group_raises_exactly_when_validate_rejects(row_scans):
    """A randomized oracle for the one-row-per-orbit check.

    ``isometry_group`` must raise exactly when ``validate`` finds no
    semimetric, and otherwise give the listing search's order; the rows it
    scans must meet every orbit of that listing.  Each rejection is
    counted by the step that made it: the positivity check (no scan), the
    scan of one row per profile class (the first scan), or the scan of
    one row per orbit after the search (the second).  A symmetric table
    refused by the positivity check took its minima from its sorted rows,
    and those are counted apart as well.
    """
    rng = random.Random(1919)
    seen = Counter()
    for table in orbit_oracle_tables(rng):
        row_scans.clear()
        rejected = validate(table).level < DistanceClass.SEMIMETRIC
        if rejected:
            with pytest.raises(PreconditionError, match=NOT_SEMIMETRIC):
                isometry_group(table)
            assert row_scans == [] or row_scans[-1][1] is not None
            seen[("positivity", "class rows", "orbit rows")[len(row_scans)]] += 1
            seen["symmetric positivity"] += not row_scans and table.values == table.values.transpose()
            continue
        group = isometry_group(table)
        expected = listing_isometries(table)
        assert group.order == len(expected)
        assert all(failure is None for _, failure in row_scans)
        scanned = {i for rows, _ in row_scans for i in rows}
        assert all(scanned & {p[x] for p in expected} for x in range(table.n))
        seen["accepted", len(row_scans)] += 1
    assert seen["positivity"] >= 15 and seen["class rows"] >= 100 and seen["orbit rows"] >= 10, seen
    assert seen["symmetric positivity"] >= 5, seen
    assert seen["accepted", 1] >= 90 and seen["accepted", 2] >= 15, seen


def test_isometry_group_scans_one_row_per_orbit(row_scans):
    """A gate on the rows given to the triangle scan.

    Vertex-transitive tables have one profile class and one orbit, so one
    row is scanned; a table that fails the triangle inequality there is
    refused before the search visits a node.  The nodes each search visits
    are pinned: a change that makes nodes cheaper leaves the counts as
    they are, and one that prunes the search lowers them here.
    """
    pinned = ((cycle_grid(32), 77), (cube_grid(5), 230), (uniform_grid(12), 77), (petersen_grid(), 49),
              (paley_grid(13), 83), (pairs_grid(8), 148))
    for grid, visited in pinned:
        row_scans.clear()
        group, nodes = search_nodes(DistanceTable(grid))
        assert isinstance(group, IsometryGroup) and nodes == visited
        assert [rows for rows, _ in row_scans] == [[0]]
    squared = [[t * t for t in row] for row in cycle_grid(32)]
    wide = [[3 if t == 2 else t for t in row] for row in paley_grid(13)]
    for grid in (squared, wide):
        row_scans.clear()
        err, nodes = search_nodes(DistanceTable(grid))
        assert isinstance(err, PreconditionError) and nodes == 0
        assert [rows for rows, _ in row_scans] == [[0]]
    # the split-class table: one class row, then the second block's least point
    row_scans.clear()
    err, nodes = search_nodes(DistanceTable(SPLIT_BROKEN))
    assert isinstance(err, PreconditionError) and nodes > 0
    assert [rows for rows, _ in row_scans] == [[0], [6]]
    assert isometry_group(DistanceTable(SPLIT_VALID)).order == 288


def test_len_and_truth_at_large_orders():
    """len() is the order and fails from sys.maxsize on; a group is never empty."""
    big = isometry_group(DistanceTable(uniform_grid(21)))
    assert big and big.order == math.factorial(21) > sys.maxsize
    with pytest.raises(OverflowError):
        len(big)
    assert len(isometry_group(DistanceTable(uniform_grid(20)))) == math.factorial(20)
    trivial = isometry_group(DistanceTable([[0]]))
    assert trivial and len(trivial) == 1 and list(trivial) == [Permutation.identity(1)]
    listed = IsometryGroup([Permutation.identity(2)])
    assert listed and listed.order == 1 and Permutation([1, 0]) not in listed


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
    assert commutes_with(UnitDecomposition((0, 0, 0), SWAP23), HEX_SYM)
    assert not commutes_with(UnitDecomposition((0, 0, 0), Permutation([1, 0, 2])), HEX_SYM)
    rng = random.Random(63)
    d = to_matrix(rand_metric(rng, 4))
    lam_i = UnitDecomposition((Fraction(7, 2),) * 4, Permutation.identity(4))
    assert commutes_with(lam_i, d)
    for g, x in (
        (UnitDecomposition((0, 0), Permutation.identity(2)), HEX_SYM),
        (UnitDecomposition((0, 0), Permutation.identity(3)), HEX_SYM),
        (UnitDecomposition((0, 0, 0), SWAP23), Matrix([[0, -1, -1], [-1, 0, -1]])),
    ):
        message = "^commutes_with requires a square matrix of the unit's size$"
        with pytest.raises(ShapeError, match=message):
            commutes_with(g, x)


def test_commutes_with_matches_brute_product():
    """Units S * P against d(i, j) = m(i, j) + phi_j - phi_i, for tables m
    with known isometries and phi over coprime denominators.  S * P
    commutes with d when sigma is an isometry of m and
    s_r = phi(sigma^-1(r)) - phi(r) + c; phi = 0 gives a scalar diagonal."""
    rng = random.Random(1212)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 6)
        table = DistanceTable(rng.choice((uniform_grid, cycle_grid, directed_cycle_grid))(n))
        group = isometry_group(table)
        unit = Fraction(rng.randint(1, 3), rng.choice((5, 7, 11)))
        twist = rng.random() < 0.6
        phi = [Fraction(rng.randint(-9, 9), rng.choice((1, 13, 17))) * twist for _ in range(n)]
        d = Matrix(
            [[table.d(i, j) * unit + phi[j] - phi[i] for j in range(n)] for i in range(n)]
        )
        if rng.random() < 0.6:
            sigma = rng.choice(group.elements)
        else:
            images = list(range(n))
            rng.shuffle(images)
            sigma = Permutation(images)
        inv = sigma.inverse()
        c = Fraction(rng.randint(-9, 9), rng.choice((1, 19, 23)))
        diag = [phi[inv(r)] - phi[r] + c for r in range(n)]
        perturbed = rng.random() < 0.25
        if perturbed:
            diag[rng.randrange(n)] += Fraction(1, 29)
        expected = brute_commutes(diag, sigma.images, d)
        assert commutes_with(UnitDecomposition(tuple(diag), sigma), d) == expected
        if sigma in group and not perturbed:
            assert expected
        seen[expected, len(set(diag)) == 1, sigma in group] += 1
    assert sum(v for k, v in seen.items() if k[0]) >= 0.3 * 400
    # (commutes, scalar diagonal, isometry): commuting units, and non-isometries, of both kinds
    for scalar_diagonal in (True, False):
        assert seen[True, scalar_diagonal, True] >= 50
        assert seen[False, scalar_diagonal, False] >= 10
    assert seen[False, False, True] >= 20  # an isometry with a perturbed diagonal


def test_isometries_are_exactly_commuting_permutations():
    rng = random.Random(64)
    for _ in range(5):
        table = rand_metric(rng, 4)
        d = to_matrix(table)
        group = {p.images for p in isometry_group(table)}
        for images in permutations(range(4)):
            sigma = Permutation(images)
            unit = UnitDecomposition((0,) * 4, sigma)
            assert commutes_with(unit, d) == (images in group)


def test_commuting_units_are_scaled_permutations():
    # scaled isometry matrices commute; breaking the scalar diagonal breaks it
    table = from_matrix(HEX_SYM)
    d = HEX_SYM
    for sigma in isometry_group(table):
        assert commutes_with(UnitDecomposition((Fraction(5, 2),) * 3, sigma), d)
        lopsided = UnitDecomposition((0, 0, 1), sigma)
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
    with pytest.raises(ShapeError, match="^permutation degree does not match the matrix size$"):
        hclass_element(HEX_SYM, Permutation([1, 0]), 0)


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


def test_hclass_contains_refuses_a_witness_of_another_size():
    # a smaller witness used to leak the span kernel's "vector lengths differ"
    two = Matrix([[0, -1], [-1, 0]])
    for m, witness in ((HEX_SYM, two), (two, HEX_SYM), (HEX_SYM, Matrix([[0, -1, -1]]))):
        with pytest.raises(ShapeError, match="^hclass_contains requires square matrices of equal size$"):
            hclass_contains(m, m, idempotent=witness)


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
    """On metric matrices the key test and the decomposition agree with mutual
    span membership, on ints and on Fraction entries."""
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
            expected = span_in_hclass(e, x)
            assert hclass_contains(e, x) == expected == brute_in_hclass(e, x)
            found = hclass_decompose(e, x)
            assert (found is not None) == expected
            if found is not None:
                assert hclass_element(e, *found) == x
            members += expected
            others += not expected
    assert members >= 250 and others >= 350


def span_route_cases(rng, kind):
    """(m, witness) of one of three kinds; scalings of the witness, or of
    ``m`` when there is none, are members.

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
    """The key test against mutual span membership, on ints and on Fraction
    entries; both oracles take every column of m as extremal."""
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
            assert hclass_contains(m, x, witness) == span_in_hclass(m, x, witness) == expected
            found[expected] += 1
    assert found[True] >= 30 and found[False] >= 30


def outcome(call, *args):
    """``call(*args)``, or the type and message of the error it raises."""
    try:
        return call(*args)
    except MaxplusError as exc:
        return type(exc).__name__, str(exc)


def coprime_scalar(rng):
    """A scalar over a prime denominator that the inputs' (1, 2, 3, 4) miss."""
    return Fraction(rng.randint(-40, 40), rng.choice((5, 7, 11, 13)))


def oracle_case(rng, kind):
    """(m, witness, base, extra) for the key-test oracle: scalings of ``base``
    are members when ``m`` is accepted, and ``extra`` lists more candidates.

    ``coprime``: a witness whose columns ``m`` shifts by scalars over
    denominators coprime to the witness's.  ``twisted``: a metric with a
    large isometry group conjugated by a diagonal, d(i, j) + phi_j - phi_i,
    with the conjugated subgroup elements as extra candidates; a
    semimetric or, when some distance drops to 0 or below, a
    pre-semimetric.  ``star``: a matrix that is usually not idempotent, so
    its star is the idempotent.  ``refused``: the flat matrix, a flat
    witness and a witness that is usually not idempotent.
    """
    if kind in ("semimetric", "conjugate", "witness"):
        m, witness = span_route_cases(rng, kind)
        return m, witness, m if witness is None else witness, []
    n = rng.randint(2, 5)
    s = to_matrix(rand_semimetric(rng, n, symmetric=rng.random() < 0.3))
    lowered = [list(row) for row in s.entries]
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        lowered[i][j] -= rng.randint(1, 3)
    lowered = Matrix(lowered)
    if kind == "coprime":
        t = list(range(n))
        rng.shuffle(t)
        shift = [coprime_scalar(rng) for _ in range(n)]
        return Matrix([[s[i, t[j]] + shift[j] for j in range(n)] for i in range(n)]), s, s, []
    if kind == "twisted":
        table = relabelled(rng, rng.choice((uniform_grid, cycle_grid))(n), rng.randint(1, 2))
        e = to_matrix(table)
        phi = [Fraction(rng.randint(-6, 6), 4) for _ in range(n)]

        def conjugated(a):
            return Matrix([[a[i, j] + phi[i] - phi[j] for j in range(n)] for i in range(n)])

        extra = [
            conjugated(hclass_element(e, sigma, coprime_scalar(rng)))
            for sigma in rng.choices(list(isometry_group(table)), k=4)
        ]
        m = conjugated(e)
        return m, None, m, extra + [Matrix([m.entries[k] for k in rng.sample(range(n), n)])]
    if kind == "star":
        m = rng.choice((lowered, s.scale(-rng.randint(1, 3)), s.scale(rng.randint(1, 3))))
        star = kleene_star(m)
        return m, None, star.star if star.converges else m, []
    flat = Matrix([[0] * n for _ in range(n)])
    return (*rng.choice(((flat, None), (s, flat), (s, lowered))), s, [])


def hclass_candidates(rng, m, base):
    """``m``, scalings of ``base`` over coprime denominators, near misses and
    permutations of ``base``."""
    n = base.rows
    grid = [list(row) for row in base.entries]
    lam = coprime_scalar(rng)
    member = base.scale(lam)
    near = [list(row) for row in member.entries]
    near[rng.randrange(n)][rng.randrange(n)] += Fraction(rng.choice((1, -1)), rng.choice((5, 7)))
    s = list(range(n))
    rng.shuffle(s)
    t = list(range(n))
    rng.shuffle(t)
    shift = [coprime_scalar(rng) for _ in range(n)]
    return [
        m,
        member,
        Matrix(near),
        permuted(grid, s, tuple(range(n)), lam),  # rows permuted
        permuted(grid, s, t, lam),  # both permuted
        permuted(grid, s, s, lam),  # relabelled
        Matrix([[x + c for x, c in zip(row, shift)] for row in grid]),  # columns scaled
    ]


def test_hclass_contains_matches_the_span_oracle():
    """The key test gives the span route's answer or error message on every
    kind of input, including keys over denominators coprime to the idempotent's."""
    # ROADMAP item 4's counterexample: Isom(d) is trivial, yet the swap is a member
    assert hclass_contains(Matrix([[0, -1], [-3, 0]]), Matrix([[-1, 2], [0, -1]])) is True
    rng = random.Random(605)
    found = Counter()
    levels = Counter()
    for _ in range(25):
        for kind in ("semimetric", "conjugate", "witness", "coprime", "twisted", "star", "refused"):
            m, witness, base, extra = oracle_case(rng, kind)
            if kind == "twisted":
                levels[validate(from_matrix(m)).level] += 1
            for x in hclass_candidates(rng, m, base) + extra:
                expected = outcome(span_in_hclass, m, x, witness)
                assert outcome(hclass_contains, m, x, witness) == expected
                # a call without a witness never blames one
                assert witness is not None or "witness" not in str(expected)
                found[expected if isinstance(expected, bool) else expected[1]] += 1
    assert found[True] >= 300 and found[False] >= 300
    assert levels[DistanceClass.SEMIMETRIC] + levels[DistanceClass.METRIC] >= 5
    assert levels[DistanceClass.PRE_SEMIMETRIC] >= 5
    for message in (
        "witness idempotent has a different column space",
        "column space is not that of a strongly regular idempotent",
        "cannot recover an idempotent for the column space; pass one explicitly",
        "supplied witness is not idempotent",
    ):
        assert found[message] >= 10, message


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
    # a supplied witness is checked to have the columns of m, even on a metric
    with pytest.raises(PreconditionError, match="different column space"):
        hclass_contains(HEX_SYM, HEX_SYM, idempotent=HEX_ASYM)
    assert hclass_contains(HEX_SYM, hclass_element(HEX_SYM, SWAP23, 1), idempotent=HEX_SYM)
