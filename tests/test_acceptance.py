"""End-to-end acceptance suite.

Each test covers one release criterion at its stated sample size and
prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.  Everything asserted here is exact.
"""

import functools
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema

import maxplus
from maxplus import (
    DistanceTable,
    Matrix,
    Permutation,
    Vector,
    classify,
    duality_map,
    embed,
    from_matrix,
    hclass_element,
    hilbert_distance,
    interior_point,
    is_antichain,
    is_idempotent,
    is_strongly_regular,
    isometry_group,
    kleene_star,
    mat_mul,
    mat_vec,
    membership,
    negation_closed,
    permanent,
    polytrope_vertices_2d,
    projectivize,
    residuation_bound_check,
    residuation_distance,
    star_fixed_point_check,
    to_matrix,
    validate,
    DistanceClass,
)
from maxplus.cli import REPORT_SCHEMA, main
from maxplus.matio import parse_matrix, serialize_matrix

from helpers import (
    CLAW,
    HEX_ASYM,
    HEX_SYM,
    TRIANGLE,
    brute_isometries,
    brute_permanent,
    rand_matrix,
    rand_member,
    rand_metric,
    rand_semimetric,
    rand_vector,
    rand_zero_diag,
    series_star,
    shift_nonpositive,
    star_closed_zero_diag,
)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")

        return wrapper

    return deco


@criterion("1: golden fixtures classify exactly")
def test_criterion_1_golden_fixtures():
    for mat in (TRIANGLE, HEX_ASYM, HEX_SYM):
        assert is_idempotent(mat)
        assert is_strongly_regular(mat)
    assert classify(TRIANGLE).is_semimetric_matrix is False
    rb = classify(HEX_ASYM)
    assert rb.is_semimetric_matrix is True and rb.is_metric_matrix is False
    assert classify(HEX_SYM).is_metric_matrix is True


@criterion("2: projectivized polytrope geometry")
def test_criterion_2_figure_geometry():
    tri = polytrope_vertices_2d(TRIANGLE)
    assert set(tri) == {
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(3), Fraction(3)),
    }
    assert len(tri) == 3

    hexagon = polytrope_vertices_2d(HEX_ASYM)
    generators = {
        (Fraction(-1), Fraction(-2)),
        (Fraction(0), Fraction(1)),
        (Fraction(2), Fraction(-1)),
    }
    assert generators <= set(hexagon)
    assert generators == {projectivize(HEX_ASYM.col(j)) for j in range(3)}

    origin = Vector.zeros(3)
    assert interior_point(HEX_ASYM, origin)
    assert interior_point(HEX_SYM, origin)
    assert not interior_point(TRIANGLE, origin)


@criterion("3: four-point embedding reproduces its table")
def test_criterion_3_claw_embedding():
    points = embed(CLAW)
    assert points == [
        Vector([0, -2, -2, -1]),
        Vector([-2, 0, -2, -1]),
        Vector([-2, -2, 0, -1]),
        Vector([-1, -1, -1, 0]),
    ]
    for i in range(4):
        for j in range(4):
            assert residuation_distance(points[i], points[j]) == CLAW.d(i, j)
            assert hilbert_distance(points[i], points[j]) == CLAW.d(i, j)


@criterion("4: triangle/idempotent/star and classification agreement, 200 matrices")
def test_criterion_4_classification_oracles():
    rng = random.Random(1004)
    corpus = []
    for _ in range(80):
        corpus.append(star_closed_zero_diag(rng, rng.randint(2, 5)))
    for _ in range(80):
        corpus.append(rand_zero_diag(rng, rng.randint(2, 5)))
    for _ in range(20):
        corpus.append(to_matrix(rand_semimetric(rng, rng.randint(2, 5))))
    for _ in range(20):
        corpus.append(to_matrix(rand_metric(rng, rng.randint(2, 5))))
    assert len(corpus) == 200
    for a in corpus:
        triangle = validate(from_matrix(a)).level >= DistanceClass.PRE_SEMIMETRIC
        idem = is_idempotent(a)
        fixed = star_fixed_point_check(a)
        assert triangle == idem == fixed
        # classify() itself cross-checks every characterization and would
        # raise ConsistencyError on any disagreement
        report = classify(a)
        assert report.is_semimetric_matrix == (
            report.strongly_regular and report.off_diagonal_negative and report.idempotent
        )
        assert report.is_semimetric_matrix == (
            report.kleene_fixed and report.off_diagonal_negative
        )
        assert report.is_semimetric_matrix == report.origin_in_interior
        assert report.is_semimetric_matrix == (
            report.origin_in_interior and report.columns_sum_to_zero
        )
        assert report.is_metric_matrix == (
            report.is_semimetric_matrix and report.symmetric
        )


@criterion("5: assignment permanent equals brute force, 105 matrices up to 7x7")
def test_criterion_5_permanent_oracle():
    rng = random.Random(1005)
    checked = 0
    for n in range(1, 8):
        for _ in range(15):
            a = rand_matrix(rng, n)
            res = permanent(a)
            value, count, _ = brute_permanent(a)
            assert res.value == value
            assert res.attaining_unique == (count == 1)
            assert sum(a[i, res.witness(i)] for i in range(n)) == value
            checked += 1
    assert checked == 105


@criterion("6: Kleene star equals the series oracle, 102 matrices up to 6x6")
def test_criterion_6_star_oracle():
    rng = random.Random(1006)
    checked = 0
    for n in range(1, 7):
        for _ in range(17):
            a = shift_nonpositive(rng, rand_matrix(rng, n))
            res = kleene_star(a)
            assert res.converges and res.eigenvalue <= 0
            assert res.star == series_star(a)
            assert kleene_star(res.star).star == res.star  # star of star
            checked += 1
    assert checked == 102


@criterion("7: duality is negation on 50 random metric matrices")
def test_criterion_7_duality_suite():
    rng = random.Random(1007)
    for _ in range(50):
        e = to_matrix(rand_metric(rng, rng.randint(2, 5)))
        cols = e.column_vectors()
        for r in e.row_vectors():
            assert mat_vec(e, -r) == -r
            assert duality_map(e, r) == -r
            assert membership(cols, -r).member
        assert negation_closed(e) == (e == e.transpose())
    # asymmetric control: a strongly regular idempotent that is not symmetric
    assert negation_closed(HEX_ASYM) is False


@criterion("8: residuation distance laws and bracket identities")
def test_criterion_8_residuation_properties():
    rng = random.Random(1008)
    for _ in range(1000):
        n = rng.randint(1, 6)
        x, y, z = (rand_vector(rng, n) for _ in range(3))
        assert residuation_distance(x, z) <= residuation_distance(x, y) + residuation_distance(y, z)
    for _ in range(10):
        table = rand_semimetric(rng, rng.randint(2, 5))
        points = embed(table)
        assert is_antichain(points)
        for i, p in enumerate(points):
            for j, q in enumerate(points):
                if i != j:
                    assert residuation_distance(p, q) > 0
    corpus = [TRIANGLE, HEX_ASYM, HEX_SYM]
    corpus += [star_closed_zero_diag(rng, rng.randint(2, 5)) for _ in range(20)]
    corpus += [to_matrix(rand_semimetric(rng, rng.randint(2, 5))) for _ in range(10)]
    for e in corpus:
        assert residuation_bound_check(e)


@criterion("9: isometry groups and the subgroup homomorphism law")
def test_criterion_9_group_suite():
    rng = random.Random(1009)
    assert isometry_group(from_matrix(HEX_SYM)).order == 2
    assert isometry_group(CLAW).order == 6
    discrete = DistanceTable([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert isometry_group(discrete).order == 6

    for symmetric in (False, True):
        for n in (2, 3, 4, 5, 6):
            table = rand_semimetric(rng, n, symmetric=symmetric)
            assert [p.images for p in isometry_group(table)] == brute_isometries(table)

    lams = [Fraction(0), Fraction(7), Fraction(-1, 2)]
    for table in (from_matrix(HEX_SYM), CLAW):
        d = to_matrix(table)
        group = list(isometry_group(table))
        for sigma in group:
            for tau in group:
                for lam in lams:
                    for mu in lams:
                        lhs = mat_mul(
                            hclass_element(d, sigma, lam), hclass_element(d, tau, mu)
                        )
                        assert lhs == hclass_element(d, sigma * tau, lam + mu)
        assert hclass_element(d, Permutation.identity(table.n), 0) == d


@criterion("10: polytropes are closed under componentwise minimum")
def test_criterion_10_min_plus_closure():
    rng = random.Random(1010)
    corpus = [TRIANGLE, HEX_ASYM, HEX_SYM]
    corpus += [to_matrix(rand_semimetric(rng, rng.randint(2, 5))) for _ in range(10)]
    corpus += [to_matrix(rand_metric(rng, rng.randint(2, 5))) for _ in range(5)]
    for e in corpus:
        assert is_strongly_regular(e) and is_idempotent(e)
        cols = e.column_vectors()
        for _ in range(15):
            x, y = rand_member(rng, e), rand_member(rng, e)
            assert membership(cols, x.meet(y)).member


@criterion("11: file round-trips, byte-stable SVG, documented exit codes")
def test_criterion_11_cli_io(tmp_path, capsys):
    from pathlib import Path

    rng = random.Random(1011)
    for _ in range(25):
        mat = rand_matrix(rng, rng.randint(1, 5))
        assert parse_matrix(serialize_matrix(mat)) == mat

    golden_dir = Path(__file__).parent / "golden"
    for name, mat in (
        ("triangle", TRIANGLE),
        ("hexagon_asym", HEX_ASYM),
        ("hexagon_sym", HEX_SYM),
    ):
        src = tmp_path / f"{name}.tmat"
        src.write_text(serialize_matrix(mat))
        out = tmp_path / f"{name}.svg"
        assert main(["render", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == (golden_dir / f"{name}.svg").read_bytes()
        out2 = tmp_path / f"{name}.2.svg"
        assert main(["render", str(src), "-o", str(out2)]) == 0
        assert out2.read_bytes() == out.read_bytes()

    ok = tmp_path / "ok.tmat"
    ok.write_text(serialize_matrix(HEX_SYM))
    assert main(["classify", str(ok), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, REPORT_SCHEMA)

    bad = tmp_path / "bad.tmat"
    bad.write_text("tmat 1\n2 2\n0\n0 0\n")
    assert main(["classify", str(bad)]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["render", str(ok), "-o", str(tmp_path / "x.svg")]) == 0
    big = tmp_path / "big.tmat"
    big.write_text(serialize_matrix(Matrix(CLAW.entries)))
    assert main(["render", str(big), "-o", str(tmp_path / "y.svg")]) == 3
    capsys.readouterr()


@criterion("12: the package re-exports each module's __all__, and nothing else")
def test_criterion_12_public_surface():
    names = ("closure", "errors", "groups", "metric", "permutation", "polytope", "rank", "semiring")
    exported = set()
    for name in names:
        module = importlib.import_module(f"maxplus.{name}")
        assert getattr(maxplus, name) is module
        for public in module.__all__:
            assert getattr(maxplus, public) is getattr(module, public), (name, public)
        exported.update(module.__all__)
    # a fresh interpreter: the other tests import cli, matio and svg into this one
    probe = (
        "import json, sys, maxplus; print(json.dumps(["
        "[n for n in dir(maxplus) if not n.startswith('__')],"
        "[m for m in sys.modules if m.split('.')[0] == 'maxplus']]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(maxplus.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, check=True)
    public, loaded = json.loads(out.stdout)
    assert set(public) == exported | set(names)
    assert set(loaded) == {"maxplus"} | {f"maxplus.{name}" for name in names}
    errors = maxplus.errors
    classes = [n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)]
    assert sorted(errors.__all__) == sorted(classes) == [
        "ConsistencyError",
        "MatrixParseError",
        "MaxplusError",
        "PreconditionError",
        "ShapeError",
    ]
