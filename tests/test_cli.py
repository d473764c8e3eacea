import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from maxplus import Matrix, Permutation, PreconditionError, hclass_element
from maxplus.cli import REPORT_SCHEMA, main
from maxplus.matio import MAX_ENTRY_BITS, parse_matrix, serialize_matrix
from maxplus.svg import render_matrix

from helpers import CLAW, HEX_ASYM, HEX_SYM, TRIANGLE, uniform_grid

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def files(tmp_path):
    def write(name, mat):
        path = tmp_path / name
        path.write_text(serialize_matrix(mat))
        return str(path)

    return {
        "triangle": write("triangle.tmat", TRIANGLE),
        "hex_asym": write("hex_asym.tmat", HEX_ASYM),
        "hex_sym": write("hex_sym.tmat", HEX_SYM),
        "claw": write("claw.tmat", Matrix(CLAW.entries)),
        "hex_sym_dist": write("hex_sym_dist.tmat", -HEX_SYM),
        "diverging": write("diverging.tmat", Matrix([[1]])),
        "small": write("small.tmat", Matrix([[-5, 0], [-2, -5]])),
        "band_inside": write("band_inside.tmat", Matrix([[0, -1], [-2, 0]])),
        "band_below": write("band_below.tmat", Matrix([[0, 1], [-3, 0]])),
        "band_above": write("band_above.tmat", Matrix([[0, -3], [1, 0]])),
        "band_line": write("band_line.tmat", Matrix([[0, 2], [-2, 0]])),
        "band_zero": write("band_zero.tmat", Matrix([[0, 0], [0, 0]])),
        "dir": tmp_path,
    }


def test_classify_human(files, capsys):
    assert main(["classify", files["hex_sym"]]) == 0
    out = capsys.readouterr().out
    assert "is metric matrix: yes" in out
    assert "symmetric: yes" in out

    assert main(["classify", files["triangle"]]) == 0
    out = capsys.readouterr().out
    assert "is semimetric matrix: no" in out


def test_classify_json_matches_schema(files, capsys):
    assert main(["classify", files["hex_asym"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["is_semimetric_matrix"] is True
    assert payload["is_metric_matrix"] is False
    assert payload["n"] == 3


def test_star_round_trips(files, capsys):
    assert main(["star", files["small"]]) == 0
    out = capsys.readouterr().out
    assert parse_matrix(out) == Matrix([[0, 0], [-2, 0]])

    assert main(["star", files["diverging"]]) == 0
    assert capsys.readouterr().out.strip() == "diverges (eigenvalue 1)"


def test_eigenvalue(files, capsys):
    assert main(["eigenvalue", files["small"]]) == 0
    assert capsys.readouterr().out.strip() == "-1"


def test_embed(files, capsys):
    assert main(["embed", files["claw"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0 -2 -2 -1"
    assert lines == ["0 -2 -2 -1", "-2 0 -2 -1", "-2 -2 0 -1", "-1 -1 -1 0"]


def test_embed_decimal(files, capsys):
    assert main(["embed", files["hex_sym_dist"], "--decimal"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0 -1.5 -1.5"


def test_isometries(files, capsys):
    assert main(["isometries", files["hex_sym_dist"]]) == 0
    assert capsys.readouterr().out.strip() == "order 2: id, (2 3)"


def test_isometries_of_seven_point_uniform_metric(tmp_path, capsys):
    path = tmp_path / "u7.tmat"
    path.write_text(serialize_matrix(Matrix(uniform_grid(7))))
    assert main(["isometries", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("order 5040: id, ") and out.count(",") == 5039


def test_extremals(files, capsys):
    assert main(["extremals", files["hex_asym"]]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3"


def test_interior(files, capsys):
    assert main(["interior", files["hex_asym"], "--point", "0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "interior"
    assert main(["interior", files["triangle"], "--point", "0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "boundary"


def test_interior_outside_point_is_precondition_error(files, capsys):
    assert main(["interior", files["hex_asym"], "--point", "5,0,0"]) == 3
    assert "column space" in capsys.readouterr().err


def test_hclass(files, capsys):
    assert main(["hclass", files["hex_sym"], "--perm", "1 3 2", "--lambda", "1/2"]) == 0
    out = capsys.readouterr().out
    expected = hclass_element(HEX_SYM, Permutation([0, 2, 1]), "1/2")
    assert parse_matrix(out) == expected


def test_hclass_negative_lambda(files, capsys):
    # a leading "-" on the value must not be mistaken for a flag
    assert main(["hclass", files["hex_sym"], "--perm", "1 3 2", "--lambda", "-1/2"]) == 0
    out = capsys.readouterr().out
    assert parse_matrix(out) == hclass_element(HEX_SYM, Permutation([0, 2, 1]), "-1/2")


def test_interior_negative_point(files, capsys):
    assert main(["interior", files["hex_asym"], "--point", "-1,-2,0"]) == 0
    assert capsys.readouterr().out.strip() == "boundary"


def test_hclass_rejects_non_isometry(files, capsys):
    assert main(["hclass", files["hex_sym"], "--perm", "2 1 3"]) == 3


def test_render_matches_golden(files, capsys):
    for key, golden in [
        ("triangle", "triangle.svg"),
        ("hex_asym", "hexagon_asym.svg"),
        ("hex_sym", "hexagon_sym.svg"),
        # 2x2 bands: below the diagonal (k > 0), above it (l > 0), around it,
        # of zero width (k = -l), and with both corners repeated (k = l = 0)
        ("band_below", "band_below.svg"),
        ("band_above", "band_above.svg"),
        ("band_inside", "band_inside.svg"),
        ("band_line", "band_line.svg"),
        ("band_zero", "band_zero.svg"),
    ]:
        out_path = files["dir"] / f"{key}.out.svg"
        assert main(["render", files[key], "-o", str(out_path)]) == 0
        assert out_path.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_render_is_deterministic(files):
    assert render_matrix(HEX_ASYM) == render_matrix(HEX_ASYM)
    assert render_matrix(Matrix([[0, -1], [-2, 0]])) == render_matrix(Matrix([[0, -1], [-2, 0]]))


def test_render_band_2x2(files, tmp_path):
    band_file = tmp_path / "band.tmat"
    band_file.write_text(serialize_matrix(Matrix([[0, -1], [-2, 0]])))
    out = tmp_path / "band.svg"
    assert main(["render", str(band_file), "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("unit", [10**6, (2**MAX_ENTRY_BITS - 1) // 3])
def test_render_size_is_bounded(tmp_path, unit):
    # a 2x2 band and a 3x3 polytrope with entries up to 3 * unit, within the entry cap
    band = Matrix([[0, -unit], [-2 * unit, 0]])
    polytrope = Matrix([[e * unit for e in row] for row in HEX_ASYM.entries])
    for mat in (band, polytrope):
        path = tmp_path / "big.tmat"
        path.write_text(serialize_matrix(mat))
        out = tmp_path / "big.svg"
        assert main(["render", str(path), "-o", str(out)]) == 0
        assert out.stat().st_size < 64_000


def test_render_rejects_large_matrices(files, capsys):
    out = files["dir"] / "no.svg"
    assert main(["render", files["claw"], "-o", str(out)]) == 3
    assert "n <= 3" in capsys.readouterr().err


def test_render_refuses_large_matrices_before_their_integer_view():
    # a large hostile file would spend its time building the integer view
    big = Matrix([[Fraction(-i - j, 7 + i) for j in range(4)] for i in range(4)])
    with pytest.raises(PreconditionError, match="n <= 3"):
        render_matrix(big)
    assert big._ints is None


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tmat"
    bad.write_text("tmat 1\n2 2\n0 0\n0\n")
    assert main(["classify", str(bad)]) == 2
    assert "line 4" in capsys.readouterr().err
    assert main(["classify", str(tmp_path / "missing.tmat")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["² 1", "9" * 5000 + " 1"], ids=["superscript", "5000-digits"])
def test_exit_code_parse_error_on_dimensions(tmp_path, capsys, dims):
    path = tmp_path / "dims.tmat"
    path.write_text(f"tmat 1\n{dims}\n0\n", encoding="utf-8")
    assert main(["eigenvalue", str(path)]) == 2
    assert capsys.readouterr().err.startswith("maxplus: parse error: line 2:")


def test_exit_code_parse_error_over_entry_cap(tmp_path, capsys):
    huge = tmp_path / "huge.tmat"
    huge.write_text("tmat 1\n1 1\n1e100000\n")
    assert main(["eigenvalue", str(huge)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_code_usage(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["interior"]) == 1  # missing required arguments
    capsys.readouterr()


def test_exit_code_precondition(files, capsys):
    assert main(["embed", files["hex_asym"]]) == 3  # negative "distances"
    capsys.readouterr()


def test_extended_entries_rejected_by_cli(tmp_path, capsys):
    path = tmp_path / "ext.tmat"
    path.write_text("tmat 1\n1 1\n-inf\n")
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == "maxplus: parse error: line 3: bad entry '-inf'\n"


def test_exit_code_consistency_failure(files, capsys, monkeypatch):
    from maxplus import ConsistencyError
    import maxplus.cli as cli_module

    def boom(_):
        raise ConsistencyError("injected")

    monkeypatch.setattr(cli_module, "classify", boom)
    assert main(["classify", files["hex_sym"]]) == 4
    assert "consistency" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1/0", "1e3000000"])
def test_bad_scalar_options_are_parse_errors(files, capsys, value):
    assert main(["hclass", files["hex_sym"], "--perm", "1 3 2", "--lambda", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maxplus: parse error:") and "lambda" in err
    assert main(["interior", files["hex_asym"], "--point", f"0,{value},0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("maxplus: parse error:") and "point" in err
