import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import maxplus
from maxplus import Matrix, Permutation, PreconditionError, hclass_element
from maxplus.cli import LISTING_CAP, REPORT_SCHEMA, main
from maxplus.matio import MAX_ENTRY_BITS, parse_matrix, serialize_matrix
from maxplus.svg import render_matrix

import cli_bytes
from helpers import CLAW, HEX_ASYM, HEX_SYM, TRIANGLE, cycle_grid, uniform_grid

GOLDEN_DIR = Path(__file__).parent / "golden"

# (sha256, runs) per key of tests/cli_bytes.py: the CLI's bytes on its
# seeded corpus, the same under CPython 3.10, 3.11 and 3.12
CLI_DIGESTS = {
    "usage": ("7d133c342ba9da11c59fe65393ec36c4855869c7bda363321b4ff75bdd1bb2e2", 6),
    "classify": ("7970215d5a96e3f3d899a4a24f01ee30de4f4663acfa34d3e16d2b0100e6eb5b", 286),
    "render": ("901667ef12eebb59f3e26e7442e615d6da35cff6dbac2c782a7165873979b411", 143),
    "star": ("911057c668fb3e4ea8cae2bd9f216b612826223c310c3bbfebfef3e1ad0b1a2a", 286),
    "eigenvalue": ("c18498e276596821151a8d0239ea11c236a5f60f5d042997315ff77514d4befb", 286),
    "embed": ("c6b9586aad94ea42960ce0c3c79e4e8377ac6153da2379a4e3b3fdb08d575300", 286),
    "isometries": ("087df0038f03e9740d80b06bc5658bdbf12d14e75d5348280e93e3603f96ffa0", 143),
    "extremals": ("763dcbfa679cd4ae8d85695e556c91662c694eeb1a355e8ce66d42a845fb17fa", 143),
    "interior": ("e0c3be21a70ddb80321c9bee0d85e38a77c6bde1e3184d6109cad22755995dd0", 572),
    "hclass": ("45b8921c5ea9d5f67c1518ae491ae1397ada6510a9b4b73403bbf1ac5f151e67", 1144),
    "-inf": ("aecaffd8b5c74b0609b28e523ce9ca440c4c239a00e98d68ea6eddca4c69e510", 230),
}


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


def _isometries_output(tmp_path, capsys, grid) -> str:
    path = tmp_path / "table.tmat"
    path.write_text(serialize_matrix(Matrix(grid)))
    assert main(["isometries", str(path)]) == 0
    return capsys.readouterr().out


def test_isometries_lists_up_to_the_cap(tmp_path, capsys):
    """U7 (order 5040, the cap) and C128 (order 256) list every element,
    byte for byte as the exhaustive search printed them."""
    assert LISTING_CAP == 5040
    for grid, size, digest in [
        (uniform_grid(7), 78601, "79eca44e415a38805ff813756477fa7e560a0fbb96651268fbeceba1bfcff7e1"),
        (cycle_grid(128), 111716, "71cc70ad9ecf19bbf2276bc8fbb3992618ed0472539329f6cb88b78fdc47c252"),
    ]:
        out = _isometries_output(tmp_path, capsys, grid).encode()
        assert (len(out), hashlib.sha256(out).hexdigest()) == (size, digest)


def test_isometries_above_the_cap_prints_generators(tmp_path, capsys):
    out = _isometries_output(tmp_path, capsys, uniform_grid(8))
    assert out == "order 40320, generated by: (7 8), (6 7), (5 6), (4 5), (3 4), (2 3), (1 2)\n"


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
    capsys.readouterr()
    assert main(["hclass", files["hex_sym"], "--perm", "1 2"]) == 3
    assert capsys.readouterr().err == "maxplus: permutation degree does not match the matrix size\n"


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


def test_cli_bytes_match_the_pinned_digests():
    assert cli_bytes.digests() == CLI_DIGESTS


def test_render_is_deterministic(files):
    assert render_matrix(HEX_ASYM) == render_matrix(HEX_ASYM)
    assert render_matrix(Matrix([[0, -1], [-2, 0]])) == render_matrix(Matrix([[0, -1], [-2, 0]]))


def test_render_band_2x2(files, tmp_path):
    band_file = tmp_path / "band.tmat"
    band_file.write_text(serialize_matrix(Matrix([[0, -1], [-2, 0]])))
    out = tmp_path / "band.svg"
    assert main(["render", str(band_file), "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("flag", ["-o", "--output"])
def test_render_takes_a_dash_leading_path(files, monkeypatch, flag):
    # a leading "-" on the output path must not be mistaken for a flag
    monkeypatch.chdir(files["dir"])
    assert main(["render", files["band_inside"], flag, "-out.svg"]) == 0
    assert (files["dir"] / "-out.svg").read_bytes() == (GOLDEN_DIR / "band_inside.svg").read_bytes()


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


def test_render_refusals_name_the_precondition():
    with pytest.raises(PreconditionError, match="^render needs a 2x2 or 3x3 matrix$"):
        render_matrix(Matrix([[0]]))
    # a 3x3 matrix whose square has 1 on the diagonal: not idempotent
    with pytest.raises(PreconditionError, match="^render requires a strongly regular idempotent$"):
        render_matrix(Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


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


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bytes.tmat"
    bad.write_bytes(b"tmat 1\n1 1\n\xff\n")
    for command, *options in (
        ["classify"],
        ["star"],
        ["eigenvalue"],
        ["embed"],
        ["isometries"],
        ["extremals"],
        ["interior", "--point", "0"],
        ["hclass", "--perm", "1"],
        ["render", "-o", str(tmp_path / "x.svg")],
    ):
        assert main([command, str(bad), *options]) == 2
        assert capsys.readouterr().err == f"maxplus: parse error: cannot read {bad}: not UTF-8 text\n"


def test_render_to_an_unwritable_path_is_a_usage_error(files, tmp_path, capsys):
    for out, reason in (
        (tmp_path / "missing" / "x.svg", "No such file or directory"),
        (tmp_path, "Is a directory"),
        ("", "No such file or directory"),
    ):
        assert main(["render", files["band_inside"], "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"maxplus: cannot write {out}: {reason}\n"


def _maxplus_to(stdout, argv, unbuffered):
    """``python -m maxplus ARGV`` with stdout on the given file descriptor."""
    env = {**os.environ, "PYTHONPATH": str(Path(maxplus.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
    return subprocess.run([sys.executable, "-m", "maxplus", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


# unbuffered, print fails at once; buffered, the failure comes at the flush
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_disk_on_stdout_is_one_line_and_exit_1(files, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _maxplus_to(full, ["classify", files["hex_sym"]], unbuffered)
    assert proc.returncode == 1
    assert proc.stderr == b"maxplus: cannot write to stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_pipe_on_stdout_is_one_line_and_exit_1(files, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = _maxplus_to(write_end, ["classify", files["hex_sym"]], unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"maxplus: cannot write to stdout: Broken pipe\n"


# argparse drops a failing write of its own; --help must still report it
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_help_on_a_full_disk_is_one_line_and_exit_1(unbuffered):
    for argv in (["--help"], ["classify", "--help"]):
        with open("/dev/full", "w") as full:
            proc = _maxplus_to(full, argv, unbuffered)
        assert proc.returncode == 1
        assert proc.stderr == b"maxplus: cannot write to stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_help_on_a_closed_pipe_is_one_line_and_exit_1(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _maxplus_to(write_end, ["eigenvalue", "--help"], unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"maxplus: cannot write to stdout: Broken pipe\n"


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
