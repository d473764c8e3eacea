import random
from fractions import Fraction

import pytest

from maxplus import Matrix, MatrixParseError, Permutation, Vector, matio
from maxplus.matio import (
    MAX_BYTES,
    MAX_DIM,
    MAX_ENTRY_BITS,
    format_scalar,
    load_matrix,
    parse_matrix,
    parse_permutation,
    parse_point,
    parse_scalar,
    serialize_matrix,
)

from helpers import GOLDEN_IDEMPOTENTS, rand_matrix


def test_round_trip_golden():
    for mat in GOLDEN_IDEMPOTENTS:
        text = serialize_matrix(mat)
        again = parse_matrix(text)
        assert again == mat
        assert serialize_matrix(again) == text


def test_round_trip_random():
    rng = random.Random(81)
    for _ in range(25):
        mat = rand_matrix(rng, rng.randint(1, 5))
        assert parse_matrix(serialize_matrix(mat)) == mat


def test_parse_decimal_and_ratio_entries():
    mat = parse_matrix("tmat 1\n2 2\n0 -1.5\n-3/2 2\n")
    assert mat[0, 1] == Fraction(-3, 2)
    assert mat[1, 0] == Fraction(-3, 2)
    # canonical serialization prefers lowest-terms ratios
    assert "-3/2" in serialize_matrix(mat)
    assert "-1.5" not in serialize_matrix(mat)


def test_parse_extended():
    # there is no extended mode: "-inf" is a bad entry, like "inf" and "nan"
    for token in ("-inf", "inf", "nan"):
        with pytest.raises(MatrixParseError, match=f"^line 4: bad entry '{token}'$") as err:
            parse_matrix(f"tmat 1\n2 2\n0 5\n-2 {token}\n")
        assert err.value.line == 4
    with pytest.raises(TypeError):
        parse_matrix("tmat 1\n1 1\n0\n", extended=True)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MatrixParseError) as err:
        parse_matrix("tmat 2\n1 1\n0\n")
    assert err.value.line == 1

    with pytest.raises(MatrixParseError) as err:
        parse_matrix("tmat 1\n2\n0\n")
    assert err.value.line == 2

    with pytest.raises(MatrixParseError) as err:
        parse_matrix("tmat 1\n2 2\n0 0\n0\n")
    assert err.value.line == 4

    with pytest.raises(MatrixParseError) as err:
        parse_matrix("tmat 1\n1 1\nfish\n")
    assert err.value.line == 3

    with pytest.raises(MatrixParseError):
        parse_matrix("")

    with pytest.raises(MatrixParseError):
        parse_matrix("tmat 1\n2 2\n0 0\n")  # missing a row

    with pytest.raises(MatrixParseError, match="^line 2: missing dimensions line$"):
        parse_matrix("tmat 1\n")

    # "e1.5" is no integer exponent, so Fraction judges the whole token
    with pytest.raises(MatrixParseError, match="^line 3: bad entry '1e1.5'$"):
        parse_matrix("tmat 1\n1 1\n1e1.5\n")


def test_parse_ignores_trailing_blank_lines():
    assert parse_matrix("tmat 1\n1 2\n5 -1/2\n\n  \n\n") == Matrix([[5, "-1/2"]])


def test_parse_caps_dimensions():
    for dims in (f"{MAX_DIM + 1} 1", f"1 {MAX_DIM + 1}"):
        with pytest.raises(MatrixParseError, match="exceed") as err:
            parse_matrix(f"tmat 1\n{dims}\n")
        assert err.value.line == 2
    wide = parse_matrix(f"tmat 1\n1 {MAX_DIM}\n" + " ".join(["0"] * MAX_DIM) + "\n")
    assert wide.cols == MAX_DIM


def test_parse_dimension_tokens_int_refuses():
    # "²" passes str.isdigit, and int() refuses digit strings past its limit
    for dims, message in (("² 1", "bad dimensions"), ("9" * 5000 + " 1", "exceed"), ("1 " + "9" * 5000, "exceed")):
        with pytest.raises(MatrixParseError, match=message) as err:
            parse_matrix(f"tmat 1\n{dims}\n0\n")
        assert err.value.line == 2
    with pytest.raises(MatrixParseError, match="positive"):
        parse_matrix("tmat 1\n0 99999\n")
    assert parse_matrix("tmat 1\n0001 002\n0 0\n").cols == 2


def test_parse_caps_entry_bits():
    big = 2**MAX_ENTRY_BITS
    for token in ("1e100000", "1e1_000_000_000", "-1e-100000", str(big), f"1/{big}"):
        with pytest.raises(MatrixParseError, match="bits") as err:
            parse_matrix(f"tmat 1\n2 1\n0\n{token}\n")
        assert err.value.line == 4
    edge = parse_matrix(f"tmat 1\n1 2\n{big - 1} -1/{big - 1}\n")
    assert edge[0, 0] == big - 1 and edge[0, 1] == Fraction(-1, big - 1)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(MatrixParseError, match="cannot read"):
        load_matrix(tmp_path / "nope.tmat")
    target = tmp_path / "ok.tmat"
    target.write_text(serialize_matrix(Matrix([[0]])))
    assert load_matrix(target) == Matrix([[0]])


def test_load_matrix_non_utf8_file(tmp_path):
    bad = tmp_path / "bytes.tmat"
    bad.write_bytes(b"tmat 1\n1 1\n\xff\n")
    with pytest.raises(MatrixParseError, match="not UTF-8 text"):
        load_matrix(bad)


def test_load_matrix_reads_at_most_the_byte_cap(tmp_path, monkeypatch):
    target = tmp_path / "ok.tmat"
    target.write_text("tmat 1\n1 1\n0\n")
    size = target.stat().st_size
    monkeypatch.setattr(matio, "MAX_BYTES", size)
    assert load_matrix(target) == Matrix([[0]])
    monkeypatch.setattr(matio, "MAX_BYTES", size - 1)
    with pytest.raises(MatrixParseError, match=f"more than {size - 1} bytes"):
        load_matrix(target)
    # the longest entry within the caps, unpadded: p/2^127 written as a decimal
    digits = str((2**128 - 1) * 5**127)
    longest = f"-{digits[:-127]}.{digits[-127:]}"
    assert len(longest) == 130 and parse_scalar(longest) == Fraction(1 - 2**128, 2**127)
    assert 3 * (MAX_DIM**2 * (len(longest) + 1) + len(f"tmat 1\n{MAX_DIM} {MAX_DIM}\n")) < MAX_BYTES


def test_format_scalar():
    assert format_scalar(Fraction(-3, 2)) == "-3/2"
    assert format_scalar(Fraction(4)) == "4"
    assert format_scalar(Fraction(-3, 2), decimal=True) == "-1.5"
    assert format_scalar(Fraction(4), decimal=True) == "4"


def test_parse_point():
    assert parse_point("0,-3/2,1.5") == Vector([0, "-3/2", "3/2"])
    with pytest.raises(MatrixParseError):
        parse_point("1,,2")
    with pytest.raises(MatrixParseError):
        parse_point("a,b")


def test_parse_scalar_shares_the_entry_caps():
    assert parse_scalar(" -3/2 ") == Fraction(-3, 2)
    assert parse_scalar("1.5e2") == 150
    big = 2**MAX_ENTRY_BITS
    for token in ("abc", "1/0", "-inf", ""):
        with pytest.raises(MatrixParseError, match="bad lambda"):
            parse_scalar(token, what="lambda")
    for token in ("1e3000000", "1e-200", str(big), f"1/{big}"):
        with pytest.raises(MatrixParseError, match="bits"):
            parse_scalar(token)
    assert parse_scalar(str(big - 1)) == big - 1


def test_parse_point_caps():
    for token in ("1e3000000", str(2**MAX_ENTRY_BITS), "1/0"):
        with pytest.raises(MatrixParseError, match="point"):
            parse_point(f"0,{token}")
    with pytest.raises(MatrixParseError, match="coordinates"):
        parse_point(",".join(["0"] * (MAX_DIM + 1)))
    assert len(parse_point(",".join(["0"] * MAX_DIM))) == MAX_DIM


def test_parse_permutation():
    assert parse_permutation("1 3 2") == Permutation([0, 2, 1])
    with pytest.raises(MatrixParseError):
        parse_permutation("1 1 2")
    with pytest.raises(MatrixParseError):
        parse_permutation("0 1")
    with pytest.raises(MatrixParseError):
        parse_permutation("x y")
