"""Text format for matrices and the small parsers used by the command line.

A matrix file is::

    tmat 1
    <rows> <cols>
    <row of whitespace-separated entries>
    ...

Entries are decimals ("-1.5"), ratios ("-3/2") or integers.  Every entry
is finite: "-inf", like "inf" and "nan", is a bad entry, because the
package's one matrix type is finitary.  Serialization is canonical
(lowest-terms ratios, integers without a denominator), so parsing a
serialized matrix reproduces it byte for byte.

Parsing cost is bounded: a file may have at most ``MAX_DIM`` rows and
columns, and each entry's numerator and denominator at most
``MAX_ENTRY_BITS`` bits.  The caps bound each entry, not the common
denominator D that the kernels work over: coprime denominators multiply,
so D can reach about n^2 * 128 bits, and every kernel step costs time in
the bits of D.  A cap on D is an open item (ROADMAP item 3).  The same
caps hold for the scalars and points given on the command line
(:func:`parse_scalar`, :func:`parse_point`).

:func:`load_matrix` reads at most ``MAX_BYTES`` bytes of a file, so a
huge or endless file (``/dev/zero``) is refused without being read.  The
cap follows from the others.  An entry's numerator and denominator have
at most 39 digits each (2^128 < 10^39), so a ratio takes at most 80
characters.  A decimal can be longer: p/2^127 with |p| < 2^128 has 128
significant digits, so with a sign and a point it takes 130 characters,
the most any entry within the caps needs without padding.  The largest
file the caps allow, 128 rows of 128 such entries with one separator
each, thus has 16,384 * 131 + 15 = 2,146,319 bytes.  ``MAX_BYTES`` is
8 MiB, which leaves almost four times that for non-canonical formatting
such as leading zeros, trailing zeros and wide spacing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MatrixParseError
from .permutation import Permutation
from .semiring import Matrix, Vector

__all__ = [
    "HEADER",
    "MAX_DIM",
    "MAX_ENTRY_BITS",
    "MAX_BYTES",
    "parse_matrix",
    "serialize_matrix",
    "load_matrix",
    "format_scalar",
    "format_vector",
    "parse_scalar",
    "parse_point",
    "parse_permutation",
]

HEADER = "tmat 1"
MAX_DIM = 128
MAX_ENTRY_BITS = 128
MAX_BYTES = 8 << 20


def format_scalar(x, decimal: bool = False) -> str:
    """Canonical rendering: "p/q" or "p"; float rendering behind ``decimal``."""
    if decimal and x.denominator != 1:
        return repr(float(x))
    return str(x)


def format_vector(x: Vector, decimal: bool = False) -> str:
    return " ".join(format_scalar(e, decimal) for e in x)


def parse_scalar(token: str, line=None, what: str = "value") -> Fraction:
    """One exact rational: a decimal ("-1.5"), a ratio ("-3/2") or an integer.

    Its numerator and denominator may have at most MAX_ENTRY_BITS bits.
    Raises ``MatrixParseError``, naming ``what`` and carrying ``line``.
    """
    token = token.strip()
    # Fraction builds 10**exponent first, so a huge exponent is refused unparsed
    _, e, exponent = token.lower().partition("e")
    try:
        huge = bool(e) and abs(int(exponent)) > MAX_ENTRY_BITS
    except ValueError:
        huge = False  # not an integer exponent; Fraction rejects the token below
    if not huge:
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise MatrixParseError(f"bad {what} {token!r}", line) from None
        huge = max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_ENTRY_BITS
    if huge:
        raise MatrixParseError(f"{what} {token[:20]!r} exceeds {MAX_ENTRY_BITS} bits", line)
    return value


def parse_matrix(text: str) -> Matrix:
    """Parse matrix text into a ``Matrix``.

    Raises ``MatrixParseError`` carrying the offending 1-based line number.
    """
    raw = text.splitlines()
    lines = [(i + 1, line.strip()) for i, line in enumerate(raw)]
    while lines and not lines[-1][1]:
        lines.pop()
    if not lines:
        raise MatrixParseError("empty input", 1)
    lineno, header = lines[0]
    if header != HEADER:
        raise MatrixParseError(f'expected header "{HEADER}", got {header!r}', lineno)
    if len(lines) < 2:
        raise MatrixParseError("missing dimensions line", lineno + 1)
    lineno, dims = lines[1]
    parts = dims.split()
    # isdigit would pass "²", which int() refuses; int() takes every decimal digit
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise MatrixParseError(f"bad dimensions line {dims!r}", lineno)
    # a number with more digits than MAX_DIM exceeds it; int() refuses very long digit strings
    n, m = [int(p) if len(p.lstrip("0")) <= len(str(MAX_DIM)) else MAX_DIM + 1 for p in parts]
    if n < 1 or m < 1:
        raise MatrixParseError("dimensions must be positive", lineno)
    if n > MAX_DIM or m > MAX_DIM:
        raise MatrixParseError(f"dimensions exceed {MAX_DIM}", lineno)
    body = lines[2:]
    if len(body) != n:
        raise MatrixParseError(
            f"expected {n} rows, found {len(body)}", body[-1][0] if body else lineno
        )
    grid = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != m:
            raise MatrixParseError(f"expected {m} entries, found {len(tokens)}", lineno)
        grid.append([parse_scalar(t, lineno, "entry") for t in tokens])
    return Matrix(grid)


def serialize_matrix(mat: Matrix, decimal: bool = False) -> str:
    lines = [HEADER, f"{mat.rows} {mat.cols}"]
    for row in mat.entries:
        lines.append(" ".join(format_scalar(e, decimal) for e in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> Matrix:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_BYTES + 1)
        if len(data) > MAX_BYTES:
            raise MatrixParseError(f"cannot read {path}: more than {MAX_BYTES} bytes")
        text = data.decode("utf-8")
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"cannot read {path}: not UTF-8 text") from exc
    return parse_matrix(text)


def parse_point(text: str) -> Vector:
    """Comma-separated rationals, e.g. "0,-3/2,1.5"; at most MAX_DIM of them."""
    tokens = [t.strip() for t in text.split(",")]
    if any(not t for t in tokens):
        raise MatrixParseError(f"bad point {text!r}")
    if len(tokens) > MAX_DIM:
        raise MatrixParseError(f"point has more than {MAX_DIM} coordinates")
    return Vector(parse_scalar(t, what="point coordinate") for t in tokens)


def parse_permutation(text: str) -> Permutation:
    """One-line image list, 1-based, e.g. "1 3 2"."""
    tokens = text.split()
    if not all(t.isdigit() for t in tokens):
        raise MatrixParseError(f"bad permutation {text!r}")
    try:
        return Permutation(int(t) - 1 for t in tokens)
    except ValueError:
        raise MatrixParseError(f"bad permutation {text!r}") from None
