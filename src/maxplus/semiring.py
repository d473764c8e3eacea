"""Exact arithmetic in the max-plus semiring and its matrix algebra.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  The
finite semiring has the reals with ``a + b := max(a, b)`` and
``a * b := a + b``; the extended semiring adds ``NEG_INF``, neutral for the
join and absorbing for the product.  ``Matrix`` holds finite entries only,
``ExtMatrix`` also admits ``NEG_INF``.  Every value is immutable and every
operation returns a fresh value, so everything here is safe to share
between threads.

Integer view.  Max-plus operations commute with positive scaling, so the
matrix kernels run on plain ints.  Every matrix has an integer view: the
grid of its entries times one positive common denominator D, with
``NEG_INF`` stored as ``None``.  D is canonical, the least common
denominator of the entries, so equal matrices have equal views, and
equality and hashing compare views.  A kernel result is reduced to its
canonical D as it is built: with D' = D / gcd(D, every numerator), each
entry is divided by D / D'.  A matrix keeps whichever of its two forms it
was built from and computes the other once, on first use, into a slot;
two threads racing on that computation store equal values.  Only this
module knows the format.  The closure and rank kernels run on
:func:`int_grid`, a finite matrix times its D, and hand their results
back through :func:`from_int_grid` and :func:`from_int`; a ``Fraction``
is made only for an answer, or for ``entries`` when a caller asks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import PreconditionError, ShapeError

__all__ = [
    "NEG_INF",
    "MinusInf",
    "Scalar",
    "ExtScalar",
    "scalar",
    "ext_scalar",
    "tadd",
    "tmul",
    "Vector",
    "ExtMatrix",
    "Matrix",
    "scale",
    "residuation",
    "projectivize",
    "mat_mul",
    "mat_vec",
]

_ZERO = Fraction(0)


class MinusInf:
    """The bottom element.  Compares below every rational; use ``NEG_INF``."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        if other is self:
            return False
        if isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __le__(self, other):
        if other is self or isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if other is self or isinstance(other, (Fraction, int)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if other is self:
            return True
        if isinstance(other, (Fraction, int)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash("maxplus.NEG_INF")


NEG_INF = MinusInf()

Scalar = Fraction
ExtScalar = Union[Fraction, MinusInf]


def scalar(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts ints, ``Fraction`` and strings in decimal ("-1.5") or ratio
    ("-3/2") notation.  Floats are rejected: they carry binary rounding
    error and every test in this package is an exact equality.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("scalar does not accept bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {value!r}") from exc
    raise TypeError(f"scalar requires int, str or Fraction, not {type(value).__name__}")


def ext_scalar(value) -> ExtScalar:
    """Like :func:`scalar` but also accepts ``NEG_INF`` / the string "-inf"."""
    if value is NEG_INF or isinstance(value, MinusInf):
        return NEG_INF
    if isinstance(value, str) and value.strip() == "-inf":
        return NEG_INF
    return scalar(value)


def tadd(a: ExtScalar, b: ExtScalar) -> ExtScalar:
    """Semiring join: max under the extended order, with NEG_INF neutral."""
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    return a if a >= b else b


def tmul(a: ExtScalar, b: ExtScalar) -> ExtScalar:
    """Semiring product: classical addition, with NEG_INF absorbing."""
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


class Vector:
    """A point of finite tropical n-space: a fixed-length tuple of rationals.

    Vectors carry the componentwise partial order through ``<=`` / ``>=``;
    incomparable pairs simply fail both tests.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable):
        vals = tuple(scalar(e) for e in entries)
        if not vals:
            raise ShapeError("a vector needs at least one entry")
        self._entries = vals

    @classmethod
    def zeros(cls, n: int) -> "Vector":
        return cls([_ZERO] * n)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, i: int) -> Fraction:
        return self._entries[i]

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return "Vector([%s])" % ", ".join(str(e) for e in self._entries)

    def _check_len(self, other: "Vector"):
        if len(self) != len(other):
            raise ShapeError(f"vector lengths differ: {len(self)} vs {len(other)}")

    def __le__(self, other: "Vector") -> bool:
        self._check_len(other)
        return all(a <= b for a, b in zip(self._entries, other._entries))

    def __ge__(self, other: "Vector") -> bool:
        self._check_len(other)
        return all(a >= b for a, b in zip(self._entries, other._entries))

    def __neg__(self) -> "Vector":
        return Vector(-e for e in self._entries)

    def oplus(self, other: "Vector") -> "Vector":
        """Componentwise max (the module addition)."""
        self._check_len(other)
        return Vector(max(a, b) for a, b in zip(self._entries, other._entries))

    def meet(self, other: "Vector") -> "Vector":
        """Componentwise min (the lattice meet, not a module operation)."""
        self._check_len(other)
        return Vector(min(a, b) for a, b in zip(self._entries, other._entries))


def scale(lam, x: Vector) -> Vector:
    """Tropical scaling: add ``lam`` to every entry of ``x``."""
    lam = scalar(lam)
    return Vector(lam + e for e in x)


def residuation(x: Vector, y: Vector) -> Fraction:
    """The residuation bracket of ``x`` against ``y``.

    Returns the largest ``lam`` with ``scale(lam, x) <= y``, which is
    ``min(y_i - x_i)`` over all coordinates.
    """
    if len(x) != len(y):
        raise ShapeError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return min(b - a for a, b in zip(x, y))


def projectivize(x: Vector) -> tuple[Fraction, ...]:
    """Coordinates of ``x`` in projective tropical space.

    Subtracts the last entry from the others, giving a point of Q^(n-1)
    that is invariant under tropical scaling.  Requires n >= 2.
    """
    if len(x) < 2:
        raise PreconditionError("projectivization needs at least two coordinates")
    last = x[len(x) - 1]
    return tuple(e - last for e in x.entries[:-1])


def _build_grid(rows, coerce):
    grid = tuple(tuple(coerce(e) for e in row) for row in rows)
    if not grid or not grid[0]:
        raise ShapeError("a matrix needs at least one row and one column")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ShapeError("matrix rows must all have the same length")
    return grid


def _canonical(num, den):
    """Reduce an integer grid over ``den`` to the least common denominator."""
    g = gcd(den, *(e for row in num for e in row if e is not None))
    if g == 1:
        return tuple(map(tuple, num)), den
    return tuple(tuple(None if e is None else e // g for e in row) for row in num), den // g


class ExtMatrix:
    """A rectangular matrix over the extended semiring (entries may be NEG_INF)."""

    # _grid: Fraction rows; _ints: the integer view (rows, D).  At least one
    # is set, and each is computed from the other once, on first use.
    __slots__ = ("_grid", "_ints")

    def __init__(self, rows: Iterable[Iterable]):
        self._grid = _build_grid(rows, ext_scalar)
        self._ints = None

    @classmethod
    def _from_ints(cls, num, den: int):
        """Wrap a rectangular grid of ints and None over ``den`` > 0."""
        self = object.__new__(cls)
        self._grid = None
        self._ints = _canonical(num, den)
        return self

    def _int_view(self):
        if self._ints is None:
            grid = self._grid
            den = lcm(*(e.denominator for row in grid for e in row if e is not NEG_INF))
            self._ints = (
                tuple(
                    tuple(None if e is NEG_INF else e.numerator * (den // e.denominator) for e in row)
                    for row in grid
                ),
                den,
            )
        return self._ints

    @classmethod
    def identity(cls, n: int) -> "ExtMatrix":
        """Zero diagonal, NEG_INF off the diagonal: the multiplicative neutral."""
        return cls([[_ZERO if i == j else NEG_INF for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExtMatrix":
        vals = [scalar(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else NEG_INF for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._grid or self._ints[0])

    @property
    def cols(self) -> int:
        return len((self._grid or self._ints[0])[0])

    @property
    def entries(self) -> tuple[tuple[ExtScalar, ...], ...]:
        if self._grid is None:
            num, den = self._ints
            self._grid = tuple(
                tuple(NEG_INF if e is None else Fraction(e, den) for e in row) for row in num
            )
        return self._grid

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij) -> ExtScalar:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExtMatrix):
            return NotImplemented
        return self._int_view() == other._int_view()

    def __hash__(self):
        return hash(self._int_view())

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"{type(self).__name__}({self.rows}x{self.cols}: {body})"

    def transpose(self):
        num, den = self._int_view()
        return type(self)._from_ints(list(zip(*num)), den)

    def oplus(self, other: "ExtMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ")
        a, b, den = _common(self, other)
        grid = [
            [x if y is None or (x is not None and x >= y) else y for x, y in zip(r1, r2)]
            for r1, r2 in zip(a, b)
        ]
        return _tightest(grid, den)

    def scale(self, lam):
        """Add ``lam`` to every finite entry."""
        lam = scalar(lam)
        num, den = self._int_view()
        common = lcm(den, lam.denominator)
        factor = common // den
        shift = lam.numerator * (common // lam.denominator)
        grid = [[None if e is None else e * factor + shift for e in row] for row in num]
        return type(self)._from_ints(grid, common)

    def __matmul__(self, other):
        if not isinstance(other, ExtMatrix):
            return NotImplemented
        return mat_mul(self, other)


class Matrix(ExtMatrix):
    """A matrix with all entries finite (the workhorse of the package)."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable]):
        self._grid = _build_grid(rows, scalar)
        self._ints = None

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i])

    def col(self, j: int) -> Vector:
        return Vector(row[j] for row in self.entries)

    def row_vectors(self) -> list[Vector]:
        return [Vector(row) for row in self.entries]

    def column_vectors(self) -> list[Vector]:
        return [Vector(col) for col in zip(*self.entries)]

    def __neg__(self) -> "Matrix":
        num, den = self._int_view()
        return Matrix._from_ints([[-e for e in row] for row in num], den)


def _tightest(num, den) -> ExtMatrix:
    """Wrap a computed integer grid as a Matrix when finite, ExtMatrix otherwise."""
    cls = ExtMatrix if any(None in row for row in num) else Matrix
    return cls._from_ints(num, den)


def _rescale(num, factor):
    if factor == 1:
        return num
    return [[None if e is None else e * factor for e in row] for row in num]


def _common(a: ExtMatrix, b: ExtMatrix):
    """The integer views of ``a`` and ``b`` over their common denominator."""
    (na, da), (nb, db) = a._int_view(), b._int_view()
    den = lcm(da, db)
    return _rescale(na, den // da), _rescale(nb, den // db), den


# Package-internal: the closure and rank kernels run on these, so that only
# this module knows the integer view.


def int_grid(a: ExtMatrix, what: str) -> tuple[tuple[int, ...], ...]:
    """The entries of ``a`` times its common denominator, as ints.

    Max, + and comparison commute with positive scaling, so a max-plus
    kernel may run on this grid and return its results through
    :func:`from_int_grid` and :func:`from_int`, given the same ``a``.
    Raises ``PreconditionError``, naming ``what``, if an entry is -inf.
    """
    num = a._int_view()[0]
    if any(None in row for row in num):
        raise PreconditionError(f"{what} requires finite entries")
    return num


def from_int_grid(a: ExtMatrix, grid) -> Matrix:
    """The finite matrix whose integer grid, on the scale of ``a``, is ``grid``."""
    return Matrix._from_ints(grid, a._int_view()[1])


def from_int(a: ExtMatrix, value: int, divisor: int = 1) -> Fraction:
    """The rational ``value / divisor``, given on the scale of ``a``."""
    return Fraction(value, divisor * a._int_view()[1])


def mat_mul(a: ExtMatrix, b: ExtMatrix) -> ExtMatrix:
    """Tropical matrix product: entry (i,j) is max over l of a[i,l] + b[l,j]."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    an, bn, den = _common(a, b)
    cols = list(zip(*bn))
    grid = [
        [
            max((x + y for x, y in zip(row, col) if x is not None and y is not None), default=None)
            for col in cols
        ]
        for row in an
    ]
    return _tightest(grid, den)


def mat_vec(a: ExtMatrix, x: Vector) -> Vector:
    """Apply ``a`` to a finite column vector; the result must stay finite."""
    if a.cols != len(x):
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to a vector of length {len(x)}")
    out = []
    for row in a.entries:
        acc = NEG_INF
        for e, v in zip(row, x):
            acc = tadd(acc, tmul(e, v))
        if acc is NEG_INF:
            raise PreconditionError("matrix row is identically -inf; result leaves finite space")
        out.append(acc)
    return Vector(out)
