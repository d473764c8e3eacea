"""Exact arithmetic in the max-plus semiring and its matrix algebra.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  The
semiring has the rationals with ``a + b := max(a, b)`` and
``a * b := a + b``; it is finitary, with no -inf.  ``Vector`` and
``Matrix`` are its one vector and one matrix type.  The units of the
extended monoid, monomial matrices, are held as their factors (see
``groups.UnitDecomposition``), not as matrices.  Every value is immutable
and every operation returns a fresh value, so everything here is safe to
share between threads.

Integer view.  Max-plus operations commute with positive scaling, so the
kernels run on plain ints.  Every matrix and every vector has an integer
view: its entries times one positive common denominator D.  A value
built from ``Fraction``s gets the least such D.  A kernel result keeps
the D it was computed over, which divides the lcm of the denominators of
its inputs but need not be least: reducing it would take a gcd over
every entry, which dominated the cost when many large denominators are
coprime.  So equal values may have views
over different Ds.  Equality compares views directly when the two Ds are
equal, which covers ``a @ a == a``, a star against its input and a
transpose, and otherwise by cross-multiplication, x * D_b == y * D_a.
Values of different classes are never equal.  Hashing goes through
``entries``, whose ``Fraction``s are in lowest terms.

One storage core.  ``Vector``, ``Matrix`` and ``metric.DistanceTable``
share one package-internal base class, which holds a value as rows: a
vector is one row.  It keeps whichever of its two forms, ``Fraction``
rows or the view (int rows, D), the value was built from and computes
the other once, on first use, into a slot; two threads racing on that
computation store equal values.  The base class also owns construction,
equality, hashing, negation and scaling; ``Vector`` keeps no storage
code of its own, so the subclasses add only what depends on their
shape.  The rows and columns of a matrix are vectors built from its
view, and ``scale``, ``residuation``, ``mat_vec`` and the vector order
and lattice operations run on views.

Only this module knows the format, and it offers one bridge to it.
:func:`int_grids` gives the grids of matrices (or tables), and
:func:`int_vectors` the rows of any values, a vector being one row, in
one list; both return ints over one common D, as ``(ints, D)``, and a
single value keeps its own view.  So a span test reads the columns of a
matrix as the rows of its transpose, with no ``Vector`` built.
:func:`square_grid` is the ``(grid, D)`` of a square matrix, and
:func:`ray_key` keys an int vector by its scaling class.  A kernel hands
its results back as ``Matrix._from_ints(grid, D)``,
``Vector._from_ints(ints, D)`` or ``Fraction(v, D)``.  A table and a
matrix of the same rows convert into each other in O(1) by sharing both
forms, so tables reach the same kernels.  A ``Fraction`` is made only
for an answer, or for ``entries`` when a caller asks.

Tuples here are built from lists, not from generators.  CPython builds a
tuple from a generator by resizing it, and a resized tuple, once freed,
joins the free list of its final size, where it stays until a full
collection.  The int kernels allocate few tracked objects, so full
collections are rare, and those free lists held about a megabyte.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Iterable, Sequence

from .errors import PreconditionError, ShapeError

__all__ = [
    "Scalar",
    "scalar",
    "Vector",
    "Matrix",
    "scale",
    "residuation",
    "projectivize",
    "mat_mul",
    "mat_vec",
]


Scalar = Fraction


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


def _int_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer view of equal-length rows of ``Fraction``s: (int rows, least D).

    Each entry is read once, as its (numerator, denominator) pair, into rows.
    D is the lcm of the distinct denominators, taken as a pairwise product
    tree: its operands stay balanced, where a running lcm multiplies one
    large operand by each small one in turn.  Each int is then p * (D // q),
    with D // q taken per entry.
    """
    ratios = [[e.as_integer_ratio() for e in row] for row in rows]
    dens = list({q for row in ratios for _, q in row})
    while len(dens) > 1:
        dens = [lcm(*dens[k : k + 2]) for k in range(0, len(dens), 2)]
    den = dens[0]
    return tuple([tuple([p * (den // q) for p, q in row]) for row in ratios]), den


def _of_ints(cls, num, den: int):
    """Wrap a rectangular grid of ints over ``den`` > 0 as a ``cls`` value."""
    self = object.__new__(cls)
    self._fracs = None
    self._ints = tuple([tuple(row) for row in num]), den
    return self


class _Exact:
    """Package-internal: equal-length rows of exact rationals, in two forms.

    The base of ``Vector`` (one row), ``Matrix`` and ``metric.DistanceTable``.
    It owns the storage, the integer view, equality, hashing, negation and
    scaling; the subclasses add only what depends on their shape.  Values
    of different classes never compare equal.
    """

    # _fracs: Fraction rows; _ints: the integer view (int rows, D).  At least
    # one is set, and each is computed from the other once, on first use.
    __slots__ = ("_fracs", "_ints")
    _empty = "a matrix needs at least one row and one column"  # the message for no entries

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple([tuple([scalar(e) for e in row]) for row in rows])
        if not grid or not grid[0]:
            raise ShapeError(self._empty)
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ShapeError("matrix rows must all have the same length")
        self._fracs = grid
        self._ints = None

    _from_ints = classmethod(_of_ints)

    def _int_view(self):
        if self._ints is None:
            self._ints = _int_rows(self._fracs)
        return self._ints

    def _any_rows(self):
        """The rows of whichever form is set, for their shape."""
        return self._fracs or self._ints[0]

    def _as(self, cls):
        """The same rows as a ``cls`` value, sharing both forms: O(1)."""
        other = object.__new__(cls)
        other._fracs, other._ints = self._fracs, self._ints
        return other

    def _fraction_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._fracs is None:
            num, den = self._ints
            self._fracs = tuple([tuple([Fraction(e, den) for e in row]) for row in num])
        return self._fracs

    entries = property(_fraction_rows)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        (a, da), (b, db) = self._int_view(), other._int_view()
        if da == db:
            return a == b
        # equal values over different Ds: compare by cross-multiplication
        return (
            len(a) == len(b)
            and len(a[0]) == len(b[0])
            and all(x * db == y * da for r, s in zip(a, b) for x, y in zip(r, s))
        )

    def __hash__(self):
        return hash(self.entries)

    def __neg__(self):
        num, den = self._int_view()
        return _of_ints(type(self), [[-e for e in row] for row in num], den)

    def _scaled(self, lam):
        """Add ``lam`` to every entry."""
        num, den = self._int_view()
        factor, shift, common = _shift(den, scalar(lam))
        return _of_ints(type(self), [[e * factor + shift for e in row] for row in num], common)


class Vector(_Exact):
    """A point of finite tropical n-space: a fixed-length tuple of rationals.

    Vectors carry the componentwise partial order through ``<=`` / ``>=``;
    incomparable pairs simply fail both tests.
    """

    __slots__ = ()
    _empty = "a vector needs at least one entry"

    def __init__(self, entries: Iterable):
        super().__init__([entries])

    @classmethod
    def _from_ints(cls, ints, den: int) -> "Vector":
        """Wrap a non-empty sequence of ints over ``den`` > 0."""
        return _of_ints(cls, [ints], den)

    @classmethod
    def zeros(cls, n: int) -> "Vector":
        if n < 1:
            raise ShapeError(cls._empty)
        return cls._from_ints((0,) * n, 1)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._fraction_rows()[0]

    def __len__(self):
        return len(self._any_rows()[0])

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __repr__(self):
        return "Vector([%s])" % ", ".join(str(e) for e in self.entries)

    def __le__(self, other: "Vector") -> bool:
        (a, b), _ = int_vectors((self, other))
        return all(x <= y for x, y in zip(a, b))

    def __ge__(self, other: "Vector") -> bool:
        (a, b), _ = int_vectors((self, other))
        return all(x >= y for x, y in zip(a, b))

    def oplus(self, other: "Vector") -> "Vector":
        """Componentwise max (the module addition)."""
        (a, b), den = int_vectors((self, other))
        return Vector._from_ints(list(map(max, a, b)), den)

    def meet(self, other: "Vector") -> "Vector":
        """Componentwise min (the lattice meet, not a module operation)."""
        (a, b), den = int_vectors((self, other))
        return Vector._from_ints(list(map(min, a, b)), den)


def int_vectors(values: Sequence[_Exact]) -> tuple[list[tuple[int, ...]], int]:
    """The rows of ``values`` times one common denominator D; a vector is one row.

    Returns the int rows, in order, and D.  Package-internal, like
    :func:`int_grids`.  Raises ``ShapeError`` if the row lengths differ.
    """
    views = [a._int_view() for a in values]
    n = len(views[0][0][0])
    for num, _ in views:
        if len(num[0]) != n:
            raise ShapeError(f"vector lengths differ: {n} vs {len(num[0])}")
    den = lcm(*[d for _, d in views])
    return [row for num, d in views for row in _rescale(num, den // d)], den


def _shift(den: int, lam: Fraction):
    """(factor, shift, common) with x / den + lam == (x * factor + shift) / common."""
    common = lcm(den, lam.denominator)
    return common // den, lam.numerator * (common // lam.denominator), common


def scale(lam, x: Vector) -> Vector:
    """Tropical scaling: add ``lam`` to every entry of ``x``."""
    return x._scaled(lam)


def residuation(x: Vector, y: Vector) -> Fraction:
    """The residuation bracket of ``x`` against ``y``.

    Returns the largest ``lam`` with ``scale(lam, x) <= y``, which is
    ``min(y_i - x_i)`` over all coordinates.
    """
    (a, b), den = int_vectors((x, y))
    return Fraction(min(map(sub, b, a)), den)


def projectivize(x: Vector) -> tuple[Fraction, ...]:
    """Coordinates of ``x`` in projective tropical space.

    Subtracts the last entry from the others, giving a point of Q^(n-1)
    that is invariant under tropical scaling.  Requires n >= 2.
    """
    if len(x) < 2:
        raise PreconditionError("projectivization needs at least two coordinates")
    (ints,), den = x._int_view()
    last = ints[-1]
    return tuple([Fraction(e - last, den) for e in ints[:-1]])


class Matrix(_Exact):
    """A rectangular matrix of exact rationals (the workhorse of the package)."""

    __slots__ = ()

    @property
    def rows(self) -> int:
        return len(self._any_rows())

    @property
    def cols(self) -> int:
        return len(self._any_rows()[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "Matrix":
        num, den = self._int_view()
        return Matrix._from_ints(list(zip(*num)), den)

    def oplus(self, other: "Matrix") -> "Matrix":
        """Entrywise max (the semiring addition)."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ")
        (a, b), den = int_grids(self, other)
        return Matrix._from_ints([list(map(max, r1, r2)) for r1, r2 in zip(a, b)], den)

    scale = _Exact._scaled

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return mat_mul(self, other)

    def row(self, i: int) -> Vector:
        num, den = self._int_view()
        return Vector._from_ints(num[i], den)

    def col(self, j: int) -> Vector:
        num, den = self._int_view()
        return Vector._from_ints([row[j] for row in num], den)

    def row_vectors(self) -> list[Vector]:
        num, den = self._int_view()
        return [Vector._from_ints(row, den) for row in num]

    def column_vectors(self) -> list[Vector]:
        num, den = self._int_view()
        return [Vector._from_ints(col, den) for col in zip(*num)]


def _rescale(num, factor):
    if factor == 1:
        return num
    return [tuple([e * factor for e in row]) for row in num]


# Package-internal: the kernels of the other modules run on these, so that
# only this module knows the integer view.


def int_grids(*matrices: _Exact) -> tuple[list, int]:
    """The entries of ``matrices`` (or distance tables) times one common denominator D, as ints.

    Returns the grids and D; a single value keeps its own view, with no
    rescale.  Max, + and comparison commute with positive scaling, so a
    max-plus kernel may run on these grids.
    """
    views = [a._int_view() for a in matrices]
    den = lcm(*[d for _, d in views])
    return [_rescale(num, den // d) for num, d in views], den


def require_square(a: Matrix):
    if not a.is_square:
        raise ShapeError(f"square matrix required, got {a.rows}x{a.cols}")


def square_grid(a: Matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer view (grid, D) of a square matrix."""
    require_square(a)
    return a._int_view()


def ray_key(ints: Sequence[int]) -> tuple[int, ...]:
    """An int vector keyed by its differences to its first entry.

    Two vectors share a key exactly when they differ by a scalar, so keys
    are comparable only between vectors over one denominator.
    """
    return tuple([x - ints[0] for x in ints])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Tropical matrix product: entry (i,j) is max over l of a[i,l] + b[l,j]."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    (an, bn), den = int_grids(a, b)
    cols = list(zip(*bn))
    return Matrix._from_ints([[max(map(add, row, col)) for col in cols] for row in an], den)


def mat_vec(a: Matrix, x: Vector) -> Vector:
    """Apply ``a`` to a column vector.

    The product of ``a`` and ``x`` as a one-column matrix, by :func:`mat_mul`,
    over the lcm of their denominators.
    """
    if a.cols != len(x):
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to a vector of length {len(x)}")
    return mat_mul(a, x._as(Matrix).transpose()).transpose()._as(Vector)
