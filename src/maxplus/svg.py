"""Deterministic SVG pictures of projectivized polytropes.

3x3 strongly regular idempotents render as their projectivized polygon
with generator dots and an origin cross; 2x2 idempotents render as the
band between two slope-one boundary lines in the affine plane.  All
geometry is computed exactly and formatted with a fixed rule, so the
output bytes depend only on the input matrix.
"""

from __future__ import annotations

from fractions import Fraction

from .closure import is_idempotent
from .errors import PreconditionError
from .polytope import vertices_2d
from .rank import is_strongly_regular
from .semiring import Matrix, projectivize, require_square, square_grid

__all__ = ["render_matrix"]

_SCALE = 40  # pixels per data unit
_PAD_RATIO = Fraction(1, 10)
_GRID_STEPS = 100  # at most this many grid steps span an axis, so output size is bounded

_GRID = "#dddddd"
_AXIS = "#999999"
_FILL = "#d9d9d9"
_EDGE = "#333333"


def _fmt(q) -> str:
    s = f"{float(q):.3f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


class _Canvas:
    """Maps exact data coordinates onto a padded, y-flipped pixel viewport."""

    def __init__(self, xs, ys):
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        # pad > 0: a band spans at least 2, and a strongly regular 3x3
        # polytrope has three distinct projective columns
        pad = max(xmax - xmin, ymax - ymin) * _PAD_RATIO
        self.xmin, self.xmax = xmin - pad, xmax + pad
        self.ymin, self.ymax = ymin - pad, ymax + pad
        self.width = (self.xmax - self.xmin) * _SCALE
        self.height = (self.ymax - self.ymin) * _SCALE
        self.parts: list[str] = []

    def px(self, x) -> Fraction:
        return (x - self.xmin) * _SCALE

    def py(self, y) -> Fraction:
        return (self.ymax - y) * _SCALE

    def segment(self, x1, y1, x2, y2, color, width):
        """A ``<line>`` between two points given in pixels."""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def line(self, p, q, color, width):
        self.segment(self.px(p[0]), self.py(p[1]), self.px(q[0]), self.py(q[1]), color, width)

    def polygon(self, points):
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in points)
        self.parts.append(
            f'<polygon points="{coords}" fill="{_FILL}" stroke="{_EDGE}" stroke-width="2"/>'
        )

    def dot(self, p):
        self.parts.append(
            f'<circle cx="{_fmt(self.px(p[0]))}" cy="{_fmt(self.py(p[1]))}" r="4" fill="#000000"/>'
        )

    def cross(self, p):
        cx, cy = self.px(p[0]), self.py(p[1])
        arm = 5
        for dx, dy in ((1, 1), (1, -1)):
            self.segment(cx - arm * dx, cy - arm * dy, cx + arm * dx, cy + arm * dy, "#000000", 2)

    def grid(self):
        # one line per data unit, or per whole number of units on wide canvases
        span = max(self.xmax - self.xmin, self.ymax - self.ymin)
        step = max(1, -(-span // _GRID_STEPS))  # ceil
        x = -((-self.xmin) // step) * step  # the first multiple of step from xmin
        while x <= self.xmax:
            color = _AXIS if x == 0 else _GRID
            self.line((x, self.ymin), (x, self.ymax), color, 1)
            x += step
        y = -((-self.ymin) // step) * step
        while y <= self.ymax:
            color = _AXIS if y == 0 else _GRID
            self.line((self.xmin, y), (self.xmax, y), color, 1)
            y += step

    def emit(self, comment: str) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
            f"<!-- maxplus render v1: {comment} -->\n"
            f'<rect width="{_fmt(self.width)}" height="{_fmt(self.height)}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.parts) + "\n</svg>\n"


def _render_band(e: Matrix) -> str:
    # the fixed-point band k <= x - y <= -l describes the column space only
    # for zero-diagonal idempotents
    if any(row[i] != 0 for i, row in enumerate(square_grid(e)[0])) or not is_idempotent(e):
        raise PreconditionError("render requires a zero-diagonal idempotent")
    k, l = e[0, 1], e[1, 0]
    one = Fraction(1)
    lo = min(Fraction(0), k, l) - one
    hi = max(Fraction(0), k, l) + one
    # both edges x - y = c, c in {k, -l}, cross [lo, hi]^2 from its bottom or
    # left side to its top or right side
    (a, b), (c, d) = [
        ((lo + max(t, 0), lo - min(t, 0)), (hi + min(t, 0), hi - max(t, 0))) for t in (k, -l)
    ]
    # idempotency gives k <= -l; the band is a quadrilateral below the
    # diagonal (k > 0), above it (l > 0), and otherwise a hexagon through the
    # square's corners (lo, lo) and (hi, hi)
    if k > 0:
        band = [a, c, d, b]
    elif l > 0:
        band = [d, b, a, c]
    else:
        band = [(lo, lo), c, d, (hi, hi), b, a]
    canvas = _Canvas([lo, hi], [lo, hi])
    canvas.grid()
    canvas.polygon(band)
    canvas.line(a, b, _EDGE, 2)
    canvas.line(c, d, _EDGE, 2)
    canvas.dot((k, Fraction(0)))
    canvas.dot((Fraction(0), l))
    return canvas.emit("band")


def _render_polytrope(e: Matrix) -> str:
    # render_matrix has checked that e is a strongly regular idempotent, so
    # its columns are all extremal (Develin, Santos & Sturmfels 2005)
    verts = vertices_2d(e)
    dots = [projectivize(c) for c in e.column_vectors()]
    origin = (Fraction(0), Fraction(0))
    xs = [p[0] for p in verts] + [origin[0]]
    ys = [p[1] for p in verts] + [origin[1]]
    canvas = _Canvas(xs, ys)
    canvas.grid()
    canvas.polygon(verts)
    for p in dots:
        canvas.dot(p)
    canvas.cross(origin)
    return canvas.emit("polytrope")


def render_matrix(e: Matrix) -> str:
    """SVG text for a 2x2 idempotent band or a 3x3 polytrope."""
    require_square(e)
    if e.rows > 3:
        raise PreconditionError("render supports n <= 3")
    if e.rows == 1:
        raise PreconditionError("render needs a 2x2 or 3x3 matrix")
    if e.rows == 2:
        return _render_band(e)
    if not is_idempotent(e) or not is_strongly_regular(e):
        raise PreconditionError("render requires a strongly regular idempotent")
    return _render_polytrope(e)
