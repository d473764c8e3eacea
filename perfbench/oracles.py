"""Independent checks of the package's answers, written with plain loops.

Nothing here calls the package: each check compares an answer with a
fact known from how the input was built (analytic group orders, the
class of a constructed distance table, a golden file) or verifies a
certificate directly.  Certificates over rationals are checked on
integers, after scaling every entry by the common denominator.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction


class OracleError(Exception):
    """An answer that contradicts its oracle."""


def require(cond: bool, message: str):
    if not cond:
        raise OracleError(message)


def scaled(*grids):
    """The grids as integer grids over a common denominator."""
    den = 1
    for grid in grids:
        for row in grid:
            for x in row:
                den = math.lcm(den, x.denominator)
    return [[[int(x * den) for x in row] for row in grid] for grid in grids]


def inverse(images):
    inv = [0] * len(images)
    for i, img in enumerate(images):
        inv[img] = i
    return inv


def hclass_grid(e, images, lam):
    """Rows of ``e`` permuted by sigma and shifted by lam: lam + e[sigma^-1(i)][j]."""
    inv = inverse(images)
    return [[lam + x for x in e[inv[i]]] for i in range(len(e))]


# -- audit ------------------------------------------------------------------


def check_embedding(d, points):
    """The points reproduce d under residuation distance max_k(p_i[k] - p_j[k])."""
    n = len(d)
    require(len(points) == n, f"embed returned {len(points)} points for {n}")
    di, pi = scaled(d, points)
    for i in range(n):
        for j in range(n):
            rd = max(a - b for a, b in zip(pi[i], pi[j]))
            require(rd == di[i][j], f"embedding distance ({i},{j}) is off")


def check_audit(inp, out):
    """``classify`` flags, extremals, embedding and H-class against the construction."""
    report, extremals, points, element, inside = out
    n = len(inp.e)
    require(report.is_semimetric_matrix == inp.semimetric, "semimetric flag is wrong")
    require(report.is_metric_matrix == inp.metric, "metric flag is wrong")
    require(report.zero_diagonal == inp.zero_diagonal, "zero-diagonal flag is wrong")
    require(report.idempotent == inp.idempotent, "idempotent flag is wrong")
    if inp.semimetric:
        require(report.symmetric == inp.metric, "symmetry flag is wrong")
        for flag in ("strongly_regular", "kleene_fixed", "off_diagonal_negative", "origin_in_interior"):
            require(getattr(report, flag), f"{flag} is false for a semimetric")
    if inp.idempotent:
        # triangle inequality with positive separation: no column lies in
        # the span of the others, so every column is extremal
        require(extremals == list(range(n)), "extremal columns are wrong")
    else:
        require(extremals is None, "extremal columns accepted a non-idempotent")
    if inp.semimetric:
        check_embedding(inp.d, [list(p) for p in points])
    else:
        require(points is None, "embedded a non-semimetric")
    if inp.metric:
        grid = [list(row) for row in element.entries]
        require(grid == hclass_grid(inp.e, inp.sigma, inp.lam), "hclass element is wrong")
        require(inside is True, "hclass element is not in its own H-class")


# -- spectral ---------------------------------------------------------------


def check_spectral(inp, out):
    """Certificates for the eigenvalue, the star of A - lambda and the permanent.

    With B = A - lambda and S its star: S (x) B <= S rules out a positive
    cycle in B, a zero diagonal entry of S (x) B exhibits a cycle of mean
    exactly lambda, and S has a nonnegative diagonal.  The permanent is
    the diagonal sum of its witness and lies between sampled diagonal
    sums and the sums of row and column maxima.
    """
    lam, res, perm = out
    a = inp.a
    n = len(a)
    require(max(a[i][i] for i in range(n)) <= lam <= max(map(max, a)), "eigenvalue out of range")
    require(res.converges and res.star is not None, "star of A - lambda diverges")
    b = [[x - lam for x in row] for row in a]
    s_int, b_int = scaled([list(row) for row in res.star.entries], b)
    critical = False
    for i in range(n):
        si = s_int[i]
        require(si[i] >= 0, "star has a negative diagonal entry")
        for j in range(n):
            best = max(si[k] + b_int[k][j] for k in range(n))
            require(best <= si[j], f"star (x) B exceeds the star at ({i},{j})")
            if i == j and best == 0:
                critical = True
    require(critical, "no cycle attains the eigenvalue")

    images = list(perm.witness.images)
    require(sorted(images) == list(range(n)), "permanent witness is not a permutation")
    require(sum(a[i][images[i]] for i in range(n)) == perm.value, "witness sum differs from the permanent")
    for sample in inp.sample_perms:
        require(sum(a[i][sample[i]] for i in range(n)) <= perm.value, "a permutation beats the permanent")
    require(perm.value <= sum(map(max, a)), "permanent exceeds the row maxima")
    require(perm.value <= sum(max(col) for col in zip(*a)), "permanent exceeds the column maxima")


# -- symmetry ---------------------------------------------------------------


def check_symmetry(inp, group):
    """The analytic group order, with every element a distinct isometry."""
    d = inp.d
    n = len(d)
    elements = [tuple(p.images) for p in group.elements]
    require(len(elements) == inp.order, f"group order {len(elements)}, expected {inp.order}")
    require(len(set(elements)) == len(elements), "repeated group element")
    require(tuple(range(n)) in set(elements), "identity missing")
    for img in elements:
        require(sorted(img) == list(range(n)), "element is not a permutation")
        for i in range(n):
            di, dimg = d[i], d[img[i]]
            for j in range(n):
                require(dimg[img[j]] == di[j], "element is not an isometry")


# -- cli ----------------------------------------------------------------------


def parse_tmat(text):
    """Entries of a ``tmat 1`` document, read without the package's parser."""
    lines = text.splitlines()
    require(lines and lines[0] == "tmat 1", "missing tmat header")
    rows, cols = map(int, lines[1].split())
    grid = [[Fraction(t) for t in line.split()] for line in lines[2:]]
    require(len(grid) == rows and all(len(r) == cols for r in grid), "bad tmat shape")
    return grid


CYCLES = re.compile(r"id|(\(\d+( \d+)+\))+")


def parse_cycles(text, n):
    """Images of a 1-based cycle string such as "(1 2)(3 4 5)" or "id"."""
    require(CYCLES.fullmatch(text) is not None, f"bad cycle notation {text!r}")
    images = list(range(n))
    for cycle in re.findall(r"\(([^)]*)\)", text):
        points = [int(t) - 1 for t in cycle.split()]
        require(all(0 <= p < n for p in points), f"point out of range in {text!r}")
        for k, p in enumerate(points):
            images[p] = points[(k + 1) % len(points)]
    return tuple(images)


def check_cli(inp, code, stdout, svg):
    """Exit code 0, and the command's output against the construction."""
    require(code == 0, f"{inp.argv[0]} exited {code}")
    exp = inp.expect
    cmd = inp.argv[0]
    if cmd == "classify":
        payload = json.loads(stdout)
        for key, value in exp.items():
            require(payload.get(key) == value, f"classify --json: {key} is wrong")
    elif cmd in ("star", "hclass"):
        require(parse_tmat(stdout) == exp, f"{cmd} printed the wrong matrix")
    elif cmd == "embed":
        points = [[Fraction(t) for t in line.split()] for line in stdout.splitlines()]
        require(points == exp, "embed printed the wrong points")
    elif cmd == "eigenvalue":
        require(Fraction(stdout.strip()) == exp, "eigenvalue is wrong")
    elif cmd == "isometries":
        order, d = exp
        head, _, names = stdout.strip().partition(": ")
        require(head == f"order {order}", "isometry group order is wrong")
        elements = [parse_cycles(name, len(d)) for name in names.split(", ")]
        require(len(set(elements)) == order, "isometry list has the wrong length")
        for img in elements:
            require(all(d[img[i]][img[j]] == d[i][j] for i in range(len(d)) for j in range(len(d))),
                    "listed permutation is not an isometry")  # fmt: skip
    elif cmd == "render":
        require(svg == exp, "render differs from the golden SVG")
    else:  # extremals, interior
        require(stdout.strip() == exp, f"{cmd} printed {stdout.strip()!r}")
