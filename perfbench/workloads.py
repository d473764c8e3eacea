"""The four workloads: seeded inputs, the timed operation, and its oracle.

Each workload runs in rounds.  A round is a fixed schedule of input
classes and sizes; the seed draws the entries, labellings and scalings.
Fixing the schedule keeps the latency mix, and so the percentiles, the
same from seed to seed, while no input repeats within a run.  Inputs are
built with plain ``fractions`` arithmetic, so their known properties do
not depend on the code under test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from oracles import check_audit, check_cli, check_spectral, check_symmetry, hclass_grid


def rational(rng, lo, hi) -> Fraction:
    """A rational in [lo, hi] with denominator 1, 2 or 3."""
    q = rng.choice((1, 2, 3))
    return Fraction(rng.randint(lo * q, hi * q), q)


def neg(grid):
    return [[-x for x in row] for row in grid]


def band_table(rng, n, symmetric):
    """Off-diagonal distances in [6, 12]: the triangle inequality holds.

    An asymmetric table is made asymmetric at (0, 1) for certain.
    """
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (not symmetric or i < j):
                d[i][j] = rational(rng, 6, 12)
                if symmetric:
                    d[j][i] = d[i][j]
    if not symmetric and d[1][0] == d[0][1]:
        d[1][0] = Fraction(7) if d[0][1] == 6 else Fraction(6)
    return d


def star_table(rng, n, symmetric):
    """Distances along a star: a hub (point 0) and leaves 1..n-1.

    Leaf i is at a[i] from the hub and the hub at b[i] from it; leaf to
    leaf goes through the hub.  Leaves 1 and 2 get equal weights, so
    swapping them is an isometry; an asymmetric star has b[1] != a[1].
    """
    a = [Fraction(0)] + [rational(rng, 1, 6) for _ in range(n - 1)]
    a[2] = a[1]
    b = list(a) if symmetric else [Fraction(0)] + [rational(rng, 1, 6) for _ in range(n - 1)]
    if not symmetric:
        b[2] = b[1] = a[1] + 1
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        d[i][0], d[0][i] = a[i], b[i]
        for j in range(1, n):
            if i != j:
                d[i][j] = a[i] + b[j]
    return d


def relabel(rng, grid, scale):
    """``grid`` with its points renamed by a random permutation and scaled."""
    n = len(grid)
    p = list(range(n))
    rng.shuffle(p)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = scale * grid[i][j]
    return out, p


def uniform_metric(n):
    return [[int(i != j) for j in range(n)] for i in range(n)]


def cycle_metric(n):
    return [[min((i - j) % n, (j - i) % n) for j in range(n)] for i in range(n)]


def cube_metric(k):
    return [[bin(i ^ j).count("1") for j in range(2**k)] for i in range(2**k)]


def petersen_metric():
    pairs = list(itertools.combinations(range(5), 2))
    return [[0 if a == b else 2 - (not set(a) & set(b)) for b in pairs] for a in pairs]


def distinct_metric(rng, n):
    """A metric with pairwise distinct distances in [48, 96]: only the identity preserves it."""
    m = n * (n - 1) // 2
    values = [Fraction(6 * 48 + k, 6) for k in rng.sample(range(6 * 48 + 1), m)]
    d = [[Fraction(0)] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = next(it)
    return d


def kernel_seconds() -> float:
    """Time a fixed loop of stdlib exact arithmetic: a probe of CPU speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, 7) * Fraction(3, i)
    return time.perf_counter() - t0


class Workload:
    name = ""
    # (class, size) pairs of one round, and of the small warm-up round
    schedule: tuple = ()
    warmup: tuple = ()
    # On a shared VM the CPU speed can drift by a third or more within seconds.
    # Each operation is timed between two runs of a speed probe that does
    # not touch the package, and its latency is scaled by probe_ref_s over
    # the probe's mean time: it is reported at the speed where the probe
    # takes probe_ref_s.
    probe_ref_s = 0.0025

    def probe(self) -> float:
        return kernel_seconds()

    def __init__(self, api, root: Path):
        self.api = api
        self.root = root

    def make_round(self, rng, schedule, tag):
        return [self.make_input(rng, kind, n, tag, k) for k, (kind, n) in enumerate(schedule)]

    def make_input(self, rng, kind, n, tag, k):
        raise NotImplementedError

    def run(self, inp):
        """The timed operation: calls into the package only."""
        raise NotImplementedError

    def check(self, inp, out):
        raise NotImplementedError


# -- audit ------------------------------------------------------------------


@dataclass
class AuditInput:
    d: list
    e: list
    matrix: object
    table: object
    semimetric: bool
    metric: bool
    zero_diagonal: bool
    idempotent: bool
    sigma: list = field(default_factory=list)
    lam: Fraction = Fraction(0)


class Audit(Workload):
    """The paper's audit path: classify, extremals, embed, H-class."""

    name = "audit"
    # The four metrics at n = 16 make up the top 20% and cost at least
    # twice any other operation, so the 90th percentile is the median of
    # their block.  They are spread through the round so that their samples
    # catch the CPU speed at many moments.
    schedule = (
        ("metric_band", 16), ("metric_star", 10), ("semi_star", 14), ("not_triangle", 16), ("random", 16),
        ("metric_star", 16), ("metric_band", 10), ("semi_band", 14), ("not_triangle", 18), ("random", 18),
        ("metric_band", 16), ("metric_star", 8), ("semi_star", 12), ("semi_star", 16), ("not_triangle", 20),
        ("metric_star", 16), ("metric_band", 8), ("semi_band", 12), ("semi_band", 16), ("random", 20),
    )  # fmt: skip
    warmup = tuple(
        (kind, 5) for kind in ("metric_star", "metric_band", "semi_star", "semi_band", "not_triangle", "random")
    )

    def make_input(self, rng, kind, n, tag, k):
        api = self.api
        if kind == "random":
            # a positive diagonal entry: not zero-diagonal, and A (x) A
            # exceeds A there, so not idempotent
            e = [[rational(rng, -6, 6) for _ in range(n)] for _ in range(n)]
            e[0][0] = rational(rng, 1, 6)
            return AuditInput(None, e, api.Matrix(e), None, False, False, False, False)
        symmetric = kind.startswith("metric")
        build = star_table if kind.endswith("star") else band_table
        d = build(rng, n, symmetric or kind == "not_triangle" and rng.random() < 0.5)
        if kind == "not_triangle":
            d[0][2] = d[0][1] + d[1][2] + 1
            return AuditInput(d, neg(d), api.Matrix(neg(d)), None, False, False, True, False)
        sigma = list(range(n))
        if kind == "metric_star":
            sigma[1], sigma[2] = 2, 1
        return AuditInput(
            d, neg(d), api.Matrix(neg(d)), api.DistanceTable(d), True, symmetric, True, True,
            sigma, rational(rng, -3, 3),
        )  # fmt: skip

    def run(self, inp):
        api = self.api
        report = api.classify(inp.matrix)
        try:
            extremals = api.extremal_columns(inp.matrix)
        except api.PreconditionError:
            extremals = None
        points = element = inside = None
        if inp.semimetric:
            points = api.embed(inp.table)
        if inp.metric:
            element = api.hclass_element(inp.matrix, api.Permutation(inp.sigma), inp.lam)
            inside = api.hclass_contains(inp.matrix, element)
        return report, extremals, points, element, inside

    def check(self, inp, out):
        check_audit(inp, out)


# -- spectral -----------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass
class SpectralInput:
    a: list
    matrix: object
    sample_perms: list


class Spectral(Workload):
    """Eigenvalue, star of the shifted matrix and permanent, on prime denominators."""

    name = "spectral"
    # the two at n = 32 (the top 20%) cost over twice any other, so the 90th
    # percentile is the median of their block; they sit half a round apart
    schedule = tuple(("prime", n) for n in (32, 8, 16, 24, 12, 32, 12, 24, 8, 16))
    warmup = (("prime", 4), ("prime", 6))

    def make_input(self, rng, kind, n, tag, k):
        a = [[Fraction(rng.randint(-30, 30), rng.choice(PRIMES)) for _ in range(n)] for _ in range(n)]
        perms = [rng.sample(range(n), n) for _ in range(3)]
        return SpectralInput(a, self.api.Matrix(a), perms)

    def run(self, inp):
        api = self.api
        lam = api.eigenvalue(inp.matrix)
        star = api.kleene_star(inp.matrix.scale(-lam))
        return lam, star, api.permanent(inp.matrix)

    def check(self, inp, out):
        check_spectral(inp, out)


# -- symmetry -----------------------------------------------------------------


@dataclass
class SymmetryInput:
    d: list
    table: object
    order: int


class Symmetry(Workload):
    """Isometry groups of metrics whose group orders are known."""

    name = "symmetry"
    # Q4 (1 in 30) and four C32 (4 in 30) cost over twice any other, so the
    # 90th percentile is the median of the C32 block; they are spread through
    # the round.  Random metrics with a trivial group fill it.
    schedule = (
        ("cube", 4), ("distinct", 8), ("distinct", 12), ("distinct", 16), ("distinct", 20), ("distinct", 24),
        ("cycle", 32), ("petersen", 10), ("distinct", 8), ("distinct", 12), ("distinct", 16), ("distinct", 24),
        ("cycle", 32), ("uniform", 5), ("distinct", 20), ("distinct", 24), ("distinct", 8), ("cycle", 12),
        ("cycle", 32), ("cycle", 20), ("distinct", 12), ("distinct", 16), ("cube", 3), ("distinct", 20),
        ("cycle", 32), ("cycle", 16), ("distinct", 24), ("uniform", 4), ("distinct", 8), ("distinct", 12),
    )  # fmt: skip
    warmup = (("cube", 2), ("cycle", 6), ("petersen", 10), ("uniform", 4), ("distinct", 6))

    def make_input(self, rng, kind, n, tag, k):
        if kind == "cube":
            base, order = cube_metric(n), 2**n * math.factorial(n)
        elif kind == "cycle":
            base, order = cycle_metric(n), 2 * n
        elif kind == "petersen":
            base, order = petersen_metric(), 120
        elif kind == "uniform":
            base, order = uniform_metric(n), math.factorial(n)
        else:
            base, order = distinct_metric(rng, n), 1
        d, _ = relabel(rng, base, rational(rng, 1, 4))
        return SymmetryInput(d, self.api.DistanceTable(d), order)

    def run(self, inp):
        return self.api.isometry_group(inp.table)

    def check(self, inp, out):
        check_symmetry(inp, out)


# -- cli ----------------------------------------------------------------------

# The three 3x3 idempotents whose pictures are pinned in tests/golden.
GOLDEN = {
    "triangle": [[0, 0, 0], [-3, 0, 0], [-3, -3, 0]],
    "hexagon_asym": [[0, -1, -1], [-3, 0, -2], [-2, -1, 0]],
    "hexagon_sym": [["0", "-3/2", "-3/2"], ["-3/2", "0", "-1"], ["-3/2", "-1", "0"]],
}


def tmat(grid) -> str:
    return "tmat 1\n%d %d\n" % (len(grid), len(grid[0])) + "".join(
        " ".join(str(Fraction(x)) for x in row) + "\n" for row in grid
    )


@dataclass
class CliInput:
    argv: list
    expect: object
    svg_path: Path | None = None


class Cli(Workload):
    """``python -m maxplus <command>`` in a fresh process per operation."""

    name = "cli"
    schedule = (
        ("classify", 6), ("classify", 8), ("star", 8), ("eigenvalue", 8), ("extremals", 8),
        ("interior", 6), ("embed", 8), ("isometries", 8), ("hclass", 7), ("render", 3),
    )  # fmt: skip
    warmup = (("classify", 4), ("render", 3), ("isometries", 5))

    def __init__(self, api, root: Path):
        super().__init__(api, root)
        self.workdir = root / ".bench_out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.goldens = {name: (root / "tests" / "golden" / f"{name}.svg").read_bytes() for name in GOLDEN}
        self.rounds = 0

    def make_round(self, rng, schedule, tag):
        self.rounds += 1
        return super().make_round(rng, schedule, tag)

    def make_input(self, rng, cmd, n, tag, k):
        path = self.workdir / f"{tag}-{k}.tmat"
        argv = [cmd, str(path)]
        svg_path = None
        if cmd == "classify":
            kind = rng.choice(("metric", "semimetric", "not_triangle"))
            d = band_table(rng, n, kind == "metric")
            if kind == "not_triangle":
                d[0][2] = d[0][1] + d[1][2] + 1
            grid = neg(d)
            semi = kind != "not_triangle"
            argv.append("--json")
            expect = {
                "n": n, "is_metric_matrix": kind == "metric", "is_semimetric_matrix": semi,
                "zero_diagonal": True, "idempotent": semi, "symmetric": kind == "metric",
            }  # fmt: skip
        elif cmd in ("star", "extremals", "interior"):
            grid = neg(band_table(rng, n, rng.random() < 0.5))
            if cmd == "star":  # a semimetric matrix is its own star
                expect = grid
            elif cmd == "extremals":
                expect = " ".join(str(j + 1) for j in range(n))
            else:  # the origin is interior exactly for semimetric matrices
                argv += ["--point", ",".join(["0"] * n)]
                expect = "interior"
        elif cmd == "eigenvalue":
            # a semimetric matrix has cycle mean 0 (zero diagonal, negative
            # cycles otherwise), so lam + it has eigenvalue lam
            lam = rational(rng, -5, 5)
            grid = [[lam + x for x in row] for row in neg(band_table(rng, n, False))]
            expect = lam
        elif cmd == "embed":
            grid = band_table(rng, n, rng.random() < 0.5)
            expect = [list(col) for col in zip(*neg(grid))]
        elif cmd == "isometries":
            grid, _ = relabel(rng, cycle_metric(n), rational(rng, 1, 4))
            expect = (2 * n, grid)
        elif cmd == "hclass":
            d, p = relabel(rng, cycle_metric(n), rational(rng, 1, 4))
            grid = neg(d)
            # the rotation i -> i+1 of the cycle, in the relabelled points
            sigma = [0] * n
            for i in range(n):
                sigma[p[i]] = p[(i + 1) % n]
            lam = rational(rng, -3, 3)
            argv += ["--perm", " ".join(str(s + 1) for s in sigma), "--lambda", str(lam)]
            expect = hclass_grid(grid, sigma, lam)
        else:  # render: the golden pictures, in turn
            name = list(GOLDEN)[(self.rounds + k) % len(GOLDEN)]
            grid = GOLDEN[name]
            svg_path = self.workdir / f"{tag}-{k}.svg"
            argv += ["-o", str(svg_path)]
            expect = self.goldens[name]
        path.write_text(tmat(grid), encoding="utf-8")
        return CliInput(argv, expect, svg_path)

    # a bare interpreter start tracks what a cli operation's time follows;
    # the in-process kernel does not
    probe_ref_s = 0.06

    def probe(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root, check=True, timeout=120)
        return time.perf_counter() - t0

    def run(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "maxplus", *inp.argv],
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        return proc.returncode, proc.stdout

    def replay(self, inp):
        """The same argv through ``cli.main`` in this process; returns (code, stdout)."""
        argv = list(inp.argv)
        if inp.svg_path is not None:
            argv[-1] = str(inp.svg_path) + ".replay"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = self.api.cli.main(argv)
        return code, buf.getvalue()

    def check(self, inp, out):
        code, stdout = out
        svg = inp.svg_path.read_bytes() if inp.svg_path is not None and code == 0 else None
        check_cli(inp, code, stdout, svg)

    def close(self):
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (Audit, Spectral, Symmetry, Cli)}
