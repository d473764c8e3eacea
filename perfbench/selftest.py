"""Shows that each workload's oracle accepts the right answer and rejects wrong ones.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  For
every workload it takes a real answer from the package, checks that the
oracle accepts it, then corrupts it in several ways and checks that the
oracle rejects each one.  Exits 1 if any wrong answer gets through.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import maxplus  # noqa: E402
import maxplus.cli  # noqa: E402,F401
from oracles import OracleError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

api = maxplus


def one(wl, kind, n, seed=7):
    return wl.make_round(random.Random(seed), [(kind, n)], f"selftest-{kind}")[0]


def bump(matrix, i, j, delta):
    grid = [list(row) for row in matrix.entries]
    grid[i][j] += delta
    return api.Matrix(grid)


def audit_cases(wl):
    inp = one(wl, "metric_star", 6)
    good = wl.run(inp)
    report, extremals, points, element, inside = good
    yield "audit metric", inp, good, [
        ("metric flag flipped", (dataclasses.replace(report, is_metric_matrix=False), *good[1:])),
        ("extremal column dropped", (report, extremals[:-1], points, element, inside)),
        ("embedding moved", (report, extremals, [points[0].oplus(points[1])] + points[1:], element, inside)),
        ("hclass element shifted", (report, extremals, points, bump(element, 0, 0, 1), inside)),
        ("hclass membership denied", (report, extremals, points, element, False)),
    ]
    inp = one(wl, "random", 6)
    good = wl.run(inp)
    yield "audit non-idempotent", inp, good, [
        ("extremals of a non-idempotent", (good[0], [0, 1], *good[2:])),
        ("idempotent flag set", (dataclasses.replace(good[0], idempotent=True), *good[1:])),
    ]


def spectral_cases(wl):
    inp = one(wl, "prime", 8)
    good = wl.run(inp)
    lam, star, perm = good
    a = inp.matrix

    def shifted(mu):
        return mu, api.kleene_star(a.scale(-mu)), perm

    images = list(perm.witness.images)
    images[0], images[1] = images[1], images[0]
    yield "spectral", inp, good, [
        ("eigenvalue too high", shifted(lam + 1)),
        ("eigenvalue too low", shifted(lam - Fraction(1, 2))),
        ("star entry lowered", (lam, dataclasses.replace(star, star=bump(star.star, 0, 1, -1)), perm)),
        ("permanent raised", (lam, star, dataclasses.replace(perm, value=perm.value + 1))),
        ("permanent witness swapped", (lam, star, dataclasses.replace(perm, witness=api.Permutation(images)))),
    ]


def symmetry_cases(wl):
    inp = one(wl, "cycle", 12)
    good = wl.run(inp)
    elements = list(good.elements)
    not_iso = list(range(12))
    not_iso[0], not_iso[1] = 1, 0
    for i, p in enumerate(elements):
        if not p.is_identity():
            elements[i] = api.Permutation(not_iso)
            break
    yield "symmetry", inp, good, [
        ("element dropped", api.IsometryGroup(good.elements[:-1])),
        ("non-isometry in place of an element", api.IsometryGroup(tuple(elements))),
    ]


def cli_cases(wl):
    for cmd, n in wl.schedule:
        inp = one(wl, cmd, n)
        code, stdout = good = wl.run(inp)
        bads = [("nonzero exit", (3, stdout))]
        if cmd == "render":
            altered = inp.svg_path.with_suffix(".altered.svg")
            altered.write_bytes(inp.svg_path.read_bytes().replace(b"#d9d9d9", b"#d9d9d8"))
            yield f"cli {cmd}", inp, good, bads
            yield f"cli {cmd}", dataclasses.replace(inp, svg_path=altered), None, [("picture altered", good)]
            continue
        if cmd == "classify":
            flipped = stdout.replace("true", "T").replace("false", "true").replace("T", "false")
            bads.append(("flags flipped", (0, flipped)))
        else:
            # change the last token printed: an entry, an index, an order or a word
            head, _, last = stdout.rstrip("\n").rpartition(" ")
            wrong = str(Fraction(last) + 1) if last[-1].isdigit() else last + "x"
            bads.append(("last token changed", (0, f"{head} {wrong}\n" if head else wrong + "\n")))
        yield f"cli {cmd}", inp, good, bads


def main() -> int:
    problems = []
    checked = 0
    for name, cases in (
        ("audit", audit_cases),
        ("spectral", spectral_cases),
        ("symmetry", symmetry_cases),
        ("cli", cli_cases),
    ):
        wl = WORKLOADS[name](api, ROOT)
        try:
            for label, inp, good, bads in cases(wl):
                if good is not None:
                    wl.check(inp, good)
                for what, bad in bads:
                    checked += 1
                    try:
                        wl.check(inp, bad)
                    except OracleError:
                        continue
                    problems.append(f"{label}: oracle accepted a wrong answer ({what})")
        finally:
            if hasattr(wl, "close"):
                wl.close()
    for line in problems:
        print(line)
    print(f"selftest: {checked - len(problems)} of {checked} wrong answers rejected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
