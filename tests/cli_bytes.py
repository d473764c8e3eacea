"""Print one sha256 per subcommand over the CLI's bytes on a fixed corpus.

Usage: python tests/cli_bytes.py

Builds a seeded corpus of tmat files in a temporary directory: finite
matrices (some not square), semimetric and metric distance tables and
their negations (the idempotents), and malformed files whose bad token is
"inf", "nan", "1e999" or "x", or whose header, dimensions or row count is
wrong.  Every subcommand runs on every file through ``maxplus.cli.main``
in-process, with and without each of its flags, and with good and bad
option values.  Each digest covers the argv, exit code, stdout, stderr and
the bytes of any SVG written, for every run of that subcommand.

Files whose only bad token is "-inf" form their own group, printed as the
last line: the parse message is the one output they share with no other
file.  Running a copy of this script against two versions of the package
shows whether a change kept the CLI's bytes: the script imports the
package from the src/ directory next to its own tests/ directory, and its
output depends only on that package.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from maxplus.cli import main as cli_main  # noqa: E402

SEED = 1212


def _token(rng, x: Fraction) -> str:
    """``x`` as an integer, a ratio or, when it is exact, a decimal."""
    if x.denominator == 1 or rng.random() < 0.6:
        return str(x)
    if 10**6 % x.denominator == 0:
        return repr(float(x))
    return str(x)


def _tmat(rng, grid) -> str:
    rows = [" ".join(e if isinstance(e, str) else _token(rng, e) for e in row) for row in grid]
    return "tmat 1\n%d %d\n%s\n" % (len(grid), len(grid[0]), "\n".join(rows))


def _scalar(rng, lo=-6, hi=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4, 5)))


def _table(rng, n: int, symmetric: bool):
    """Positive raw distances closed under the triangle inequality."""
    d = [[Fraction(0) if i == j else _scalar(rng, 1, 9) for j in range(n)] for i in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def corpus(rng):
    """(group, name, text) for every file; the group is "main" or "-inf"."""
    files = []
    for k in range(40):
        rows = rng.randint(1, 5)
        cols = rows if rng.random() < 0.85 else rng.randint(1, 5)
        grid = [[_scalar(rng) for _ in range(cols)] for _ in range(rows)]
        files.append(("main", f"finite{k}", grid))
    for k in range(30):
        n = rng.randint(1, 5)
        d = _table(rng, n, symmetric=k % 2 == 1)
        kind = "metric" if k % 2 else "semimetric"
        files.append(("main", f"{kind}{k}", d))
        files.append(("main", f"{kind}{k}neg", [[-e for e in row] for row in d]))
    for n in (2, 3, 4, 6):
        uniform = [[Fraction(int(i != j)) for j in range(n)] for i in range(n)]
        files.append(("main", f"uniform{n}", uniform))
        files.append(("main", f"uniform{n}neg", [[-e for e in row] for row in uniform]))
    out = [(group, name, _tmat(rng, grid)) for group, name, grid in files]

    valid = [text for _, _, text in out]
    for k in range(40):
        lines = rng.choice(valid).split("\n")
        body = rng.randrange(2, len(lines) - 1)
        tokens = lines[body].split()
        bad = rng.choice(("inf", "nan", "1e999", "x", "-inf", "-inf"))
        for _ in range(rng.randint(1, 2)):
            tokens[rng.randrange(len(tokens))] = bad
        lines[body] = " ".join(tokens)
        out.append(("-inf" if bad == "-inf" else "main", f"bad{k}", "\n".join(lines)))
    for k, text in enumerate(
        ("", "tmat 2\n1 1\n0\n", "tmat 1\n2\n0\n", "tmat 1\n2 2\n0 0\n", "tmat 1\n1 2\n0\n")
    ):
        out.append(("main", f"broken{k}", text))
    return out


def argvs(rng, name: str, text: str):
    """(subcommand, argv) for every run on one file."""
    n = max(1, len(text.split("\n")) - 3)
    point = ",".join(str(_scalar(rng)) for _ in range(n))
    images = list(range(1, n + 1))
    rng.shuffle(images)
    perm = " ".join(map(str, images))
    runs = [
        ("classify", ["classify", name]),
        ("classify", ["classify", name, "--json"]),
        ("render", ["render", name, "-o", "out.svg"]),
    ]
    for cmd in ("star", "eigenvalue", "embed"):
        runs += [(cmd, [cmd, name]), (cmd, [cmd, name, "--decimal"])]
    runs += [("isometries", ["isometries", name]), ("extremals", ["extremals", name])]
    for p in ("0," * (n - 1) + "0", point, point + ",1", "a,b"):
        runs.append(("interior", ["interior", name, "--point", p]))
    identity = " ".join(map(str, range(1, n + 1)))
    for p, lam in ((identity, "0"), (perm, "-3/2"), (perm, "x"), ("1 1", "0")):
        runs.append(("hclass", ["hclass", name, "--perm", p, "--lambda", lam]))
        runs.append(("hclass", ["hclass", name, "--perm", p, "--lambda", lam, "--decimal"]))
    return runs


USAGE = [
    ("usage", []),
    ("usage", ["no-such-command"]),
    ("usage", ["interior", "f.tmat"]),
    ("usage", ["hclass", "f.tmat"]),
    ("usage", ["render", "f.tmat"]),
    ("usage", ["classify", "missing.tmat"]),
]


def run(argv):
    """(exit code, stdout, stderr, SVG text) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    svg = ""
    if os.path.exists("out.svg"):
        with open("out.svg", encoding="utf-8") as fh:
            svg = fh.read()
        os.remove("out.svg")
    return code, out.getvalue(), err.getvalue(), svg


def results():
    """(key, argv, outcome) for every run, in a fixed order; the key is the
    subcommand, or "-inf" for runs on the "-inf" group."""
    rng = random.Random(SEED)
    for key, argv in USAGE:
        yield key, argv, run(argv)
    for group, name, text in corpus(rng):
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
        for cmd, argv in argvs(rng, name, text):
            yield ("-inf" if group == "-inf" else cmd), argv, run(argv)


def digests() -> dict[str, tuple[str, int]]:
    """{key: (sha256 hex digest, number of runs)}, keys in first-run order.

    Runs in a temporary directory, which is the working directory only
    while the runs last.
    """
    hashes, counts = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for key, argv, outcome in results():
                record = json.dumps([argv, *outcome]).encode()
                hashes.setdefault(key, hashlib.sha256()).update(record + b"\n")
                counts[key] = counts.get(key, 0) + 1
        finally:
            os.chdir(cwd)
    return {key: (digest.hexdigest(), counts[key]) for key, digest in hashes.items()}


def main() -> None:
    for key, (digest, count) in digests().items():
        print(f"{key:<11} {digest}  {count} runs")


if __name__ == "__main__":
    sys.exit(main())
