"""Check the bounded-time promise on the heaviest inputs, and time each case.

Usage: python tests/ceiling.py

``CASES`` is the one list of bounded-time cases.  Each gives a function
that returns the text of its input file (written to ``in.tmat`` in a
temporary directory; None when it reads no such file), the arguments
after ``python``, its time limit in seconds, the exit code it must end
with and a check of its stdout: stdout begins with ``head`` and has
fewer than ``size`` bytes, or is exactly ``head`` when ``size`` is
None.  The CLI cases run ``python -m maxplus`` on the hostile files of
tests/hostile_tmat.py, the tables of tests/symmetric_tmat.py and a few
hand-made files; start-up is included in their times.  The kernel cases
re-enter this script (``--case NAME``) to build A - lambda, where A has
entries p/q with q a prime <= 47 (as in the benchmark's spectral
workload), or -d for an l1 metric d, at n = 64 and 128, and print
``seconds T``, the least of three calls of the Kleene star or the
permanent on it.  The first two run the star's packed pass and the
assignment; -d has no positive entry, so its star runs the plain pass
under the column bound.

Every case runs in its own process, under its limit and under an
address-space limit of ``MEMORY`` bytes.  A case fails on a timeout, a
wrong exit code or stdout, or a ``Traceback`` on stderr; a failing case
prints its stderr.  The last output line is one JSON object that maps
each case to its time in seconds (T for a kernel case, the wall time for
the others) or to what failed, and the script exits 1 when any case
failed.  Inputs depend only on the case, so both sides of a change run
the same ones.
"""

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from fractions import Fraction
from math import factorial
from pathlib import Path

from hostile_tmat import text as hostile
from symmetric_tmat import FAMILIES, tmat

SRC = Path(__file__).resolve().parent.parent / "src"
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
LIMIT = 60.0  # seconds per case unless the case sets a tighter one
SECONDS = "seconds "  # a kernel case prints this and its time
MEMORY = 1 << 30  # bytes of address space per case

TMP = "{tmp}"  # the case's temporary directory in its argv
IN = f"{TMP}/in.tmat"
Case = namedtuple("Case", "name input argv limit code head size", defaults=(LIMIT, 0, "", None))


def transient(n):
    """Loops of -1/100 at node 1 and 0 at node n, -10 elsewhere: no periodic walk from node 1 for 1000 steps."""
    return tmat([["-1/100" if i == j == 0 else 0 if i == j == n - 1 else -10 for j in range(n)] for i in range(n)])


def maxplus(*args):
    return ["-m", "maxplus", *args]


def isometries(name, family, n, order, size=1 << 16, limit=10):
    """``isometries`` prints the order first, and lists the group up to its listing cap of 5040."""
    head = f"order {order}{', generated by' if order > 5040 else ':'}"
    return Case(f"isometries {name}", lambda: tmat(FAMILIES[family](n)), maxplus("isometries", IN),
                limit, 0, head, size)


CASES = [
    # a distinct 120-bit denominator in every entry: D has about n^2 * 120 bits
    *(Case(f"classify hostile n={n}", lambda n=n: hostile(n), maxplus("classify", "--json", IN), limit, 0,
           '{\n  "columns_sum_to_zero": true,', 1 << 10) for n, limit in ((32, 20), (48, LIMIT), (64, 30))),
    # -d for d with every distance in [6, 12]: the star's column bound skips every row
    Case("star hostile n=48", lambda: hostile(48), maxplus("star", IN), 15, 0, "tmat 1\n48 48\n", 1 << 20),
    # policy iteration certifies 0 in its first round on each
    Case("eigenvalue hostile n=48", lambda: hostile(48), maxplus("eigenvalue", IN), 20, 0, "0\n"),
    Case("eigenvalue transient n=2", lambda: transient(2), maxplus("eigenvalue", IN), 20, 0, "0\n"),
    Case("eigenvalue transient n=128", lambda: transient(128), maxplus("eigenvalue", IN), 10, 0, "0\n"),
    # the row bound settles the idempotency test, so no product is formed
    Case("extremals hostile n=48", lambda: hostile(48), maxplus("extremals", IN), 10, 0,
         " ".join(map(str, range(1, 49))) + "\n"),
    # render refuses the size (exit 3) before building the integer view
    Case("render hostile n=128", lambda: hostile(128), maxplus("render", IN, "-o", f"{TMP}/out.svg"), 10, 3),
    # d(1, 1) = 1: refused (exit 3) before building the integer view
    *(Case(f"{what} hostile n=128 d(1, 1) = 1", lambda: hostile(128).replace("\n0 ", "\n1 ", 1),
           maxplus(what, IN, *extra), 10, 3)
      for what, extra in (("isometries", ()), ("embed", ()),
                          ("hclass", ("--perm", " ".join(map(str, range(1, 129))))))),
    Case("classify 0xff byte", lambda: b"tmat 1\n1 1\n\xff\n", maxplus("classify", IN), code=2),
    Case("classify /dev/zero", None, maxplus("classify", "/dev/zero"), 5, 2),
    Case("render into a missing directory", lambda: tmat([[0, -1], [-2, 0]]),
         maxplus("render", IN, "-o", f"{TMP}/missing/x.svg"), code=1),
    # closed forms; only C128 is listed, the others come from the stabiliser chain
    isometries("U128", "uniform", 128, factorial(128)),
    isometries("64 pairs", "pairs", 64, 2**64 * factorial(64)),
    isometries("Q7", "cube", 7, 2**7 * factorial(7)),
    isometries("C128", "cycle", 128, 2 * 128, size=1 << 17),
    # two distances and much hidden structure: the search backtracks far
    isometries("Paley(101)", "paley", 101, 101 * 100 // 2),
    isometries("Paley(113)", "paley", 113, 113 * 112 // 2, limit=LIMIT),
    *(isometries(f"latin m={m}", "latin", m, order, limit=LIMIT) for m, order in ((5, 72), (6, 16), (7, 2))),
    # distances 1, 3 break the triangle inequality on every row: refused before the search
    Case("isometries Paley(113) 2 -> 3",
         lambda: tmat([[3 if x == 2 else x for x in row] for row in FAMILIES["paley"](113)]),
         maxplus("isometries", IN), 5, 3),
    *(Case(f"{what} n={n}", None, [__file__, "--case", f"{what} n={n}"], LIMIT, 0, SECONDS, 64)
      for what in ("star A-lambda", "permanent A-lambda", "star l1") for n in (64, 128)),
]


def shifted_matrix(n):
    """A - lambda for a seeded A with prime denominators: its eigenvalue is 0."""
    from maxplus import Matrix, eigenvalue

    rng = random.Random(n)
    a = Matrix([[Fraction(rng.randint(-30, 30), rng.choice(PRIMES)) for _ in range(n)] for _ in range(n)])
    return a.scale(-eigenvalue(a))


def l1_matrix(n):
    """-d for the l1 distances of n seeded points of Z^3, coordinates 0..200."""
    from maxplus import Matrix

    rng = random.Random(n)
    points = [[rng.randint(0, 200) for _ in range(3)] for _ in range(n)]
    return Matrix([[-sum(abs(x - y) for x, y in zip(p, q)) for q in points] for p in points])


def run_kernel(case):
    """Build the case's input, then print the least time of three calls on it."""
    from maxplus import kleene_star, permanent

    what, n = case.rsplit(" n=", 1)
    a = (l1_matrix if what == "star l1" else shifted_matrix)(int(n))
    call = permanent if what.startswith("permanent") else kleene_star
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call(a)
        times.append(time.perf_counter() - start)
    print(f"{SECONDS}{min(times)}")


def failure(case, code, stdout, stderr):
    """What is wrong with a finished run of ``case``, or None."""
    if code != case.code:
        return f"exit {code}"
    if "Traceback" in stderr:
        return "traceback"
    if case.size is None:
        return None if stdout == case.head else "stdout"
    return None if stdout.startswith(case.head) and len(stdout.encode()) < case.size else "stdout"


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(case, tmp):
    """The case's time in seconds, or what failed."""
    if case.input:
        data = case.input()
        Path(IN.replace(TMP, tmp)).write_bytes(data if isinstance(data, bytes) else data.encode())
    argv = [sys.executable] + [arg.replace(TMP, tmp) for arg in case.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=case.limit,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    wall = time.perf_counter() - start
    wrong = failure(case, proc.returncode, proc.stdout, proc.stderr)
    if wrong:
        sys.stderr.write(proc.stderr)
        return wrong
    return round(float(proc.stdout[len(SECONDS):]) if case.head == SECONDS else wall, 4)


def main(cases=CASES):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            out[case.name] = run(case, tmp)
            print(f"# {case.name}: {out[case.name]}", flush=True)
    print(json.dumps(out))
    return 0 if all(isinstance(value, float) for value in out.values()) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        sys.path.insert(0, str(SRC))
        run_kernel(sys.argv[2])
    else:
        sys.exit(main())
