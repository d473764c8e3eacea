"""Time the heaviest kernels and commands at sizes that no benchmark workload reaches.

Usage: python tests/ceiling.py [kernel|cli]

``kernel`` times, inside one interpreter per case, the least of three
calls of the Kleene star or the permanent of A - lambda, where A has
entries p/q with q a prime <= 47 (as in the benchmark's spectral
workload), or of the star of -d for an l1 metric d, each at n = 64 and
128.  The first two run the star's packed pass and the assignment; -d has
no positive entry, so its star runs the plain pass under the column
bound.  ``cli`` times ``python -m maxplus classify --json`` on the files
of tests/hostile_tmat.py at n = 32, 48 and 64, start-up included.  With
neither, both groups run.

Each case runs in its own process under a limit of 60 s (``LIMIT``).
The last output line is one JSON object that maps each case to its wall
time in seconds, or to "timeout".  A case that fails prints its error
output, and the script exits 1 when any case failed or timed out.  Inputs
depend only on the case, so both sides of a change time the same ones.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
KERNEL = [f"{what} n={n}" for what in ("star A-lambda", "permanent A-lambda", "star l1") for n in (64, 128)]
CLI = [f"classify hostile n={n}" for n in (32, 48, 64)]
LIMIT = 60.0  # seconds per case


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
    print(min(times))


def timed(argv, inside):
    """Wall time of ``argv``, the time it prints when ``inside``, or "timeout"; None if it failed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=LIMIT)
    except subprocess.TimeoutExpired:
        return "timeout"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return round(float(proc.stdout) if inside else wall, 4)


def main(args):
    groups = args or ["kernel", "cli"]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        if "kernel" in groups:
            for case in KERNEL:
                out[case] = timed([sys.executable, __file__, "--case", case], True)
                print(f"# {case}: {out[case]}", flush=True)
        if "cli" in groups:
            for case in CLI:
                path = Path(tmp) / "hostile.tmat"
                n = case.rsplit("=", 1)[1]
                path.write_text(subprocess.run([sys.executable, str(HERE / "hostile_tmat.py"), n],
                                               capture_output=True, text=True, check=True).stdout)
                argv = [sys.executable, "-m", "maxplus", "classify", "--json", str(path)]
                out[case] = timed(argv, False)
                print(f"# {case}: {out[case]}", flush=True)
    print(json.dumps(out))
    return 0 if all(isinstance(value, float) for value in out.values()) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--case"]:
        sys.path.insert(0, str(SRC))
        run_kernel(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1:]))
