"""The maxplus benchmark: one workload (or all) for a seed, timed and checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one row each

Each workload runs as a closed loop with one client in this process (the
``cli`` workload starts one ``python -m maxplus`` process per operation).
Operations run in rounds of a fixed schedule until ``--seconds`` have
passed and at least MIN_OPS operations are timed, so that at least ten
samples lie above the 90th percentile.  Only the calls into the package
are timed; every answer then goes through an independent oracle.  Times
are reported at a reference CPU speed, measured by a probe timed around
every operation (see ``Workload.probe``); the raw wall-clock figures are
in the ``# row`` line.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, taken from spans recorded
around the package's functions (see ``spans.py``).  A traced run
alternates untraced and traced rounds of the same schedule, and the
difference in their throughput is the tracing overhead.  Results, spans
and a description of the machine go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # leaves ten samples above the 90th percentile
SETUP_REPS = 3
WARMUP_PASSES = 2

# Spans whose per-layer metrics the benchmark reports; README.md names the
# end-to-end metric and workload each should move.
SPANS = (
    "semiring.mat_mul", "semiring.mat_vec", "semiring.residuation",
    "closure.eigenvalue", "closure.kleene_star", "closure.is_idempotent",
    "rank.permanent",
    "polytope.membership", "polytope.extremal_columns", "polytope.interior_point",
    "metric.classify", "metric.validate", "metric.embed",
    "groups.isometry_group", "groups.hclass_contains", "groups.hclass_element",
    "matio.parse_matrix", "matio.serialize_matrix", "svg.render_matrix", "cli.main",
)  # fmt: skip

IMPORT_PROBE = "import time; t = time.perf_counter(); import maxplus.cli; print(time.perf_counter() - t)"


def environment(seed):
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Record(NamedTuple):
    round: int
    latency: float  # wall seconds of the operation
    part: float  # wall seconds of the traced part (the replay, for cli)
    traced: bool
    speed: float  # the probe's reference time over its time around the operation

    @property
    def ref_latency(self) -> float:
        return self.latency * self.speed

    @property
    def ref_part(self) -> float:
        return self.part * self.speed


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, workload, seed, seconds, traced):
        import maxplus
        import maxplus.cli  # noqa: F401  (imports every layer; cli replays use it)

        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.seed = seed
        self.seconds = seconds
        self.wl = WORKLOADS[workload](maxplus, ROOT)
        self.tracer = None
        if traced:
            from spans import Tracer

            self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def setup(self) -> float:
        """Median over SETUP_REPS of: import, warm-up inputs and warm-up passes.

        The import is timed inside a fresh interpreter, since this one has
        already imported the package.  Each repetition is scaled to the
        reference speed by the workload's probe, timed before and after it.
        """
        times = []
        for rep in range(SETUP_REPS):
            before = self.wl.probe()
            t0 = time.perf_counter()
            rng = random.Random(f"{self.seed}:warmup:{rep}")
            inputs = self.wl.make_round(rng, self.wl.warmup, f"w{rep}")
            for _ in range(WARMUP_PASSES):
                for inp in inputs:
                    self.wl.check(inp, self.wl.run(inp))
            elapsed = time.perf_counter() - t0
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=120, check=True,
            )  # fmt: skip
            after = self.wl.probe()
            times.append((elapsed + float(probe.stdout)) * 2 * self.wl.probe_ref_s / (before + after))
        return statistics.median(times)

    def fail(self, exc):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{type(exc).__name__}: {exc}"

    def attempt(self, inp):
        """One timed operation, then its oracle; returns (latency, output)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
        except Exception as exc:  # an unexpected failure counts against the run
            self.fail(exc)
            return time.perf_counter() - t0, None
        latency = time.perf_counter() - t0
        try:
            self.wl.check(inp, out)
        except Exception as exc:
            self.fail(exc)
        return latency, out

    @contextlib.contextmanager
    def tracing(self, op_id, on):
        self.tracer.op_id = op_id
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def replay(self, op_id, traced, inp, out):
        """Replays a cli operation in this process; returns its latency."""
        with self.tracing(op_id, traced):
            t0 = time.perf_counter()
            try:
                replayed = self.wl.replay(inp)
            except Exception as exc:
                self.fail(exc)
                replayed = out
            latency = time.perf_counter() - t0
        if out is not None and replayed != out:
            self.fail(AssertionError(f"in-process replay of {inp.argv[0]} differs"))
        return latency

    def measure(self):
        """Rounds until the time is up; returns one Record per operation.

        The traced part is the operation itself, or for ``cli`` its
        in-process replay through ``cli.main``.  Traced runs trace every
        second round and end on a traced one.
        """
        records = []
        start = time.perf_counter()
        before = self.wl.probe()
        r = 0
        while True:
            inputs = self.wl.make_round(random.Random(f"{self.seed}:{r}"), self.wl.schedule, f"r{r}")
            traced = self.tracer is not None and r % 2 == 1
            for inp in inputs:
                op_id = len(records)
                if self.tracer is None:
                    latency, _ = self.attempt(inp)
                    part = latency
                elif self.wl.name == "cli":
                    latency, out = self.attempt(inp)
                    part = self.replay(op_id, traced, inp, out)
                else:
                    with self.tracing(op_id, traced):
                        latency, _ = self.attempt(inp)
                    part = latency
                after = self.wl.probe()
                records.append(Record(r, latency, part, traced, 2 * self.wl.probe_ref_s / (before + after)))
                before = after
            r += 1
            enough = time.perf_counter() - start >= self.seconds and len(records) >= MIN_OPS
            if enough and (self.tracer is None or r % 2 == 0):
                return records

    def end_to_end(self, records, setup_s):
        """Times at the reference CPU speed; memory as measured."""
        lat = sorted(rec.ref_latency for rec in records)
        who = resource.RUSAGE_CHILDREN if self.wl.name == "cli" else resource.RUSAGE_SELF
        return {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(len(lat) / sum(lat), "1/ref-s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ref-ms"),
            "latency_p90_ms": metric(percentile(lat, 0.9) * 1e3, "ref-ms"),
            "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self, records):
        """Per-layer metrics, and the full table with self seconds per span.

        Counts come from the first traced round, which every traced run
        completes, so they repeat exactly for a seed.  Self-time shares
        and the overhead use every round.
        """
        from spans import aggregate

        spans = self.tracer.spans
        traced = [i for i, rec in enumerate(records) if rec.traced]
        first_round = records[traced[0]].round
        first = {i for i in traced if records[i].round == first_round}
        agg, agg_first = aggregate(spans), aggregate(spans, first)
        traced_s = sum(records[i].part for i in traced)
        untraced = [rec for rec in records if not rec.traced]
        mean_traced = sum(records[i].ref_part for i in traced) / len(traced)
        mean_untraced = sum(rec.ref_part for rec in untraced) / len(untraced)
        startup = [rec.latency - rec.part for rec in untraced] if self.wl.name == "cli" else [0.0]
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bits": 0, "work": 0}

        out, table = {}, {}
        for name in SPANS:
            a, f = agg.get(name, empty), agg_first.get(name, empty)
            out[f"{name}.calls"] = metric(f["calls"] / len(first), "count/op")
            out[f"{name}.self_pct"] = metric(100 * a["self_s"] / traced_s, "%")
            table[f"{name}.calls"] = f["calls"]
            table[f"{name}.self_s"] = a["self_s"]
            table[f"{name}.self_ms_per_op"] = 1e3 * a["self_s"] / len(traced)
        madds = agg_first.get("semiring.mat_mul", empty)["work"]
        pairs = agg_first.get("groups.isometry_group", empty)["work"]
        max_bits = max((a["bits"] for a in agg_first.values()), default=0)
        startup_pct = 100 * sum(startup) / sum(rec.latency for rec in untraced) if self.wl.name == "cli" else 0.0
        overhead_pct = 100 * (1 - mean_untraced / mean_traced)
        out["semiring.mat_mul.madds"] = metric(madds / len(first), "count/op")
        out["groups.closure_pairs"] = metric(pairs / len(first), "count/op")
        out["semiring.max_bits"] = metric(max_bits, "bits")
        out["cli.startup_pct"] = metric(startup_pct, "%")
        out["trace.overhead_pct"] = metric(overhead_pct, "%")
        table.update(
            {
                "ops_in_count_round": len(first),
                "traced_ops": len(traced),
                "semiring.mat_mul.madds": madds,
                "groups.closure_pairs": pairs,
                "semiring.max_bits": max_bits,
                "cli.startup_s": statistics.median(startup),
                "ops_per_s.untraced": 1 / mean_untraced,
                "ops_per_s.traced": 1 / mean_traced,
                "trace.overhead_pct": overhead_pct,
            }
        )
        return out, table


def run_one(args) -> int:
    if not (SRC / "maxplus" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    import maxplus

    if Path(maxplus.__file__).resolve().parent != SRC / "maxplus":
        print(f"perfbench: imported maxplus from {maxplus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_s = run.setup() if args.trace == 0 else None
    try:
        records = run.measure()
    finally:
        if hasattr(run.wl, "close"):
            run.wl.close()
    lat = sorted(rec.ref_latency for rec in records)
    raw = sorted(rec.latency for rec in records)
    row = {
        "workload": args.workload,
        "samples": len(lat),
        "above_p90": sum(x > percentile(lat, 0.9) for x in lat),
        "error_rate": run.failed / run.attempted,
        "failed": run.failed,
        "attempted": run.attempted,
        "rounds": records[-1].round + 1,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_p90_ms": percentile(raw, 0.9) * 1e3,
        "median_speed": statistics.median(rec.speed for rec in records),
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"env": env, "row": row}
    if args.trace == 0:
        metrics = run.end_to_end(records, setup_s)
        result["end_to_end"] = metrics
    else:
        metrics, table = run.per_layer(records)
        result["per_layer"] = metrics
        result["layer_table"] = table
        run.tracer.write(f"{stem}.spans.tsv")
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("# env " + json.dumps(env))
    print("# row " + json.dumps(row))
    if args.trace == 1:
        for key, value in table.items():
            print(f"# layer {key} {value}")
    if run.first_failure:
        print(f"perfbench: first failure: {run.first_failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one row each."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )  # fmt: skip
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        above = next(json.loads(line[6:])["above_p90"] for line in lines if line.startswith("# row "))
        row = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"# {name:9} correct={result['correct']} ops={result['attempted']} above_p90={above} "
              f"error_rate={result['failed']}/{result['attempted']}  {row}")  # fmt: skip
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
