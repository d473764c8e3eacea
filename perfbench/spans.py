"""Per-layer spans for the maxplus benchmark, recorded from outside the package.

The tracer replaces each public function of the package's layer modules
with a timing wrapper.  It patches every module that holds a reference to
the function, not only the one defining it: other modules import
functions by name (``from .polytope import membership``) and
``ExtMatrix.__matmul__`` looks ``mat_mul`` up in ``semiring`` at call
time, so patching only the defining module would miss most calls.

A span records its name, its own id, the id of the span that caused it,
the benchmark operation it belongs to, its start and end, and the time
its child spans took.  Self time is the span's duration minus its
children's.  A child's bookkeeping is charged to neither span, so the
self times exclude tracing cost.  The largest bit-length of the exact
numbers is read from every span's result and from the arguments of
outermost spans.  Spans stay in memory until :meth:`Tracer.write` saves
them at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
from fractions import Fraction
from time import perf_counter

LAYERS = ("semiring", "closure", "rank", "polytope", "metric", "groups", "matio", "svg", "cli")

# Entry-level helpers run once per matrix entry inside the kernels; a span
# around each call would cost far more than the work it measures.
UNWRAPPED = frozenset(
    {"semiring.scalar", "semiring.ext_scalar", "semiring.tadd", "semiring.tmul", "matio.format_scalar"}
)


def _mat_mul_madds(args, result):
    """Multiply-adds of a product, computed from the operand shapes."""
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _closure_pairs(args, result):
    """Products the closure check of an isometry group makes: |G| squared."""
    return result.order * result.order


# Work a call did, computed from its arguments and result.
WORK = {"semiring.mat_mul": _mat_mul_madds, "groups.isometry_group": _closure_pairs}


def bits(x) -> int:
    """Largest numerator or denominator bit-length inside a package value."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max(map(bits, x), default=0)
    entries = getattr(x, "entries", None)  # Vector, Matrix, ExtMatrix, DistanceTable
    if entries is not None:
        return bits(entries)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return max((bits(getattr(x, f.name)) for f in dataclasses.fields(x)), default=0)
    return 0


class Tracer:
    """Wraps the package's layer functions; see the module docstring.

    The package must be imported before the tracer is built.  Wrappers
    are made once and swapped in by :meth:`install`, out by
    :meth:`uninstall`, so untraced stretches of a run pay nothing.
    """

    def __init__(self):
        # (name, span id, parent id, op id, start, end, child seconds, bits, work)
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = self._plan()

    def _plan(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"maxplus.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and name not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(name, fn)
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != "maxplus" and not modname.startswith("maxplus."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    patches.append((mod, attr, val, wrappers[val]))
        return patches

    def _wrap(self, name, fn):
        stack, spans, clock = self._stack, self.spans, perf_counter
        work_of = WORK.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            w0 = clock()
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            ok = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                spans.append(
                    (
                        name,
                        frame[0],
                        parent[0] if parent else -1,
                        tracer.op_id,
                        t0,
                        t1,
                        frame[1],
                        max(bits(result) if ok else 0, 0 if parent else bits(args)),
                        work_of(args, result) if ok and work_of else 0,
                    )
                )
                if parent is not None:
                    parent[1] += clock() - w0

        functools.update_wrapper(wrapper, fn)
        wrapper.__qualname__ = name
        return wrapper

    def install(self):
        for mod, attr, _, wrap in self._patches:
            setattr(mod, attr, wrap)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def write(self, path):
        """Save every span as tab-separated text, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tspan\tparent\top\tstart_s\tend_s\tchild_s\tbits\twork\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def aggregate(spans, ops=None) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, max bits and work summed.

    ``ops`` restricts the sum to spans of those operation ids.
    """
    out: dict[str, dict] = {}
    for name, _, _, op, t0, t1, child, nbits, work in spans:
        if ops is not None and op not in ops:
            continue
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bits": 0, "work": 0}
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child
        agg["work"] += work
        if nbits > agg["bits"]:
            agg["bits"] = nbits
    return out
