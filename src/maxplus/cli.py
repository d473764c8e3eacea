"""Command-line surface: classification, closures, embeddings, rendering.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 precondition
violation, 4 internal consistency failure.  All indices in input and
output are 1-based; numeric output is exact unless --decimal is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .closure import eigenvalue, kleene_star
from .errors import (
    ConsistencyError,
    MatrixParseError,
    PreconditionError,
    ShapeError,
)
from .groups import hclass_element, isometry_group
from .matio import (
    format_scalar,
    format_vector,
    load_matrix,
    parse_permutation,
    parse_point,
    parse_scalar,
    serialize_matrix,
)
from .metric import ClassificationReport, DistanceTable, classify, embed
from .polytope import extremal_columns, interior_point
from .svg import render_matrix

__all__ = ["main", "REPORT_SCHEMA"]

_REPORT_FIELDS = [f.name for f in fields(ClassificationReport)]

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "maxplus classification report",
    "type": "object",
    "required": ["n"] + _REPORT_FIELDS,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        **{name: {"type": "boolean"} for name in _REPORT_FIELDS},
    },
    "additionalProperties": False,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _distance_table(path) -> DistanceTable:
    return DistanceTable(load_matrix(path).entries)


def _cmd_classify(args) -> int:
    mat = load_matrix(args.file)
    report = classify(mat)
    if args.json:
        payload = {"n": mat.rows, **report.as_dict()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for name in _REPORT_FIELDS:
            flag = getattr(report, name)
            print(f"{name.replace('_', ' ')}: {'yes' if flag else 'no'}")
    return 0


def _cmd_star(args) -> int:
    res = kleene_star(load_matrix(args.file))
    if not res.converges:
        print(f"diverges (eigenvalue {format_scalar(res.eigenvalue, args.decimal)})")
    else:
        sys.stdout.write(serialize_matrix(res.star, args.decimal))
    return 0


def _cmd_eigenvalue(args) -> int:
    print(format_scalar(eigenvalue(load_matrix(args.file)), args.decimal))
    return 0


def _cmd_embed(args) -> int:
    for point in embed(_distance_table(args.file)):
        print(format_vector(point, args.decimal))
    return 0


def _cmd_isometries(args) -> int:
    group = isometry_group(_distance_table(args.file))
    names = ", ".join(p.cycle_notation() for p in group)
    print(f"order {group.order}: {names}")
    return 0


def _cmd_extremals(args) -> int:
    indices = extremal_columns(load_matrix(args.file))
    print(" ".join(str(j + 1) for j in indices))
    return 0


def _cmd_interior(args) -> int:
    mat = load_matrix(args.file)
    point = parse_point(args.point)
    print("interior" if interior_point(mat, point) else "boundary")
    return 0


def _cmd_hclass(args) -> int:
    mat = load_matrix(args.file)
    sigma = parse_permutation(args.perm)
    lam = parse_scalar(args.lam, what="lambda")
    element = hclass_element(mat, sigma, lam)
    sys.stdout.write(serialize_matrix(element, args.decimal))
    return 0


def _cmd_render(args) -> int:
    text = render_matrix(load_matrix(args.file))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="maxplus",
        description="Exact max-plus matrix toolkit: idempotents, polytropes, metrics.",
        epilog="exit codes: 0 ok, 1 usage, 2 parse error, 3 precondition, 4 consistency",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, decimal=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="matrix file (tmat format)")
        if decimal:
            p.add_argument("--decimal", action="store_true", help="display as decimals")
        else:
            p.set_defaults(decimal=False)
        p.set_defaults(func=func)
        return p

    p = add("classify", _cmd_classify, "report all matrix classifications")
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    add("star", _cmd_star, "Kleene star, or a divergence notice", decimal=True)
    add("eigenvalue", _cmd_eigenvalue, "maximum cycle mean", decimal=True)
    add("embed", _cmd_embed, "embed a distance table (file holds d, not -d)", decimal=True)
    add("isometries", _cmd_isometries, "isometry group of a distance table")
    add("extremals", _cmd_extremals, "1-based extremal column indices")

    p = add("interior", _cmd_interior, "test a point against the polytrope interior")
    p.add_argument("--point", required=True, help="comma-separated rationals")

    p = add("hclass", _cmd_hclass, "maximal-subgroup element lam*P*D", decimal=True)
    p.add_argument("--perm", required=True, help='1-based images, e.g. "1 3 2"')
    p.add_argument("--lambda", dest="lam", default="0", help="scalar shift")

    p = add("render", _cmd_render, "write an SVG picture of the polytrope")
    p.add_argument("-o", "--output", required=True, help="output SVG path")

    return parser


# long options whose values may start with "-" (negative rationals, points);
# folded into --opt=value form so argparse does not mistake them for flags
_VALUE_OPTIONS = ("--lambda", "--point", "--perm", "--output")


def _fold_option_values(argv):
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_OPTIONS:
            val = next(it, None)
            if val is None:
                out.append(tok)  # argparse reports the missing value
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_option_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"maxplus: parse error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ShapeError) as exc:
        print(f"maxplus: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"maxplus: internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
