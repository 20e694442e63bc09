"""Command-line interface: eval, table, mc and plot subcommands.

Notation and digits come from flags, falling back to the ERRPROP_NOTATION
and ERRPROP_DIGITS environment variables.  Exit codes: 0 success, 2 user
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import table as tbl
from .core import UncertainVector
from .exceptions import ErrpropError
from .expr import eval_uncertain, parse_expr
from .formatting import Notation, format_value, parse_number, parse_value
from .mc import MAX_SAMPLES, McConfig, compare_tsm_mcm
from .svg import scatter_svg

PROG = "errprop"


def _notation(args) -> Notation:
    style = args.notation or os.environ.get("ERRPROP_NOTATION", "parenthesis")
    digits = args.digits
    if digits is None:
        text = os.environ.get("ERRPROP_DIGITS", "1")
        try:
            digits = int(text)
        except ValueError:
            raise ErrpropError(f"ERRPROP_DIGITS must be an integer, got {text!r}") from None
    return Notation(style=style, digits=digits)


def _parse_vars(pairs: list[str]) -> dict:
    env = {}
    for pair in pairs:
        name, sep, spec = pair.partition("=")
        if not sep or not name:
            raise ErrpropError(f"variable must be name=value, got {pair!r}")
        env[name] = parse_value(spec)
    return env


def _json_safe(obj):
    """obj with every non-finite float among its values, and those of the
    dicts among them, which JSON cannot hold, replaced by None."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _print_json(obj: dict) -> None:
    """Print obj as one line of RFC 8259 JSON: a non-finite float among its
    values, which JSON cannot hold, is written as null."""
    print(json.dumps(_json_safe(obj), allow_nan=False))


def _value_fields(value: float, error: float, notation: Notation) -> dict:
    """The JSON fields of one uncertain result, as eval prints them."""
    return {"value": value, "error": error, "formatted": format_value(value, error, notation)}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--notation", choices=["parenthesis", "plus-minus"],
                   default=None, help="output notation (default: parenthesis)")
    p.add_argument("--digits", type=int, default=None,
                   help="significant digits of the uncertainty (default: 1)")
    p.add_argument("--format", dest="out_format", default="text",
                   choices=["text", "csv", "json"], help="output format")


def cmd_eval(args) -> int:
    notation = _notation(args)
    ast = parse_expr(args.expr)
    env = _parse_vars(args.vars)
    result = eval_uncertain(ast, env)
    fields = _value_fields(result.value, result.error, notation)
    if args.out_format == "json":
        _print_json(fields)
    elif args.out_format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["value", "error", "formatted"])
        w.writerow([repr(result.value), repr(result.error), fields["formatted"]])
    else:
        print(fields["formatted"])
    return 0


def _col_spec(pairs: list[str], what: str) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        name, sep, val = pair.partition("=")
        if not sep:
            raise ErrpropError(f"--{what} needs column=value, got {pair!r}")
        out.append((name, val))
    return out


def _load_table(args, columns=None) -> tbl.Table:
    """The input table with the errors the flags attach; only the named
    columns are classified, when columns is given."""
    if args.input == "-":
        table = tbl.read_csv(sys.stdin, columns)
    else:
        with open(args.input, newline="") as fh:
            table = tbl.read_csv(fh, columns)
    for col, val in _col_spec(args.rel_error, "rel-error"):
        tbl.attach_errors(table, col, relative=parse_number(val))
    for col, val in _col_spec(args.abs_error, "abs-error"):
        tbl.attach_errors(table, col, absolute=parse_number(val))
    for col, val in _col_spec(args.error_col, "error-col"):
        tbl.attach_errors(table, col, error_column=val)
    return table


def _add_table_flags(p: argparse.ArgumentParser):
    p.add_argument("input", help="CSV file path, or - for stdin")
    p.add_argument("--rel-error", action="append", default=[], metavar="COL=F",
                   help="relative uncertainty factor for a column")
    p.add_argument("--abs-error", action="append", default=[], metavar="COL=V",
                   help="absolute uncertainty for a column")
    p.add_argument("--error-col", action="append", default=[], metavar="COL=ERRCOL",
                   help="take a column's uncertainties from another column")


def cmd_table(args) -> int:
    notation = _notation(args)
    table = _load_table(args)
    for name, expression in _col_spec(args.derive, "derive"):
        tbl.derive_column(table, name, expression)
    # every summary is taken before anything is written: a failing one
    # leaves stdout empty
    summaries = [(spec, tbl.summarize(table, spec)) for spec in args.summarize]
    rows = table.formatted(notation)
    if args.out_format == "json":
        doc = {"columns": table.names, "rows": rows}
        if summaries:
            doc["summaries"] = {spec: _value_fields(s.value, s.error, notation)
                                for spec, s in summaries}
        _print_json(doc)
        return 0
    if args.out_format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(table.names)
        w.writerows(rows)
    else:
        widths = [
            max([len(n)] + [len(r[j]) for r in rows])
            for j, n in enumerate(table.names)
        ]
        print("  ".join(n.rjust(w) for n, w in zip(table.names, widths)).rstrip())
        for r in rows:
            print("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip())
    for spec, s in summaries:
        print(f"{spec} = {format_value(s.value, s.error, notation)}")
    return 0


def cmd_mc(args) -> int:
    notation = _notation(args)
    ast = parse_expr(args.expr)
    env = _parse_vars(args.vars)
    try:
        cfg = McConfig(samples=args.samples, seed=args.seed,
                       quantiles=tuple(args.quantiles))
    except ValueError as exc:  # its message starts with the flag's name
        raise ErrpropError(f"--{exc}") from None
    report = compare_tsm_mcm(ast, env, cfg)
    pairs = [
        ("tsm_value", report.tsm_value),
        ("tsm_sd", report.tsm_sd),
        ("mcm_mean", report.mcm.mean),
        ("mcm_sd", report.mcm.sd),
        ("mcm_median", report.mcm.median),
        ("mcm_mad", report.mcm.mad),
    ]
    for q, qv in zip(cfg.quantiles, report.mcm.quantile_values):
        pairs.append((f"mcm_q{q:g}", qv))
    pairs.append(("relative_gap", report.relative_gap))
    if args.out_format == "json":
        # JSON only: the text and CSV output keep their fields
        _print_json({**dict(pairs), "mcm_n_nonfinite": report.mcm.n_nonfinite})
    elif args.out_format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow([k for k, _ in pairs])
        w.writerow([repr(v) for _, v in pairs])
    else:
        print("tsm:", format_value(report.tsm_value, report.tsm_sd, notation))
        for k, v in pairs:
            print(f"{k}: {v!r}")
    return 0


def cmd_plot(args) -> int:
    # the group column is classified too: numeric labels 1 and 1.0 share a color
    used = {args.x, args.y, args.group}
    for pair in args.rel_error + args.abs_error + args.error_col:
        used.update(pair.split("=", 1))
    table = _load_table(args, used)
    for name in (args.x, args.y):
        if name not in table.columns:
            raise ErrpropError(f"no such column: {name!r}")
    x, y = table.columns[args.x], table.columns[args.y]
    if not isinstance(x, UncertainVector) or not isinstance(y, UncertainVector):
        raise ErrpropError("x and y must be uncertain columns "
                           "(attach errors with --rel-error/--abs-error/--error-col)")
    groups = None
    if args.group:
        if args.group not in table.columns:
            raise ErrpropError(f"no such column: {args.group!r}")
        groups = [str(g) for g in table.columns[args.group]]
    svg = scatter_svg(x, y, groups, x_label=args.x, y_label=args.y)
    with open(args.output, "w", encoding="utf-8") as fh:  # as its XML declaration says
        fh.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Propagate and report measurement uncertainties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over uncertain variables")
    p.add_argument("expr", help='expression, e.g. "x/y"; one that starts with "-" '
                   'needs -- before it, after any flags: -- "-x"')
    p.add_argument("vars", nargs="*", metavar="NAME=SPEC",
                   help='variable bindings, e.g. x=5.00(1) or y="1.0 ± 0.1"')
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="attach uncertainties to CSV columns and derive new ones")
    _add_table_flags(p)
    p.add_argument("--derive", action="append", default=[], metavar="NAME=EXPR",
                   help="add a column computed row-wise from an expression")
    p.add_argument("--summarize", action="append", default=[], metavar="FN(COL)",
                   help="print a cross-row aggregate: mean(col), median(col) or sum(col)")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("mc", help="compare Taylor propagation against Monte Carlo")
    p.add_argument("expr", help='expression; one that starts with "-" needs -- '
                   'before it, after any flags: -- "-x"')
    p.add_argument("vars", nargs="*", metavar="NAME=SPEC")
    p.add_argument("--samples", type=int, default=100_000,
                   help=f"Monte Carlo draws, 2 to {MAX_SAMPLES} (default: 100000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantiles", type=float, nargs="+", default=[0.025, 0.975])
    _add_common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("plot", help="scatter plot with error bars as SVG")
    _add_table_flags(p)
    p.add_argument("--x", required=True, help="x column name")
    p.add_argument("--y", required=True, help="y column name")
    p.add_argument("--group", default=None, help="color points by this column")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ErrpropError, OSError, ValueError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"{PROG}: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
