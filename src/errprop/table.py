"""Named-column tables with optional uncertainty, backed by CSV.

Columns come in three flavors: text (anything non-numeric, e.g. a group
label), plain numeric, and uncertain.  Cells written as "5.1(1)" or
"5.1 ± 0.1" are auto-detected and parsed, making CSV files
self-describing.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .core import UncertainScalar, UncertainVector, as_uncertain, make_uncertain, subset
from .exceptions import ErrpropError, NegativeError
from .expr import parse_expr, eval_uncertain
# parse_value stays a name here, where perfbench/spans.py traces it,
# though read_csv reads every column through parse_column
from .formatting import (_PLAIN_RE, Notation, _bare, format_column, parse_column,
                         parse_value)
from . import summaries

__all__ = ["Table", "read_csv", "attach_errors", "derive_column", "summarize"]

@dataclass
class Table:
    """Ordered named columns of equal length."""

    names: list[str] = field(default_factory=list)
    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) > 1:
            raise ErrpropError(f"ragged columns: lengths {sorted(lengths)}")

    @property
    def nrows(self) -> int:
        if not self.names:
            return 0
        return len(self.columns[self.names[0]])

    def add(self, name: str, column):
        if name in self.columns:
            raise ErrpropError(f"duplicate column {name!r}")
        if self.names and len(column) != self.nrows:
            raise ErrpropError(
                f"column {name!r} has {len(column)} rows, table has {self.nrows}"
            )
        self.names.append(name)
        self.columns[name] = column

    def formatted(self, notation: Notation) -> list[list[str]]:
        """All cells as strings, uncertain columns rendered per notation."""
        cols = []
        for name in self.names:
            col = self.columns[name]
            if isinstance(col, UncertainVector):
                cols.append(format_column(col, notation))
            elif isinstance(col, np.ndarray):
                cols.append([_bare(v) for v in col.tolist()])
            else:
                cols.append([str(v) for v in col])
        return [list(row) for row in zip(*cols)] if cols else []


def read_csv(stream) -> Table:
    """Read an RFC-4180 CSV with a header row into a Table.

    A column whose every cell is a bare numeral of parse_value's grammar,
    or inf or nan in any case ("2", "1e-3", "-Inf", "NaN"), becomes a
    float array; else one whose every cell parse_value reads becomes an
    UncertainVector; anything else stays text.  An uncertain column is
    read whole by parse_column, with the bits parse_value would give each
    cell.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        return Table()
    seen = set()
    for name in header:
        if name in seen:
            raise ErrpropError(f"duplicate column {name!r} in header")
        seen.add(name)
    rows = []
    for row in filter(None, reader):  # blank lines are skipped
        if len(row) != len(header):
            raise ErrpropError(f"line {reader.line_num}: expected {len(header)} "
                               f"cells, found {len(row)}")
        rows.append(row)
    table = Table()
    for j, name in enumerate(header):
        table.add(name, _classify([row[j].strip() for row in rows]))
    return table


def _classify(cells: list[str]):
    # checked first, so a column of plain numbers is never taken for an
    # uncertain one; float() alone would also read "1_000" and "infinity"
    if all(map(_PLAIN_RE.fullmatch, cells)):
        return np.array([float(c) for c in cells], dtype=float)
    try:
        column = parse_column(cells)
    except NegativeError:
        return cells
    return cells if column is None else column


def attach_errors(table: Table, column: str, *, absolute=None, relative=None,
                  error_column: str | None = None) -> None:
    """Turn a plain numeric column into an uncertain one, in place."""
    if column not in table.columns:
        raise ErrpropError(f"no such column: {column!r}")
    col = table.columns[column]
    if not isinstance(col, np.ndarray):
        raise ErrpropError(f"column {column!r} is not plain numeric")
    if absolute is not None:
        errs = np.full(len(col), float(absolute))
    elif relative is not None:
        errs = np.abs(col) * float(relative)
    elif error_column is not None:
        ecol = table.columns.get(error_column)
        if not isinstance(ecol, np.ndarray):
            raise ErrpropError(f"error column {error_column!r} is not plain numeric")
        errs = ecol
    else:
        raise ErrpropError("one of absolute/relative/error_column is required")
    table.columns[column] = make_uncertain(col, errs)


def derive_column(table: Table, name: str, expression: str) -> None:
    """Evaluate an expression over whole columns, in place.

    Propagation is elementwise, so each row gets the same bits as
    evaluating that row alone.  Numeric columns are exact; text columns
    are not bound.
    """
    ast = parse_expr(expression)
    env = {n: as_uncertain(c) for n, c in table.columns.items()
           if isinstance(c, (UncertainVector, np.ndarray))}
    out = as_uncertain(eval_uncertain(ast, env))
    if len(out) != table.nrows:  # a constant-only expression
        out = subset(out, np.zeros(table.nrows, dtype=int))
    table.add(name, out)


_SUMMARY_FUNCS = {
    "mean": summaries.mean,
    "median": summaries.median,
    "sum": summaries.total,
}

_SUMMARY_RE = re.compile(r"\s*(?P<fn>mean|median|sum)\(\s*(?P<col>[^)]+?)\s*\)\s*$")


def summarize(table: Table, spec: str) -> UncertainScalar:
    """Evaluate a cross-row aggregate like "mean(x)" over one column."""
    m = _SUMMARY_RE.match(spec)
    if not m:
        raise ErrpropError(f"bad summary {spec!r}; use mean(col)|median(col)|sum(col)")
    col = table.columns.get(m.group("col"))
    if col is None:
        raise ErrpropError(f"no such column: {m.group('col')!r}")
    if isinstance(col, np.ndarray):
        col = make_uncertain(col, 0.0)
    if not isinstance(col, UncertainVector):
        raise ErrpropError(f"column {m.group('col')!r} is not numeric")
    return _SUMMARY_FUNCS[m.group("fn")](col)
