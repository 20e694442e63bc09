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
from .exceptions import ErrpropError, ParseError, UnboundVariable
from .expr import parse_expr, eval_uncertain
# parse_value stays a name here, where perfbench/spans.py traces it,
# though read_csv reads every column through parse_column
from .formatting import (Notation, _bare_column, format_column, parse_column, parse_number,
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
                cols.append(_bare_column(col))
            else:
                cols.append([str(v) for v in col])
        return [list(row) for row in zip(*cols)] if cols else []


def read_csv(stream, columns=None) -> Table:
    """Read an RFC-4180 CSV with a header row into a Table.

    Each column is read whole by parse_column: a float array when every
    cell is a bare number ("2", "1e-3", "-Inf"), an UncertainVector when
    parse_value reads every cell, else text.  Given a collection of names
    as columns, only those columns are classified and the others stay
    text; the header and every row are checked all the same.
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
        cells = [row[j].strip() for row in rows]
        table.add(name, cells if columns is not None and name not in columns
                  else _classify(cells))
    return table


def _classify(cells: list[str]):
    column = parse_column(cells)
    return cells if column is None else column


def _first_bad_cell(table: Table, name: str, parse) -> str:
    """Where a text column fails parse: "; row i, column 'name': " and the
    ParseError of its first failing cell, row 1 being the first under the
    header; "" for any other column.  Read a cell at a time, for an error
    message only."""
    col = table.columns.get(name)
    if isinstance(col, list):
        for i, cell in enumerate(col, 1):
            try:
                parse(cell)
            except ParseError as exc:
                return f"; row {i}, column {name!r}: {exc}"
    return ""


def attach_errors(table: Table, column: str, *, absolute=None, relative=None,
                  error_column: str | None = None) -> None:
    """Turn a plain numeric column into an uncertain one, in place."""
    if column not in table.columns:
        raise ErrpropError(f"no such column: {column!r}")
    col = table.columns[column]
    if not isinstance(col, np.ndarray):
        raise ErrpropError(f"column {column!r} is not plain numeric"
                           + _first_bad_cell(table, column, parse_number))
    if absolute is not None:
        errs = np.full(len(col), float(absolute))
    elif relative is not None:
        errs = np.abs(col) * float(relative)
    elif error_column is not None:
        ecol = table.columns.get(error_column)
        if not isinstance(ecol, np.ndarray):
            raise ErrpropError(f"error column {error_column!r} is not plain numeric"
                               + _first_bad_cell(table, error_column, parse_number))
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
    try:
        out = as_uncertain(eval_uncertain(ast, env))
    except UnboundVariable as exc:  # a text column, maybe for one bad cell
        where = _first_bad_cell(table, exc.name, parse_value)
        if not where:
            raise
        raise ErrpropError(f"{exc}{where}") from None
    if len(out) != table.nrows:  # a constant-only expression
        out = subset(out, np.zeros(table.nrows, dtype=int))
    table.add(name, out)


_SUMMARY_FUNCS = {
    "mean": summaries.mean,
    "median": summaries.median,
    "sum": summaries.total,
}

# a function name, then the column between parentheses; no two pieces
# can take the same character, so a spec is read in linear time
_SUMMARY_RE = re.compile(rf"\s*({'|'.join(map(re.escape, _SUMMARY_FUNCS))})\(([^)]*)\)\s*")


def _read_summary(spec: str) -> tuple[str, str]:
    """The function name and the column of a spec like "mean(x)": the text
    between the parentheses, stripped, which must not be blank."""
    m = _SUMMARY_RE.fullmatch(spec)
    col = m and m[2].strip()
    if not col:
        use = "|".join(f"{fn}(col)" for fn in _SUMMARY_FUNCS)
        raise ErrpropError(f"bad summary {spec!r}; use {use}")
    return m[1], col


def summarize(table: Table, spec: str) -> UncertainScalar:
    """Evaluate a cross-row aggregate like "mean(x)" over one column."""
    fn, name = _read_summary(spec)
    col = table.columns.get(name)
    if col is None:
        raise ErrpropError(f"no such column: {name!r}")
    if isinstance(col, np.ndarray):
        col = make_uncertain(col, 0.0)
    if not isinstance(col, UncertainVector):
        raise ErrpropError(f"column {name!r} is not numeric"
                           + _first_bad_cell(table, name, parse_value))
    return _SUMMARY_FUNCS[fn](col)
