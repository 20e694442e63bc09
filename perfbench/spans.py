"""Span recording for the traced benchmark run.

A span is (name, operation, parent, start, end).  Spans come from two
places, both in the benchmark's own files: wrappers installed on the
names a caller looks up (``errprop.table.read_csv``, the names
``errprop.expr`` imports from ``propagation``, ...), and steps the
benchmark times itself.  They are kept in flat in-memory arrays and
written out once, when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np


def _propagation(tracer, args, out):
    tracer.tally("propagation.calls")
    tracer.tally("propagation.elements", len(out))


def _derive(tracer, args, out):
    tracer.tally("rows_derived", args[0].nrows)


def _format_column(tracer, args, out):
    tracer.tally("formatting.cells_formatted", len(out))


def _parse_value(tracer, args, out):
    tracer.tally("formatting.cells_parsed")


def _mc_propagate(tracer, args, out):
    tracer.tally("mc.n_nonfinite", out.n_nonfinite)


def _eval_numeric(tracer, args, out):
    tracer.tally("mc.samples", int(np.size(out)))
    env = args[1]
    tracer.tally("mc.bytes_drawn", sum(
        v.nbytes for v in env.values() if isinstance(v, np.ndarray)))


# (module, attribute path, span name, tally hook).  Each is the name the
# caller looks up at call time, so the traced operation is the real CLI
# call, in the CLI's own order.
BOUNDARIES = (
    ("errprop.cli", "main", "cli.main", None),
    ("errprop.table", "read_csv", "table.read_csv", None),
    ("errprop.table", "attach_errors", "table.attach_errors", None),
    ("errprop.table", "derive_column", "table.derive_column", _derive),
    ("errprop.table", "Table.formatted", "table.formatted", None),
    ("errprop.table", "summarize", "table.summarize", None),
    ("errprop.table", "parse_value", "formatting.parse_value", _parse_value),
    ("errprop.table", "format_column", "formatting.format_column", _format_column),
    ("errprop.table", "eval_uncertain", "expr.eval_uncertain", None),
    ("errprop.expr", "propagate_unary", "propagation.unary", _propagation),
    ("errprop.expr", "propagate_binary", "propagation.binary", _propagation),
    ("errprop.cli", "scatter_svg", "svg.scatter_svg", None),
    ("errprop.cli", "compare_tsm_mcm", "mc.compare_tsm_mcm", None),
    ("errprop.mc", "mc_propagate", "mc.mc_propagate", _mc_propagate),
    ("errprop.mc", "eval_numeric", "expr.eval_numeric", _eval_numeric),
)


def _resolve(module: str, path: str):
    """Return (owner, attribute name), or None if any link is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans and per-operation counts while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tallies: dict[int, Counter] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list = []
        self._op = -1

    def open(self, name: str) -> int:
        i = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def tally(self, key: str, n: int = 1) -> None:
        self.tallies[self._op][key] += n

    def _wrap(self, module, path, name, hook):
        found = _resolve(module, path)
        if found is None:
            self.missing.add(name)
            return
        owner, attr = found
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self, args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def begin_op(self, op: int) -> None:
        """Install the boundary wrappers and start counting for ``op``."""
        self._op = op
        self.tallies[op] = Counter()
        for b in BOUNDARIES:
            self._wrap(*b)

    def end_op(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        self._op = -1

    def per_op(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """For each operation and span name: (calls, total s, self s)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for k in np.unique(op):
            sel = op == k
            calls = np.bincount(name[sel], minlength=len(self.names))
            total = np.bincount(name[sel], weights=dur[sel], minlength=len(self.names))
            mine = np.bincount(name[sel], weights=own[sel], minlength=len(self.names))
            out[int(k)] = {
                n: (int(calls[j]), total[j] / 1e9, mine[j] / 1e9)
                for j, n in enumerate(self.names) if calls[j]
            }
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def _total(span):
    return (span,), lambda s, t: s(span)[1]


def _own(span, *children):
    return (span, *children), lambda s, t: s(span)[2]


def _per_item(span, key, scale, *deps):
    return (span, *deps), lambda s, t: _per(s(span)[1], t[key], scale)


def _count(key, *deps):
    return deps, lambda s, t: t[key]


_PROPAGATE = ("propagation.unary", "propagation.binary")

# per-layer metric -> (span names it reads, value from (stats, tallies)).
# stats maps a span name to (calls, total s, self s) for one operation;
# a layer that an operation never enters reads 0.  The lib.* spans are
# library_api's own steps.
LAYER_METRICS = {
    "cli.self_s": _own("cli.main"),
    "table.read_csv_s": _total("table.read_csv"),
    "table.attach_errors_s": _total("table.attach_errors"),
    "table.derive_column_s": _total("table.derive_column"),
    "table.formatted_s": _total("table.formatted"),
    "table.summarize_s": _total("table.summarize"),
    "expr.row_us": _per_item("expr.eval_uncertain", "rows_derived", 1e6, "table.derive_column"),
    "propagation.calls": _count("propagation.calls", *_PROPAGATE),
    "propagation.elements": _count("propagation.elements", *_PROPAGATE),
    "propagation.elements_per_call": (
        _PROPAGATE,
        lambda s, t: _per(t["propagation.elements"], t["propagation.calls"], 1.0)),
    "formatting.parse_cell_us": _per_item(
        "formatting.parse_value", "formatting.cells_parsed", 1e6),
    "formatting.cells_parsed": _count("formatting.cells_parsed", "formatting.parse_value"),
    "formatting.cell_us": _per_item(
        "formatting.format_column", "formatting.cells_formatted", 1e6),
    "formatting.cells_formatted": _count(
        "formatting.cells_formatted", "formatting.format_column"),
    "svg.scatter_svg_s": _total("svg.scatter_svg"),
    "mc.compare_tsm_mcm_s": _total("mc.compare_tsm_mcm"),
    "mc.mc_propagate_s": _total("mc.mc_propagate"),
    "expr.eval_numeric_s": _total("expr.eval_numeric"),
    "mc.self_s": _own("mc.mc_propagate", "expr.eval_numeric"),
    "mc.samples": _count("mc.samples", "expr.eval_numeric"),
    "mc.n_nonfinite": _count("mc.n_nonfinite", "mc.mc_propagate"),
    "mc.bytes_drawn": _count("mc.bytes_drawn", "expr.eval_numeric"),
    "core.scalar_op_us": _per_item("lib.scalar_ops", "lib.scalar_ops", 1e6),
    "expr.eval_uncertain_us": _per_item("lib.eval_uncertain", "lib.evals", 1e6),
    "formatting.format_value_us": _per_item("lib.str", "lib.strs", 1e6),
    "core.make_uncertain_s": _total("lib.make_uncertain"),
    "propagation.vector_ns_per_elem": _per_item("lib.vector_ops", "lib.vector_elements", 1e9),
    "propagation.unary_ns_per_elem": _per_item("lib.unary", "lib.unary_elements", 1e9),
    "propagation.cumulative_prod_s": _total("lib.cumulative_prod"),
    "propagation.cumulative_sum_s": _total("lib.cumulative_sum"),
    "propagation.diff_s": _total("lib.diff"),
    "summaries.mean_s": _total("lib.mean"),
    "summaries.median_s": _total("lib.median"),
    "summaries.weighted_mean_s": _total("lib.weighted_mean"),
    "summaries.product_s": _total("lib.product"),
}

# Counts that must repeat exactly in every traced operation of a run.
EXACT_COUNTS = (
    "propagation.calls", "propagation.elements", "propagation.elements_per_call", "mc.samples",
    "mc.n_nonfinite", "mc.bytes_drawn", "formatting.cells_parsed",
    "formatting.cells_formatted",
)


def layer_metrics(tracer: Tracer) -> list[dict[str, float | None]]:
    """Per-layer metrics of each traced operation; None where a wrapped
    name the metric reads is gone from the program."""
    out = []
    for op, stats in sorted(tracer.per_op().items()):
        def s(name, stats=stats):
            return stats.get(name, (0, 0.0, 0.0))
        tally = tracer.tallies[op]
        out.append({
            m: None if tracer.missing.intersection(deps) else fn(s, tally)
            for m, (deps, fn) in LAYER_METRICS.items()
        })
    return out
