"""The workloads: what one operation does, and how its outputs are checked.

This module runs inside the measured process.  An operation times only
the calls into errprop (``clock.step``) and hands each output to
``emit`` between those steps, so digesting and checking outputs never
counts toward an operation's time.  ``check`` compares an output with a
numpy closed form computed from the generated inputs and returns the
problems it finds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

import numpy as np

import errprop
from errprop import cli
from gen import DERIVES, GROUPS, SUMMARIES, X_REL_ERROR

MEDIAN_FACTOR = math.sqrt(math.pi / 2.0)
RTOL = 1e-12
MC_SD_TOLERANCE = 0.02
SVG_NS = "{http://www.w3.org/2000/svg}"


# -- reading formatted cells ------------------------------------------------

_PAREN_RE = re.compile(r"(-?\d+(?:\.\d+)?)\((\d+)\)(?:e([+-]\d+))?")
_NUM = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?"
_PM_RE = re.compile(rf"({_NUM}) ± ({_NUM})")


def read_cell(cell: str) -> tuple[Decimal, Decimal] | None:
    """Value and uncertainty shown by a 'V(U)' or 'V ± U' cell."""
    m = _PAREN_RE.fullmatch(cell)
    if m:
        val, unc, exp = m.groups()
        shift = int(exp) if exp else 0
        decimals = len(val.split(".")[1]) if "." in val else 0
        return Decimal(val).scaleb(shift), Decimal(int(unc)).scaleb(shift - decimals)
    m = _PM_RE.fullmatch(cell)
    if m:
        return Decimal(m.group(1)), Decimal(m.group(2))
    return None


def cell_problems(label: str, cells, values, errors, digits: int) -> list[str]:
    """Each cell must lie within one unit of its last shown digit of the reference.

    The uncertainty is shown with ``digits`` significant digits, and the
    value is rounded at the same place, so that place is the unit.  (An
    integer display such as ``123460(340)`` pads the place with zeros.)
    """
    bad = []
    for i, (cell, v, e) in enumerate(zip(cells, values, errors)):
        shown = read_cell(cell)
        if shown is None or shown[1] <= 0:
            bad.append(f"{label}[{i}]: cannot read {cell!r}")
            continue
        sv, su = shown
        unit = Decimal(1).scaleb(su.adjusted() - (digits - 1))
        if sv.quantize(unit) != sv or su.quantize(unit) != su:
            bad.append(f"{label}[{i}]: {cell!r} is not rounded to {digits} digit(s)")
        elif abs(float(sv) - v) > float(unit) or abs(float(su) - e) > float(unit):
            bad.append(f"{label}[{i}]: {cell!r} is not {v!r} +/- {e!r}")
    return bad[:3] + ([f"{label}: {len(bad)} bad cells"] if len(bad) > 3 else [])


def close_problems(label: str, actual, reference, scale=0.0) -> list[str]:
    """Agreement to RTOL of the reference, or of ``scale`` where that is
    larger: the magnitude of terms that cancel in a sum."""
    actual, reference = np.asarray(actual, float), np.asarray(reference, float)
    if actual.shape != reference.shape:
        return [f"{label}: shape {actual.shape}, expected {reference.shape}"]
    rel = np.abs(actual - reference) / np.maximum(np.abs(reference), scale)
    if np.all(rel <= RTOL):
        return []
    return [f"{label}: off the closed form by up to {np.max(rel):.3g} relative"]


def mean_rule(v, e) -> tuple[float, float]:
    """Documented mean rule: error is max(SEM, mean of the errors)."""
    return float(np.mean(v)), max(float(np.std(v, ddof=1)) / math.sqrt(len(v)),
                                  float(np.mean(e)))


# -- closed forms of the delta method ----------------------------------------

def _ratio_plus_square(x, ex, y, ey):
    """sin(x)/y + x^2 with independent operands at every node."""
    a, ea = np.sin(x), np.abs(np.cos(x)) * ex
    b, eb = a / y, np.hypot(ea / y, np.abs(a / (y * y)) * ey)
    c, ec = x**2, np.abs(2.0 * x) * ex
    return b + c, np.hypot(eb, ec)


def _arith(a, b):
    """The operator expression both the scalar and vector parts evaluate."""
    return (a + b) * (a - b) / b + a**2


ARITH_OPS = 5


def _arith_reference(x, ex, y, ey):
    """Value, error and the magnitude of the final sum's terms."""
    s1, e1 = x + y, np.hypot(ex, ey)
    s2, e2 = x - y, np.hypot(ex, ey)
    s3, e3 = s1 * s2, np.hypot(np.abs(s2) * e1, np.abs(s1) * e2)
    s4, e4 = s3 / y, np.hypot(e3 / np.abs(y), np.abs(s3 / (y * y)) * ey)
    s5, e5 = x**2, np.abs(2.0 * x) * ex
    return s4 + s5, np.hypot(e4, e5), np.abs(s4) + np.abs(s5)


# unary rule -> (value, derivative), written out independently of errprop
UNARY = {
    "neg": (np.negative, lambda q: np.full_like(q, -1.0)),
    "abs": (np.abs, np.sign),
    "sqrt": (np.sqrt, lambda q: 0.5 / np.sqrt(q)),
    "exp": (np.exp, np.exp),
    "ln": (np.log, lambda q: 1.0 / q),
    "log2": (np.log2, lambda q: 1.0 / (q * math.log(2.0))),
    "log10": (np.log10, lambda q: 1.0 / (q * math.log(10.0))),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda q: -np.sin(q)),
    "tan": (np.tan, lambda q: 1.0 / np.cos(q) ** 2),
    "asin": (np.arcsin, lambda q: 1.0 / np.sqrt(1.0 - q * q)),
    "acos": (np.arccos, lambda q: -1.0 / np.sqrt(1.0 - q * q)),
    "atan": (np.arctan, lambda q: 1.0 / (1.0 + q * q)),
    "sinh": (np.sinh, np.cosh),
    "cosh": (np.cosh, np.sinh),
    "tanh": (np.tanh, lambda q: 1.0 / np.cosh(q) ** 2),
}


# -- workloads --------------------------------------------------------------

def cli_call(clock, key: str, argv: list[str], emit) -> str | None:
    """One in-process ``errprop.cli.main`` call with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with clock.step("op." + key):
            rc = cli.main(argv)
    if rc != 0:
        emit(key, None, f"exit code {rc}: {err.getvalue().strip()}")
        return None
    return out.getvalue()


class Table:
    """Three ``errprop`` calls on two 10k-row CSV files.

    ``table`` with two derives and three summaries, CSV output; ``table``
    re-formatting four uncertain columns as JSON; ``plot`` of two of them.
    """

    ROUNDTRIP_COLUMNS = ("a", "b", "c", "d")

    def __init__(self, spec: dict):
        self.calls = (("derive", spec["derive_argv"]), ("roundtrip", spec["roundtrip_argv"]),
                      ("plot", spec["plot_argv"]))
        self.svg = Path(spec["svg"])
        self.rows = spec["rows"]
        self.items = len(self.calls) * self.rows
        # every derive row goes through sin, div, pow and add for r, and
        # sqrt and mul for s, whether one call or many carry the elements
        self.exact = {"propagation.elements": 6 * self.rows}
        self.derive = dict(np.load(Path(spec["dir"]) / "derive.npz"))
        self.roundtrip = dict(np.load(Path(spec["dir"]) / "roundtrip.npz"))

    def op(self, emit, clock):
        for key, argv in self.calls:
            out = cli_call(clock, key, argv, emit)
            if out is not None:
                emit(key, self.svg.read_text(encoding="utf-8") if key == "plot" else out)

    def check(self, key, out):
        if key == "derive":
            return self._check_derive(out)
        if key == "roundtrip":
            return self._check_roundtrip(out)
        return self._check_plot(out)

    def _check_derive(self, out):
        d, n = self.derive, self.rows
        lines = out.split("\n")
        rows = list(csv.reader(lines[: n + 1]))
        header = ["g", "x", "y", "ey", "u"] + [s.split("=")[0] for s in DERIVES]
        if rows[0] != header or len(rows) != n + 1 or any(len(r) != len(header) for r in rows):
            return [f"derive: expected {n} rows of columns {header}"]
        cols = dict(zip(header, zip(*rows[1:])))
        x, y, ey = d["x"], d["y"], d["ey"]
        ex = np.abs(x) * X_REL_ERROR
        r, er = _ratio_plus_square(x, ex, y, ey)
        sq, esq = np.sqrt(r), 0.5 / np.sqrt(r) * er
        s, es = sq * d["u_val"], np.hypot(d["u_val"] * esq, sq * d["u_err"])
        bad = []
        if list(cols["g"]) != [GROUPS[k] for k in d["g"]]:
            bad.append("derive: group column changed")
        if [float(c) for c in cols["ey"]] != ey.tolist():
            bad.append("derive: plain column ey changed")
        for name, v, e in (("x", x, ex), ("y", y, ey), ("u", d["u_val"], d["u_err"]),
                           ("r", r, er), ("s", s, es)):
            bad += cell_problems(name, cols[name], v, e, digits=1)
        expected = {
            "mean(r)": mean_rule(r, er),
            "median(s)": (float(np.median(s)), MEDIAN_FACTOR * mean_rule(s, es)[1]),
            "sum(x)": (float(np.sum(x)), float(np.sqrt(np.sum(ex**2)))),
        }
        tail = [ln for ln in lines[n + 1:] if ln]
        if len(tail) != len(SUMMARIES):
            return bad + [f"derive: {len(tail)} summary lines, expected {len(SUMMARIES)}"]
        for spec, line in zip(SUMMARIES, tail):
            label, _, cell = line.partition(" = ")
            if label != spec:
                bad.append(f"derive: summary line {line!r}")
                continue
            bad += cell_problems(spec, [cell], [expected[spec][0]], [expected[spec][1]], 1)
        return bad

    def _check_roundtrip(self, out):
        d, n, names = self.roundtrip, self.rows, self.ROUNDTRIP_COLUMNS
        doc = json.loads(out)
        if doc.get("columns") != ["g", *names] or len(doc.get("rows", ())) != n:
            return [f"roundtrip: expected {n} rows of columns g, {', '.join(names)}"]
        cols = dict(zip(doc["columns"], zip(*doc["rows"])))
        bad = []
        if list(cols["g"]) != [GROUPS[k] for k in d["g"]]:
            bad.append("roundtrip: group column changed")
        scientific = 0
        for name in names:
            bad += cell_problems(name, cols[name], d[f"{name}_val"], d[f"{name}_err"], 2)
            scientific += sum("e" in c for c in cols[name])
        if not 0 < scientific < len(names) * n:
            bad.append(f"roundtrip: {scientific} scientific cells; both displays must occur")
        return bad

    def _check_plot(self, out):
        try:
            root = ET.fromstring(out)
        except ET.ParseError as exc:
            return [f"plot: SVG does not parse: {exc}"]
        circles = len(root.findall(f"{SVG_NS}circle"))
        lines = len(root.findall(f"{SVG_NS}line"))
        if circles != self.rows or lines != 2 * self.rows:
            return [f"plot: {circles} points and {lines} error bars for {self.rows} rows"]
        return []


class McOracle:
    """``errprop mc``: the delta method against 1e6 Monte Carlo samples."""

    def __init__(self, spec: dict):
        self.argv = spec["argv"]
        self.env = spec["env"]
        self.items = spec["samples"]
        self.exact = {"mc.samples": spec["samples"]}

    def op(self, emit, clock):
        out = cli_call(clock, "mc", self.argv, emit)
        if out is not None:
            emit("mc", out)

    def check(self, key, out):
        doc = json.loads(out)
        (x, ex), (y, ey), (z, ez) = (self.env[k] for k in ("x", "y", "z"))
        a, ea = np.sin(x), abs(np.cos(x)) * ex
        b, eb = a / y, np.hypot(ea / y, abs(a / (y * y)) * ey)
        lz = np.log(z)
        value, error = b + lz**2, np.hypot(eb, abs(2.0 * lz) * ez / z)
        bad = close_problems("mc tsm_value", doc["tsm_value"], value)
        bad += close_problems("mc tsm_sd", doc["tsm_sd"], error)
        gap = abs(doc["mcm_sd"] - doc["tsm_sd"]) / doc["tsm_sd"]
        if not gap <= MC_SD_TOLERANCE:
            bad.append(f"mc: mcm_sd differs from tsm_sd by {gap:.2%}")
        return bad


class LibraryApi:
    """The public Python API: scalar operators and eval, then vector calls."""

    SCALAR_EXPR = "sin(a)/b + a^2"

    def __init__(self, spec: dict):
        self.inp = dict(np.load(Path(spec["dir"]) / "inputs.npz"))
        self.k = spec["scalars"]
        self.items = spec["items"]
        self.exact = {}
        self._scalars = None

    def op(self, emit, clock):
        d, k = self.inp, self.k
        with clock.step("lib.make_uncertain"):
            X = errprop.make_uncertain(d["x"], d["ex"])
            Y = errprop.make_uncertain(d["y"], d["ey"])
            Q = errprop.make_uncertain(d["q"], d["eq"])
            P = errprop.make_uncertain(d["p"], d["ep"])
        emit("make_uncertain", [X, Y, Q, P])

        with clock.step("lib.index"):
            xs, ys = [X[i] for i in range(k)], [Y[i] for i in range(k)]
        with clock.step("lib.scalar_ops"):
            zs = [_arith(a, b) for a, b in zip(xs, ys)]
        clock.tally("lib.scalar_ops", ARITH_OPS * k)
        emit("scalar_ops", zs)
        with clock.step("lib.eval_uncertain"):
            ast = errprop.parse_expr(self.SCALAR_EXPR)
            evals = [errprop.eval_uncertain(ast, {"a": a, "b": b}) for a, b in zip(xs, ys)]
        clock.tally("lib.evals", k)
        emit("eval_uncertain", evals)
        with clock.step("lib.str"):
            strs = [str(r) for r in zs] + [str(r) for r in evals]
        clock.tally("lib.strs", len(strs))
        emit("str", strs)

        with clock.step("lib.vector_ops"):
            Z = _arith(X, Y)
        clock.tally("lib.vector_elements", ARITH_OPS * len(X))
        emit("vector_ops", Z)
        del Z
        for fn in UNARY:
            with clock.step("lib.unary"):
                out = errprop.propagate_unary(fn, Q)
            clock.tally("lib.unary_elements", len(Q))
            emit("unary." + fn, out)
            del out
        for name, call in (
            ("mean", lambda: errprop.mean(X)),
            ("median", lambda: errprop.median(X)),
            ("weighted_mean", lambda: errprop.weighted_mean(X, d["w"])),
            ("product", lambda: errprop.product(P)),
            ("cumulative_sum", lambda: errprop.cumulative_sum(X)),
            ("cumulative_prod", lambda: errprop.cumulative_prod(P)),
            ("diff", lambda: errprop.diff(X)),
        ):
            with clock.step("lib." + name):
                out = call()
            emit(name, out)
            del out

    def _vector(self, name, out, v, e, scale=0.0):
        return (close_problems(name + " values", out.values, v, scale)
                + close_problems(name + " errors", out.errors, e))

    def _scalar(self, name, out, v, e):
        return (close_problems(name + " value", out.value, v)
                + close_problems(name + " error", out.error, e))

    def check(self, key, out):
        d, k = self.inp, self.k
        x, ex, y, ey, w = d["x"], d["ex"], d["y"], d["ey"], d["w"]
        p, ep = d["p"], d["ep"]
        if key == "make_uncertain":
            bad = []
            for vec, (v, e) in zip(out, ((x, ex), (y, ey), (d["q"], d["eq"]), (p, ep))):
                if not (np.array_equal(vec.values, v) and np.array_equal(vec.errors, e)):
                    bad.append("make_uncertain: values or errors changed")
            return bad
        if key == "scalar_ops":
            self._scalars = (np.array([z.value for z in out]), np.array([z.error for z in out]))
            return self._vector(key, errprop.UncertainVector(*self._scalars),
                                *_arith_reference(x[:k], ex[:k], y[:k], ey[:k]))
        if key == "eval_uncertain":
            got = errprop.UncertainVector([r.value for r in out], [r.error for r in out])
            return self._vector(key, got, *_ratio_plus_square(x[:k], ex[:k], y[:k], ey[:k]))
        if key == "str":
            ref = _arith_reference(x[:k], ex[:k], y[:k], ey[:k])
            evs = _ratio_plus_square(x[:k], ex[:k], y[:k], ey[:k])
            return cell_problems("str", out, np.concatenate([ref[0], evs[0]]),
                                 np.concatenate([ref[1], evs[1]]), digits=1)
        if key == "vector_ops":
            bad = self._vector(key, out, *_arith_reference(x, ex, y, ey))
            # scalar results must equal the matching vector elements
            if self._scalars is not None and not (
                    np.array_equal(out.values[:k], self._scalars[0])
                    and np.array_equal(out.errors[:k], self._scalars[1])):
                bad.append("scalar operators differ from the vector elements")
            return bad
        if key.startswith("unary."):
            f, df = UNARY[key[6:]]
            q, eq = d["q"], d["eq"]
            return self._vector(key, out, f(q), np.abs(df(q)) * eq)
        if key == "mean":
            return self._scalar(key, out, *mean_rule(x, ex))
        if key == "median":
            return self._scalar(key, out, float(np.median(x)), MEDIAN_FACTOR * mean_rule(x, ex)[1])
        if key == "weighted_mean":
            n, wsum = len(x), float(np.sum(w))
            v = float(np.sum(w * x) / wsum)
            sem = math.sqrt(float(np.sum(w * (x - v) ** 2)) * n / (wsum * (n - 1))) / math.sqrt(n)
            return self._scalar(key, out, v, max(sem, float(np.sum(w * ex) / wsum)))
        # running product: relative errors add in quadrature
        cp = np.cumprod(p)
        cpe = np.abs(cp) * np.sqrt(np.cumsum((ep / p) ** 2))
        if key == "product":
            return self._scalar(key, out, cp[-1], cpe[-1])
        if key == "cumulative_prod":
            return self._vector(key, out, cp, cpe)
        if key == "cumulative_sum":
            return self._vector(key, out, np.cumsum(x), np.sqrt(np.cumsum(ex**2)))
        if key == "diff":
            return self._vector(key, out, np.diff(x), np.hypot(ex[:-1], ex[1:]))
        return [f"no check for output {key!r}"]


WORKLOADS = {
    "table": Table,
    "mc_oracle": McOracle,
    "library_api": LibraryApi,
}
