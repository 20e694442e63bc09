import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errprop import eval_uncertain, formatting, make_uncertain, parse_expr, table
from errprop.core import UncertainScalar, UncertainVector
from errprop.exceptions import ErrpropError, NegativeError, ParseError
from errprop.svg import scatter_svg
from errprop.table import (
    Table,
    attach_errors,
    derive_column,
    read_csv,
    summarize,
)
from errprop.formatting import _EXP, _NUM, _NUMERAL, _PLAIN_RE, Notation, format_value
from errprop.propagation import BINARY_RULES, UNARY_RULES

IRIS_HEAD = """Sepal.Length,Sepal.Width,Petal.Length,Petal.Width,Species
5.1,3.5,1.4,0.2,setosa
4.9,3.0,1.4,0.2,setosa
4.7,3.2,1.3,0.2,setosa
4.6,3.1,1.5,0.2,setosa
5.0,3.6,1.4,0.2,setosa
5.4,3.9,1.7,0.4,setosa
"""


def test_read_csv_types():
    t = read_csv(IRIS_HEAD)
    assert t.names[0] == "Sepal.Length"
    assert isinstance(t.columns["Sepal.Length"], np.ndarray)
    assert t.columns["Species"] == ["setosa"] * 6
    assert t.nrows == 6


def test_relative_errors_match_paper_head():
    t = read_csv(IRIS_HEAD)
    for name in t.names[:-1]:
        attach_errors(t, name, relative=0.02)
    rows = t.formatted(Notation())
    assert rows[0][:4] == ["5.1(1)", "3.50(7)", "1.40(3)", "0.200(4)"]
    assert rows[5][:4] == ["5.4(1)", "3.90(8)", "1.70(3)", "0.400(8)"]


def test_self_describing_cells():
    t = read_csv("m\n5.00(5)\n1.00(3)\n")
    col = t.columns["m"]
    assert isinstance(col, UncertainVector)
    assert col.values.tolist() == [5.0, 1.0]
    assert col.errors.tolist() == [0.05, 0.03]


def test_empty_csv():
    t = read_csv("a,b\n")
    assert t.nrows == 0
    assert t.formatted(Notation()) == []


def test_attach_error_column():
    t = read_csv("v,e\n10,0.5\n20,1.5\n")
    attach_errors(t, "v", error_column="e")
    assert t.columns["v"].errors.tolist() == [0.5, 1.5]


def test_attach_errors_diagnostics():
    t = read_csv("v\n1\n")
    with pytest.raises(ErrpropError):
        attach_errors(t, "nope", absolute=0.1)
    with pytest.raises(ErrpropError):
        attach_errors(t, "v")


def test_derive_column_paper_3x():
    t = Table()
    t.add("x", make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)]))
    derive_column(t, "3x", "3*x")
    rows = t.formatted(Notation())
    assert [r[1] for r in rows] == [
        "3.0(1)", "6.0(2)", "9.0(3)", "12.0(4)",
        "15.0(5)", "18.0(6)", "21.0(7)", "24.0(8)",
    ]


def test_summarize():
    t = Table()
    t.add("x", make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)]))
    m = summarize(t, "mean(x)")
    assert m.value == 4.5
    s = summarize(t, "sum(x)")
    assert s.value == 36.0
    with pytest.raises(ErrpropError):
        summarize(t, "mode(x)")
    with pytest.raises(ErrpropError):
        summarize(t, "mean(missing)")


def test_duplicate_header_rejected():
    with pytest.raises(ErrpropError):
        read_csv("a,a\n1,2\n")


def _plot_vectors(n=10):
    x = make_uncertain(np.linspace(1, 2, n), 0.1)
    y = make_uncertain(np.linspace(2, 4, n), 0.2)
    return x, y


def test_svg_structure():
    x, y = _plot_vectors()
    svg = scatter_svg(x, y)
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count('class="pt"') == 10
    assert svg.count('class="xbar"') == 10
    assert svg.count('class="ybar"') == 10
    assert svg.rstrip().endswith("</svg>")


def test_svg_deterministic():
    x, y = _plot_vectors()
    assert scatter_svg(x, y) == scatter_svg(x, y)


def test_svg_single_point_extents():
    x = make_uncertain([1.0], [0.1])
    y = make_uncertain([2.0], [0.2])
    svg = scatter_svg(x, y)
    # degenerate range [0.9, 1.1] x [1.8, 2.2] maps to the full plot area
    assert 'x1="40.00"' in svg and 'x2="760.00"' in svg
    assert 'y1="570.00"' in svg and 'y2="30.00"' in svg


def test_svg_zero_error_still_valid():
    x = make_uncertain([1.0, 2.0], [0.0, 0.0])
    y = make_uncertain([1.0, 2.0], [0.0, 0.0])
    svg = scatter_svg(x, y)
    assert svg.count('class="pt"') == 2


def test_svg_groups_get_distinct_colors():
    x, y = _plot_vectors(4)
    svg = scatter_svg(x, y, groups=["a", "a", "b", "b"])
    assert "#1b9e77" in svg and "#d95f02" in svg


def test_derive_column_matches_row_by_row_bitwise():
    # whole-column evaluation must give exactly the per-row results, for
    # every rule, including rows outside a rule's domain (NaN)
    rng = np.random.default_rng(3)
    n = 300
    x = make_uncertain(rng.uniform(-3, 3, n), rng.uniform(0, 0.1, n))
    y = make_uncertain(rng.uniform(-2, 2, n), rng.uniform(0, 0.1, n))
    k = rng.uniform(-5, 5, n)
    exprs = [f"{fn}(x)" for fn in UNARY_RULES] + [
        f"{fn}(x, y)" for fn in BINARY_RULES
    ] + ["2.5*x - k/3 + y^2", "k^2 + 1"]
    t = Table()
    t.add("x", x)
    t.add("y", y)
    t.add("k", k)
    t.add("g", ["a"] * n)
    for i, src in enumerate(exprs):
        derive_column(t, f"d{i}", src)
        col = t.columns[f"d{i}"]
        ast = parse_expr(src)
        rows = [
            eval_uncertain(ast, {"x": x[j], "y": y[j],
                                 "k": UncertainScalar(float(k[j]), 0.0)})
            for j in range(n)
        ]
        assert np.array_equal(col.values, [r.value for r in rows], equal_nan=True), src
        assert np.array_equal(col.errors, [r.error for r in rows], equal_nan=True), src
        assert not np.isnan(col.values).all(), src
    assert len(UNARY_RULES) == 16 and len(BINARY_RULES) == 6


@pytest.mark.parametrize("src, line, found", [
    ("a,b\n1,2\n3\n", 3, 1),
    ("a,b\n1,2,3\n", 2, 3),
], ids=["short", "long"])
def test_ragged_rows_rejected(src, line, found):
    with pytest.raises(ErrpropError, match=f"line {line}: expected 2 cells, found {found}"):
        read_csv(src)


def test_svg_labels_escaped():
    x, y = _plot_vectors(3)
    root = ET.fromstring(scatter_svg(x, y, x_label="a<b & c", y_label='"y" > 0'))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["a<b & c", '"y" > 0']


# parse_value as it was before the column reader: one cell at a time,
# with its own two patterns and its own arithmetic
_REF_PAREN_RE = re.compile(
    rf"\s*(?P<val>{_NUM})\((?P<unc>\d+\.\d*|\.\d+|\d+)\)(?P<exp>{_EXP})?\s*$")
_REF_PM_RE = re.compile(
    rf"\s*(?P<lp>\()?\s*(?P<val>{_NUMERAL})\s*(?:±|\+/-)\s*"
    rf"(?P<unc>{_NUMERAL})\s*(?(lp)\))(?P<exp>{_EXP})?\s*$")
_REF_BARE_RE = re.compile(rf"\s*(?P<val>{_NUMERAL})\s*$")
_REF_NAN_RE = re.compile(r"\s*NaN(?:\(NaN\)|\s*(?:±|\+/-)\s*NaN)\s*$")


def _reference_exponent(text):
    digits = text.lstrip("+-").lstrip("0") or "0"
    n = min(int(digits[:20]), 10**19)
    return -n if text[0] == "-" else n


def _reference_scaled(numeral, expn):
    mantissa, _, exp = numeral.lower().partition("e")
    if exp:
        expn += _reference_exponent(exp)
    return float(f"{mantissa}e{expn}")


def _reference_parse_value(s):
    m = _REF_PAREN_RE.match(s) or _REF_PM_RE.match(s)
    if m:
        val, unc, exp = m.group("val", "unc", "exp")
        expn = _reference_exponent(exp[1:]) if exp else 0
        v = _reference_scaled(val, expn)
        if m.re is _REF_PAREN_RE and "." not in unc:
            expn -= len(val.partition(".")[2])
        return UncertainScalar(v, _reference_scaled(unc, expn))
    if m := _REF_BARE_RE.match(s):
        return UncertainScalar(float(m.group("val")), 0.0)
    if _REF_NAN_RE.match(s):
        return UncertainScalar(math.nan, math.nan)
    raise ParseError(f"unrecognized measurement syntax {s!r}")


def _reference_classify(cells):
    """table._classify one cell at a time."""
    if all(map(_PLAIN_RE.fullmatch, cells)):
        return np.array([float(c) for c in cells], dtype=float)
    try:
        parsed = [_reference_parse_value(c) for c in cells]
    except (NegativeError, ParseError):
        return cells
    return UncertainVector._unchecked([p.value for p in parsed], [p.error for p in parsed])


def _bits(column):
    if isinstance(column, UncertainVector):
        return "uncertain", column.values.tobytes(), column.errors.tobytes()
    if isinstance(column, np.ndarray):
        return "numeric", column.tobytes()
    return "text", column


_LONG = "0" * 25
_measurements = st.builds(
    lambda v, e, style, digits: format_value(v, e, Notation(style, digits)),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.15, -2.5, 25.0, 2500.0, -0.05, 9.96e20, -9.96e-20]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | st.sampled_from([0.25, 0.35, 1e-310, 1e300]),
    st.sampled_from(["parenthesis", "plus-minus"]),
    st.integers(1, 17),
)
# cells in forms format_value does not write, or that no form reads
_odd_cells = st.sampled_from([
    "42", "-0", "2e-3", "NaN(NaN)", "NaN ± NaN", "1\n± 2", "1(1)\x002(1)", "5 ± -1",
    "0(Inf)", "abc", "", " 3.0(1) ", "(1.5 ± 0.2)e3", "1 +/- 1",
    f"1.5(2)e-{_LONG}3", f"1e+{_LONG}2 ± 1e-{_LONG}1", "1(1)e" + "1" * 30, "1 ± 1e999",
])
_columns = st.lists(
    st.one_of(_measurements, _measurements, _measurements, _odd_cells), min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(cells=_columns)
def test_classify_matches_per_cell_reference(cells):
    assert _bits(table._classify(cells)) == _bits(_reference_classify(cells))


@pytest.mark.parametrize("cells, kind", [
    (["1.0(1)", "2 ± 1"], "uncertain"),
    (["1.0(1)", "2"], "uncertain"),  # a bare numeral is exact
    (["1.0(1)", "1\n± 2"], "uncertain"),
    (["1.0(1)", "NaN ± NaN"], "uncertain"),
    (["1.0(1)", "1(1)\x002(1)"], "text"),
    (["1.0(1)\x00", "2(1)"], "text"),  # as many matches as cells, one NUL too many
    (["1.0(1)", "5 ± -1"], "text"),  # an illegal pair
    (["1.0(1)", "1 ± 1e999"], "text"),
    (["alpha", "1.0(1)"], "text"),
])
def test_classify_mixed_columns(cells, kind):
    out = table._classify(cells)
    assert _bits(out)[0] == kind
    assert _bits(out) == _bits(_reference_classify(cells))


def _uncertain_csv(rows):
    """Four uncertain columns, parenthesis and plus-minus cells alternating."""
    rng = np.random.default_rng(11)
    values = rng.uniform(-1e3, 1e3, (rows, 4)).tolist()
    errors = rng.uniform(1e-3, 1.0, (rows, 4)).tolist()
    lines = ["a,b,c,d"]
    for i, (vs, es) in enumerate(zip(values, errors)):
        lines.append(",".join(
            f"{v:.3f}({round(e * 1000)})" if (i + j) % 2 else f"{v:.3f} ± {e:.3f}"
            for j, (v, e) in enumerate(zip(vs, es))))
    return "\n".join(lines) + "\n"


def test_read_csv_reads_uncertain_columns_whole(monkeypatch):
    calls, parse_value = [], formatting.parse_value

    def counted(s):
        calls.append(s)
        return parse_value(s)

    monkeypatch.setattr(table, "parse_value", counted)
    monkeypatch.setattr(formatting, "parse_value", counted)
    t = read_csv(_uncertain_csv(2_000))
    assert calls == []
    assert all(isinstance(t.columns[n], UncertainVector) for n in "abcd")


def _read_csv_peak(text):
    """tracemalloc peak, in bytes, of read_csv on text."""
    tracemalloc.start()
    try:
        read_csv(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_csv_memory_peak(monkeypatch):
    text = _uncertain_csv(10_000)
    peak = _read_csv_peak(text)
    # the same read with every cell through its own parse_value call
    monkeypatch.setattr(table, "_classify", _reference_classify)
    per_cell_peak = _read_csv_peak(text)
    assert peak <= 1.2 * per_cell_peak
