import math
import re
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errprop import eval_uncertain, formatting, make_uncertain, parse_expr, svg, table
from errprop.cli import main
from errprop.core import UncertainScalar, UncertainVector, subset
from errprop.exceptions import ErrpropError, NegativeError, ParseError
from errprop.svg import scatter_svg
from errprop.table import (
    Table,
    attach_errors,
    derive_column,
    read_csv,
    summarize,
)
from errprop.formatting import Notation, format_value
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


# the spec pattern before the reader was linear, kept as the reference
_SUMMARY_REFERENCE = re.compile(r"\s*(?P<fn>mean|median|sum)\(\s*(?P<col>[^)]+?)\s*\)\s*$")
_SPEC_PIECES = ["mean", "median", "sum", "mode", "(", ")", " ", "\t", "\n", "\xa0", "x", "a b",
                "med", "ian", "su"]
_pieces = st.lists(st.sampled_from(_SPEC_PIECES), max_size=4).map("".join)
_blanks = st.lists(st.sampled_from([" ", "\t", "\n", "\xa0"]), max_size=3).map("".join)
# mostly specs of the form the reader takes, each piece of which may be off
_specs = (st.tuples(_blanks | _pieces, st.sampled_from(["mean", "median", "sum", "mode"]),
                    st.sampled_from(["(", "(", ""]), _pieces, st.sampled_from([")", ")", ""]),
                    _blanks | _pieces)
          .map("".join)
          | st.lists(st.sampled_from(_SPEC_PIECES), max_size=8).map("".join))


@settings(max_examples=300, deadline=None)
@given(_specs)
@example("mean( )")
@example("sum( \t)\n")
@example(" median(a b )  ")
def test_summary_reader_matches_reference(spec):
    m = _SUMMARY_REFERENCE.match(spec)
    if m and not m["col"].strip():
        m = None  # a blank column is a bad summary, not the column ' '
    try:
        got = table._read_summary(spec)
    except ErrpropError as exc:
        assert m is None
        assert str(exc) == f"bad summary {spec!r}; use mean(col)|median(col)|sum(col)"
    else:
        assert m is not None and got == (m["fn"], m["col"])


def test_summary_reader_is_linear():
    start = time.perf_counter()
    with pytest.raises(ErrpropError, match="bad summary"):
        table._read_summary("mean(x" + " " * 50_000 + "y")
    assert time.perf_counter() - start < 0.5


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


def test_svg_labels_forbidden_in_xml_replaced():
    x, y = _plot_vectors(3)
    label = "a\x01b\x00\x0b\x1f\ud800\udfff\ufffe\uffff\tc"
    root = ET.fromstring(scatter_svg(x, y, x_label=label, y_label="\x7f\u00e9"))
    labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["a\ufffdb" + "\ufffd" * 7 + "\tc", "\x7f\u00e9"]


def _reference_svg_rows(x, y, groups=None):
    """The point rows of scatter_svg as it wrote them one point at a time,
    with Python floats and ten formats a row, on the same axis ranges."""
    def axis(lo, hi, pix_lo, pix_hi):
        a = svg._Axis(lo, hi, pix_lo, pix_hi)
        lo, hi = a.lo, a.hi
        return lambda v: pix_lo + (v - lo) / (hi - lo) * (pix_hi - pix_lo)

    fmt = "{:.2f}".format
    with np.errstate(all="ignore"):
        xmin, xmax = x.values - x.errors, x.values + x.errors
        ymin, ymax = y.values - y.errors, y.values + y.errors
    n = len(x)

    def finite_range(lo, hi):
        # each axis spans its finite bar ends only
        ends = [e for e in lo.tolist() + hi.tolist() if math.isfinite(e)]
        return (min(ends), max(ends)) if ends else (0.0, 1.0)

    xaxis = axis(*finite_range(xmin, xmax), 40.0, 760.0)
    yaxis = axis(*finite_range(ymin, ymax), 570.0, 30.0)
    color_of = {}
    for g in groups or ():
        color_of.setdefault(g, svg.PALETTE[len(color_of) % len(svg.PALETTE)])
    rows = []
    for i in range(n):
        color = color_of[groups[i]] if groups is not None else svg.PALETTE[0]
        cx, cy = xaxis(float(x.values[i])), yaxis(float(y.values[i]))
        x0, x1 = xaxis(float(xmin[i])), xaxis(float(xmax[i]))
        y0, y1 = yaxis(float(ymin[i])), yaxis(float(ymax[i]))
        # an element is written only if its own coordinates are finite
        if all(map(math.isfinite, (x0, x1, cy))):
            rows.append(f'<line x1="{fmt(x0)}" y1="{fmt(cy)}" x2="{fmt(x1)}" '
                        f'y2="{fmt(cy)}" stroke="{color}" class="xbar"/>')
        if all(map(math.isfinite, (cx, y0, y1))):
            rows.append(f'<line x1="{fmt(cx)}" y1="{fmt(y0)}" x2="{fmt(cx)}" '
                        f'y2="{fmt(y1)}" stroke="{color}" class="ybar"/>')
        if all(map(math.isfinite, (cx, cy))):
            rows.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.0" '
                        f'fill="none" stroke="{color}" class="pt"/>')
    return rows


_svg_values = (st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1e308, 5e-324, 1e-300]))
_svg_errors = st.floats(0.0, 1.7976931348623157e308) | st.sampled_from([0.0, 5e-324, 1e308])
# legal pairs: a finite nonnegative uncertainty, or NaN on a NaN value
_svg_pairs = st.tuples(_svg_values, _svg_errors) | st.just((math.nan, math.nan))
_svg_labels = st.text(st.characters() | st.sampled_from(
    list("&<>\"'\x00\x01\x08\t\n\r\x0b\x0c\x1f\x7f\ud800\udbff\udfff\ufffe\uffff")))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_svg_pairs, _svg_pairs, st.sampled_from("abcdefghij")),
                       max_size=30),
       grouped=st.booleans(), x_label=_svg_labels, y_label=_svg_labels)
def test_svg_well_formed_and_equal_to_row_loop(points, grouped, x_label, y_label):
    x = UncertainVector([p[0][0] for p in points], [p[0][1] for p in points])
    y = UncertainVector([p[1][0] for p in points], [p[1][1] for p in points])
    groups = [p[2] for p in points] if grouped else None
    out = scatter_svg(x, y, groups, x_label=x_label, y_label=y_label)
    root = ET.fromstring(out)
    want = _reference_svg_rows(x, y, groups)
    assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == sum(
        r.startswith("<circle") for r in want)
    assert len(root.findall("{http://www.w3.org/2000/svg}line")) == sum(
        r.startswith("<line") for r in want)
    _assert_svg_numbers(root)
    # an escaped label holds no "<": every line that starts with one is markup
    rows = [line for line in out.split("\n") if line.startswith(("<line", "<circle"))]
    assert rows == want


# a number in SVG 1.1's attribute grammar; no nan, no inf
_SVG_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _assert_svg_numbers(root):
    for el in root.iter():
        for name in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "r", "width", "height"):
            if name in el.attrib:
                assert _SVG_NUMBER.fullmatch(el.attrib[name]), (el.tag, name, el.attrib[name])


@pytest.mark.parametrize("value, error", [(math.nan, math.nan), (math.inf, 0.0)])
def test_svg_nonfinite_row_moves_no_other_point(value, error):
    # the row has no finite x, so it draws nothing, and the axes span the
    # other rows' bars
    y = make_uncertain([10.0, 20.0, 30.0], 1.0)
    with_row = scatter_svg(UncertainVector([1.0, 2.0, value], [0.1, 0.1, error]), y)
    without = scatter_svg(make_uncertain([1.0, 2.0], 0.1), subset(y, [0, 1]))
    cx = [[c.get("cx") for c in ET.fromstring(out).iter("{http://www.w3.org/2000/svg}circle")]
          for out in (with_row, without)]
    assert cx == [["100.00", "700.00"], ["100.00", "700.00"]]
    assert with_row.count("<line") == without.count("<line") == 4


def test_svg_infinite_error_keeps_the_marker_and_the_finite_bar():
    # x = 1.5 with an infinite error: no horizontal bar, but its vertical
    # bar and its marker, and every number in the file is an SVG number
    x = UncertainVector._unchecked(np.array([1.0, 2.0, 1.5]), np.array([0.1, 0.1, math.inf]))
    out = scatter_svg(x, make_uncertain([10.0, 20.0, 30.0], 1.0))
    root = ET.fromstring(out)
    _assert_svg_numbers(root)
    svg_ns = "{http://www.w3.org/2000/svg}"
    assert [c.get("cx") for c in root.iter(svg_ns + "circle")] == ["100.00", "700.00", "400.00"]
    assert [line.get("class") for line in root.iter(svg_ns + "line")] == [
        "xbar", "ybar", "xbar", "ybar", "ybar"]


@pytest.mark.parametrize("v", [4503599627370498.0, -1e300, 1.7976931348623157e308])
def test_svg_one_point_beyond_half_unit_spacing(v):
    # v - 0.5 and v + 0.5 round back to v: the range is widened in
    # proportion, not divided by zero
    x = make_uncertain([v], [0.0])
    root = ET.fromstring(scatter_svg(x, make_uncertain([1.0], [0.1])))
    assert 40.0 <= float(root.find("{http://www.w3.org/2000/svg}circle").get("cx")) <= 760.0


def test_read_csv_classifies_only_named_columns():
    t = read_csv("a,b,c\n1(1),2,x\n", columns={"a", "missing"})
    assert isinstance(t.columns["a"], UncertainVector)
    assert (t.columns["b"], t.columns["c"]) == (["2"], ["x"])
    # the header and every row are still checked
    with pytest.raises(ErrpropError, match="line 3: expected 2 cells, found 1"):
        read_csv("a,b\n1,2\n3\n", columns={"a"})
    with pytest.raises(ErrpropError, match="duplicate column 'b'"):
        read_csv("a,b,b\n1,2,3\n", columns={"a"})


def test_plot_classifies_only_the_columns_it_draws(tmp_path, monkeypatch):
    src = tmp_path / "p.csv"
    src.write_text("g,a,b,c,e,f\n1,1(1),2,3(1),0.1,u\n1.0,2(1),3,4(1),0.2,v\n",
                   encoding="utf-8")
    classified, classify = [], table._classify
    monkeypatch.setattr(table, "_classify",
                        lambda cells: classified.append(cells[0]) or classify(cells))
    out = tmp_path / "o.svg"
    assert main(["plot", str(src), "--x", "a", "--y", "b", "--error-col", "b=e",
                 "--group", "g", "-o", str(out)]) == 0
    assert classified == ["1", "1(1)", "2", "0.1"]  # g, a, b and e
    # numeric labels 1 and 1.0 are one group, with one color
    circles = ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}circle")
    assert {c.get("stroke") for c in circles} == {svg.PALETTE[0]}


def test_plot_label_with_control_character(tmp_path):
    src = tmp_path / "c.csv"
    src.write_text("a\x01b,y\n1(1),2(1)\n3(1),4(1)\n", encoding="utf-8")
    out = tmp_path / "o.svg"
    assert main(["plot", str(src), "--x", "a\x01b", "--y", "y", "-o", str(out)]) == 0
    labels = [t.text for t in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["a\ufffdb", "y"]


# parse_value and the plain-cell test as they were before the column
# reader: one cell at a time, with their own patterns and arithmetic
_REF_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"
_REF_EXP = r"[eE][+-]?\d+"
_REF_NUMERAL = rf"{_REF_NUM}(?:{_REF_EXP})?"
_REF_PLAIN_RE = re.compile(rf"{_REF_NUMERAL}|[+-]?(?:inf|nan)", re.IGNORECASE)
_REF_PAREN_RE = re.compile(
    rf"\s*(?P<val>{_REF_NUM})\((?P<unc>\d+\.\d*|\.\d+|\d+)\)(?P<exp>{_REF_EXP})?\s*$")
_REF_PM_RE = re.compile(
    rf"\s*(?P<lp>\()?\s*(?P<val>{_REF_NUMERAL})\s*(?:±|\+/-)\s*"
    rf"(?P<unc>{_REF_NUMERAL})\s*(?(lp)\))(?P<exp>{_REF_EXP})?\s*$")
_REF_BARE_RE = re.compile(rf"\s*(?P<val>{_REF_NUMERAL})\s*$")
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
    if all(map(_REF_PLAIN_RE.fullmatch, cells)):
        return np.array([float(c) for c in cells], dtype=float)
    try:
        parsed = [_reference_parse_value(c) for c in cells]
    except (NegativeError, ParseError):
        return cells
    return UncertainVector._unchecked(np.array([p.value for p in parsed], dtype=float),
                                      np.array([p.error for p in parsed], dtype=float))


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
    (["1", "-Inf", "nan", "2e-3"], "numeric"),
    ([], "numeric"),  # a header with no rows
    (["1", "1_0"], "text"),
    (["1", "1\x002"], "text"),
    ([" 42", "1"], "uncertain"),  # a bare number with spaces is exact
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
    # no cell of either form written by format_value takes the per-cell fallback
    calls, pair = [], formatting._pair

    def counted(*groups):
        calls.append(groups)
        return pair(*groups)

    monkeypatch.setattr(formatting, "_pair", counted)
    t = read_csv(_uncertain_csv(2_000))
    assert calls == []
    assert all(isinstance(t.columns[n], UncertainVector) for n in "abcd")


@pytest.mark.parametrize("digits", [1, 2, 3])
def test_format_column_prints_most_pairs_by_printf(monkeypatch, digits):
    # every text test passes if _routes sends all pairs to _exact; this one
    # holds the fast path to its share of a column of ordinary pairs
    calls, exact = [], formatting._exact

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(formatting, "_exact", counted)
    rng = np.random.default_rng(17)
    x = UncertainVector(rng.uniform(-1e3, 1e3, 10_000), rng.uniform(1e-3, 1.0, 10_000))
    formatting.format_column(x, Notation(digits=digits))
    assert len(calls) < 1_000


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
