import xml.etree.ElementTree as ET

import numpy as np
import pytest

from errprop import eval_uncertain, make_uncertain, parse_expr
from errprop.core import UncertainScalar, UncertainVector
from errprop.exceptions import ErrpropError
from errprop.svg import scatter_svg
from errprop.table import (
    Table,
    attach_errors,
    derive_column,
    read_csv,
    summarize,
)
from errprop.formatting import Notation
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
