import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from errprop import McConfig, mc_propagate, parse_expr
from errprop.cli import main
from errprop.formatting import parse_value
from errprop.table import read_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_division(capsys):
    code, out, _ = run(capsys, "eval", "x/y", "x=5.00(1)", "y=1.00(1)")
    assert code == 0
    assert out == "5.00(5)\n"


def test_eval_exact_passthrough(capsys):
    code, out, _ = run(capsys, "eval", "x", "x=42")
    assert code == 0
    assert out == "42\n"


def test_eval_unbound_is_exit_2(capsys):
    code, out, err = run(capsys, "eval", "x/y", "x=5.00(1)")
    assert code == 2
    assert out == ""
    assert "unbound variable: y" in err


def test_eval_bad_expression_is_exit_2(capsys):
    code, _, err = run(capsys, "eval", "x +", "x=1")
    assert code == 2
    assert err


def test_eval_infinite_uncertainty_in_input_and_result(capsys):
    code, out, err = run(capsys, "eval", "x", "x=1 ± 1e999")
    assert code == 2
    assert out == ""
    assert "finite and nonnegative" in err and "(position 4)" in err
    # a result may carry an infinite or a NaN uncertainty
    assert run(capsys, "eval", "sqrt(x)", "x=0(1)")[:2] == (0, "0(Inf)\n")
    code, out, _ = run(capsys, "eval", "x^y + 1", "x=-2.0(1)", "y=2.0(1)",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 5.0 and doc["error"] is None  # JSON has no NaN


@pytest.mark.parametrize("expr, position", [
    ("(" * 3000 + "x" + ")" * 3000, 100),
    ("0" + "-" * 3000 + "x", 102),
    ("sin(" * 3000 + "x" + ")" * 3000, 400),
], ids=["parentheses", "signs", "calls"])
def test_eval_deep_nesting_is_exit_2(capsys, expr, position):
    code, out, err = run(capsys, "eval", expr, "x=1(1)")
    assert code == 2
    assert out == ""
    assert f"nested deeper than 100 levels (position {position})" in err


def test_eval_nesting_at_the_limit(capsys):
    code, out, _ = run(capsys, "eval", "(" * 99 + "x" + ")" * 99, "x=1(1)")
    assert code == 0
    assert out == "1(1)\n"


def test_eval_flat_chain(capsys):
    # the tree of a flat chain is as deep as the chain is long
    code, out, _ = run(capsys, "eval", "+".join(["x"] * 5000), "x=1(1)")
    assert code == 0
    assert out == "5000(70)\n"


def test_eval_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "eval", "--digits", "2", "--", "-x", "x=1.0(1)")
    assert code == 0
    assert out == "-1.00(10)\n"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "x/y", "x=5.00(1)", "y=1.00(1)",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(5.0, rel=1e-12)
    assert doc["error"] == pytest.approx(0.050990195135927854, rel=1e-12)
    assert doc["formatted"] == "5.00(5)"


def test_eval_notation_flags(capsys):
    code, out, _ = run(capsys, "eval", "x", "x=5.00(5)",
                       "--notation", "plus-minus", "--digits", "2")
    assert code == 0
    assert out == "5.000 ± 0.050\n"


def test_eval_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ERRPROP_NOTATION", "plus-minus")
    code, out, _ = run(capsys, "eval", "x", "x=5.00(5)")
    assert code == 0
    assert out == "5.00 ± 0.05\n"
    # flags win over the environment
    code, out, _ = run(capsys, "eval", "x", "x=5.00(5)", "--notation", "parenthesis")
    assert out == "5.00(5)\n"


def test_digits_range(capsys, monkeypatch):
    assert run(capsys, "eval", "--digits", "17", "x", "x=1(1)")[:2] == (
        0, "1.0000000000000000(10000000000000000)\n")
    code, out, err = run(capsys, "eval", "--digits", "18", "x", "x=1(1)")
    assert (code, out) == (2, "") and "digits must be between 1 and 17" in err
    monkeypatch.setenv("ERRPROP_DIGITS", "18")
    code, out, err = run(capsys, "eval", "x", "x=1(1)")
    assert (code, out) == (2, "") and "digits must be between 1 and 17" in err


@pytest.mark.parametrize("binding, pair", [
    ("x=1 ± 1e-310", (1.0, 1e-310)), ("x=1e308 ± 1", (1e308, 1.0)),
])
@pytest.mark.parametrize("notation", ["parenthesis", "plus-minus"])
def test_eval_far_apart_value_and_uncertainty(capsys, binding, pair, notation):
    # the value is printed to the uncertainty's place, however many digits
    code, out, _ = run(capsys, "eval", "--notation", notation, "x", binding)
    assert code == 0
    out = parse_value(out)
    assert (out.value, out.error) == pair


@pytest.mark.parametrize("binding, position", [
    ("x=1(1)e99999999", 2), ("x=1 ± 1e99999999", 4),
    pytest.param("x=1(1)e" + "1" * 5000, 2, id="paren-5000-digit-exponent"),
    pytest.param("x=1 ± 1e" + "1" * 5000, 4, id="pm-5000-digit-exponent"),
])
def test_eval_exponent_past_float_range_is_exit_2(capsys, binding, position):
    code, out, err = run(capsys, "eval", "x", binding)
    assert (code, out) == (2, "")
    assert f"(position {position})" in err


def test_table_derive(tmp_path, capsys):
    src = tmp_path / "t.csv"
    # attach i/30 errors from a second column
    src.write_text(
        "x,e\n" + "\n".join(f"{i},{i/30!r}" for i in range(1, 9)) + "\n"
    )
    code, out, _ = run(
        capsys, "table", str(src), "--error-col", "x=e",
        "--derive", "3x=3*x", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,e,3x"
    assert lines[1].split(",")[0] == "1.00(3)"
    assert lines[1].split(",")[2] == "3.0(1)"
    assert lines[8].split(",")[2] == "24.0(8)"


def test_table_relative_error_iris_head(tmp_path, capsys):
    src = tmp_path / "iris.csv"
    src.write_text("Sepal.Length,Species\n5.1,setosa\n4.9,setosa\n")
    code, out, _ = run(capsys, "table", str(src),
                       "--rel-error", "Sepal.Length=0.02", "--format", "csv")
    assert code == 0
    assert out.split("\n")[1].split(",")[0] == "5.1(1)"


def test_table_empty(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("a,b\n")
    code, out, _ = run(capsys, "table", str(src), "--format", "csv")
    assert code == 0
    assert out == "a,b\n"
    code, out, _ = run(capsys, "table", str(src), "--derive", "c=2*a",
                       "--derive", "k=2", "--format", "csv")
    assert code == 0
    assert out == "a,b,c,k\n"


def test_table_constant_derive_fills_every_row(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("g,x\na,1\nb,2\nc,3\n")
    code, out, _ = run(capsys, "table", str(src), "--derive", "k=2",
                       "--format", "csv")
    assert code == 0
    assert out == "g,x,k\na,1,2\nb,2,2\nc,3,2\n"


def test_table_derive_from_text_column_is_exit_2(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("g,x\na,1\n")
    code, out, err = run(capsys, "table", str(src), "--derive", "z=2*g")
    assert code == 2
    assert out == ""
    assert "unbound variable: g" in err


def test_table_ragged_row_is_exit_2(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("a,b\n1,2,3\n")
    code, _, err = run(capsys, "table", str(src))
    assert code == 2
    assert "line 2: expected 2 cells, found 3" in err


def test_table_nonfinite_numeric_cells(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("a,b\n1,inf\n2,nan\n")
    code, out, _ = run(capsys, "table", str(src), "--format", "csv")
    assert code == 0
    assert out == "a,b\n1,Inf\n2,NaN\n"
    back = read_csv(out).columns["b"]
    assert isinstance(back, np.ndarray)
    assert back[0] == math.inf and math.isnan(back[1])


def test_table_numeral_grammar(tmp_path, capsys):
    # float() reads "1_000" and "infinity"; a numeric cell is a bare numeral,
    # or inf or nan in any case
    src = tmp_path / "t.csv"
    src.write_text("id,b,c\n1_000,-INF,infinity\n2_5,Nan,1\n")
    code, out, _ = run(capsys, "table", str(src), "--format", "csv")
    assert code == 0
    assert out == "id,b,c\n1_000,-Inf,infinity\n2_5,NaN,1\n"
    back = read_csv(out).columns
    assert isinstance(back["id"], list) and isinstance(back["c"], list)
    assert isinstance(back["b"], np.ndarray)


@pytest.mark.parametrize("notation, nan_cell", [
    ("parenthesis", "NaN(NaN)"), ("plus-minus", "NaN ± NaN"),
])
def test_table_nan_rows_roundtrip(tmp_path, capsys, notation, nan_cell):
    src = tmp_path / "t.csv"
    src.write_text("x\n4(1)\n-4(1)\n")
    code, out, _ = run(capsys, "table", str(src), "--derive", "r=sqrt(x)",
                       "--notation", notation, "--format", "csv")
    assert code == 0
    assert out.splitlines()[2].endswith("," + nan_cell)
    r = read_csv(out).columns["r"]
    assert np.isnan(r.values[1]) and np.isnan(r.errors[1]) and r.values[0] == 2.0
    src.write_text(out)
    code, out, _ = run(capsys, "table", str(src), "--derive", "q=r*2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["4(1),2.0(3),4.0(6)", "-4(1),NaN(NaN),NaN(NaN)"]


plain_floats = (st.floats() | st.integers(10**16, 10**300).map(float)
                | st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, 1e300, -0.0]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(plain_floats, min_size=1, max_size=20))
def test_table_numeric_column_roundtrip(tmp_path, capsys, values):
    src = tmp_path / "t.csv"
    src.write_text("a\n" + "".join(f"{v!r}\n" for v in values))
    code, out, _ = run(capsys, "table", str(src), "--format", "csv")
    assert code == 0
    back = read_csv(out).columns["a"]
    assert isinstance(back, np.ndarray)
    # NaN equals NaN here, and -0.0 equals 0, so compare the sign apart
    np.testing.assert_array_equal(back, np.array(values))
    numbers = ~np.isnan(back)
    assert (np.signbit(back) == np.signbit(values))[numbers].all()


def test_table_summarize(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("x\n1.00(3)\n2.00(3)\n3.00(3)\n")
    code, out, _ = run(capsys, "table", str(src), "--summarize", "mean(x)")
    assert code == 0
    assert "mean(x) = " in out


def test_table_missing_column_is_exit_2(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("x\n1\n")
    code, _, err = run(capsys, "table", str(src), "--rel-error", "y=0.02")
    assert code == 2
    assert "y" in err


def test_mc_determinism(tmp_path, capsys):
    args = ("mc", "x/y", "x=5.00(1)", "y=1.00(1)",
            "--samples", "20000", "--seed", "42", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["tsm_sd"] == pytest.approx(0.0509902, abs=1e-7)
    assert doc["mcm_sd"] == pytest.approx(0.0509902, rel=0.05)
    assert doc["relative_gap"] < 0.05


def test_mc_flat_chain(capsys):
    code, out, _ = run(capsys, "mc", "+".join(["x"] * 3000), "x=1(1)",
                       "--samples", "1000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tsm_value"] == 3000
    assert doc["tsm_sd"] == pytest.approx(math.sqrt(3000))


def test_mc_linear_gap_small(capsys):
    code, out, _ = run(capsys, "mc", "x+y", "x=1.0(1)", "y=2.0(1)",
                       "--samples", "100000", "--seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["relative_gap"] < 0.01


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 does."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_output_has_no_nonfinite_numbers(capsys):
    # a number JSON cannot hold is null; the text field still shows it
    code, out, _ = run(capsys, "eval", "sqrt(x)", "x=0(1)", "--format", "json")
    assert code == 0
    assert _strict_json(out) == {"value": 0.0, "error": None, "formatted": "0(Inf)"}
    code, out, _ = run(capsys, "mc", "1/x", "x=0(1)", "--samples", "1000", "--format", "json")
    assert code == 0
    doc = _strict_json(out)
    assert [k for k, v in doc.items() if v is None] == ["tsm_value", "tsm_sd", "relative_gap"]
    assert all(math.isfinite(v) for v in doc.values() if v is not None)


def test_eval_uncertainty_past_float_range_reads_back(capsys):
    # rounded to one digit the uncertainty would be 2e308, which is infinite
    for notation in ("parenthesis", "plus-minus"):
        code, out, _ = run(capsys, "eval", "x", "x=5e-324 ± 1.7976931348623157e308",
                           "--notation", notation)
        assert code == 0
        back = parse_value(out)
        assert (back.value, back.error) == (0.0, 1.7976931348623157e308)


def test_mc_json_reports_dropped_draws(capsys):
    args = ("mc", "ln(x)", "x=3(0.9)", "--samples", "100000", "--seed", "6")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    n = json.loads(out)["mcm_n_nonfinite"]
    assert 0 < n < 1000
    cfg = McConfig(samples=100_000, seed=6)
    assert n == mc_propagate(parse_expr("ln(x)"), {"x": parse_value("3(0.9)")}, cfg).n_nonfinite
    # the field is JSON only
    for fmt in ("csv", "text"):
        assert "n_nonfinite" not in run(capsys, *args, "--format", fmt)[1]


def test_plot_writes_deterministic_svg(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    rows = [f"{1 + i/10!r},{2 + i/5!r},{'a' if i % 2 else 'b'}" for i in range(20)]
    src.write_text("x,y,g\n" + "\n".join(rows) + "\n")
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for dest in (out1, out2):
        code = main(["plot", str(src), "--rel-error", "x=0.02",
                     "--rel-error", "y=0.02", "--x", "x", "--y", "y",
                     "--group", "g", "-o", str(dest)])
        assert code == 0
    svg = out1.read_text()
    assert svg == out2.read_text()
    assert svg.count('class="pt"') == 20


def test_plot_takes_no_output_flags(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("x,y\n1,2\n")
    for flag in (["--format", "json"], ["--notation", "plus-minus"], ["--digits", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(src), "--x", "x", "--y", "y",
                  "-o", str(tmp_path / "o.svg"), *flag])
        assert exc.value.code == 2


def test_plot_requires_uncertain_columns(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("x,y\n1,2\n")
    code = main(["plot", str(src), "--x", "x", "--y", "y",
                 "-o", str(tmp_path / "o.svg")])
    assert code == 2


def test_plot_missing_column_is_exit_2(tmp_path, capsys):
    src = tmp_path / "pts.csv"
    src.write_text("x,y\n1,2\n")
    code = main(["plot", str(src), "--rel-error", "x=0.1", "--x", "x",
                 "--y", "nope", "-o", str(tmp_path / "o.svg")])
    assert code == 2


# expressions that mostly parse, and any text over the expression alphabet
expressions = st.recursive(
    st.sampled_from(["x", "y", "z", "0", "1", "2.5", "1e999", "1e-3"]),
    lambda inner: st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", "**", ","]),
                            inner).map("".join)
    | st.tuples(st.sampled_from(["-{}", "({})", "sqrt({})", "ln({})", "sin({})",
                                 "atan2({}, x)", "sqrt({}, x)", "nope({})"]),
                inner).map(lambda t: t[0].format(t[1])),
    max_leaves=8,
) | st.text("xyz0123456789.e+-*/^(), $", max_size=20)
bindings = st.sampled_from(["1(1)", "0(1)", "-2(0.1)", "1 ± 1e999", "1e999", "5.00(5)"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=expressions, x=bindings, y=bindings)
def test_exit_codes_are_0_or_2(capsys, expr, x, y):
    env = [f"x={x}", f"y={y}"]
    assert run(capsys, "eval", "--", expr, *env)[0] in (0, 2)
    assert run(capsys, "mc", "--samples", "200", "--", expr, *env)[0] in (0, 2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=expressions, x=bindings, y=bindings)
def test_eval_json_is_strict_json(capsys, expr, x, y):
    code, out, _ = run(capsys, "eval", "--format", "json", "--", expr, f"x={x}", f"y={y}")
    if code == 0:
        doc = _strict_json(out)
        assert set(doc) == {"value", "error", "formatted"}
