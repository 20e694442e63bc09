import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from errprop import McConfig, mc_propagate, parse_expr
from errprop.cli import main
from errprop.formatting import parse_value
from errprop.mc import MAX_SAMPLES
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
    # an input may carry an infinite or a NaN uncertainty, but no negative one
    assert run(capsys, "eval", "x", "x=1 ± 1e999")[:2] == (0, "1(Inf)\n")
    assert run(capsys, "eval", "x", "x=5(NaN)")[:2] == (0, "5(NaN)\n")
    for binding in ("x=5 ± -1", "x=1 ± -1e999"):
        code, out, err = run(capsys, "eval", "x", binding)
        assert (code, out) == (2, "")
        assert "must not be negative" in err and "(position 4)" in err
    # a result may carry an infinite or a NaN uncertainty, and prints its value
    assert run(capsys, "eval", "sqrt(x)", "x=0(1)")[:2] == (0, "0(Inf)\n")
    assert run(capsys, "eval", "x^y + 1", "x=-2.0(1)", "y=2.0(1)")[:2] == (0, "5(NaN)\n")
    code, out, _ = run(capsys, "eval", "x^y + 1", "x=-2.0(1)", "y=2.0(1)",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 5.0 and doc["error"] is None  # JSON has no NaN
    assert doc["formatted"] == "5(NaN)"


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


def test_digits_environment_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ERRPROP_DIGITS", "abc")
    code, out, err = run(capsys, "eval", "x", "x=1(1)")
    assert (code, out) == (2, "") and "ERRPROP_DIGITS" in err and "'abc'" in err


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


@pytest.mark.parametrize("binding, printed", [
    ("x=1(1)e99999999", "Inf(Inf)"), ("x=1 ± 1e99999999", "1(Inf)"),
    pytest.param("x=1(1)e" + "1" * 5000, "Inf(Inf)", id="paren-5000-digit-exponent"),
    pytest.param("x=1 ± 1e" + "1" * 5000, "1(Inf)", id="pm-5000-digit-exponent"),
])
def test_eval_exponent_past_float_range_reads_as_infinite(capsys, binding, printed):
    # as a bare 1e99999999 reads as Inf
    assert run(capsys, "eval", "x", binding) == (0, printed + "\n", "")


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


@pytest.mark.parametrize("csv_text, argv, message", [
    # an unclosed parenthesis turns the column into text
    ("x,y\n1.0,2\n2.0(1,3\n", ["--derive", "r=x*2"],
     "unbound variable: x; row 2, column 'x': unrecognized measurement syntax '2.0(1' (position 5)"),
    ("x,y\n1.0,2\n2.0,3x\n", ["--abs-error", "y=0.1"],
     "column 'y' is not plain numeric; row 2, column 'y': not a number: '3x' (position 1)"),
    ("x,e\n1.0,0.1\n2.0,0.1x\n", ["--error-col", "x=e"],
     "error column 'e' is not plain numeric; row 2, column 'e': not a number: '0.1x' "
     "(position 3)"),
    ("x\n1\n2 +- 1\n", ["--summarize", "sum(x)"],
     "column 'x' is not numeric; row 2, column 'x': unrecognized measurement syntax '2 +- 1' "
     "(position 3)"),
])
def test_table_bad_cell_is_named(tmp_path, capsys, csv_text, argv, message):
    src = tmp_path / "t.csv"
    src.write_text(csv_text)
    code, _, err = run(capsys, "table", str(src), *argv)
    assert (code, err) == (2, f"errprop: {message}\n")


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


def test_table_infinite_value_roundtrip(tmp_path, capsys):
    # a number is the same text in a plain cell, an uncertain cell and a binding
    src = tmp_path / "t.csv"
    src.write_text("x\n1\nInf\n")
    code, out, _ = run(capsys, "table", str(src), "--abs-error", "x=0.1", "--format", "csv")
    assert (code, out) == (0, "x\n1.0(1)\nInf(0.1)\n")
    src.write_text(out)
    code, out, _ = run(capsys, "table", str(src), "--derive", "y=2*x", "--format", "csv")
    assert (code, out) == (0, "x,y\n1.0(1),2.0(2)\nInf(0.1),Inf(0.2)\n")
    assert run(capsys, "eval", "x", "x=inf")[:2] == (0, "Inf\n")
    assert run(capsys, "eval", "x", "x=-Inf(1)")[:2] == (0, "-Inf(1)\n")


@pytest.mark.parametrize("flag", ["--rel-error", "--abs-error"])
@pytest.mark.parametrize("value", ["1_0", "infinity", "0.1(1)", ""])
def test_table_error_flag_is_a_number(tmp_path, capsys, flag, value):
    # float() would read "1_0" as 10 and "infinity" as inf; a cell would not
    src = tmp_path / "t.csv"
    src.write_text("x\n1\n")
    code, out, err = run(capsys, "table", str(src), flag, f"x={value}")
    assert (code, out) == (2, "") and f"not a number: {value!r}" in err


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


@pytest.mark.parametrize("notation", ["parenthesis", "plus-minus"])
@pytest.mark.parametrize("cell, error", [("NaN(0.1)", 0.1), ("nan(0.00001)", 1e-05),
                                         ("NaN ± 3", 3.0), ("NaN", 0.0)])
def test_table_nan_value_keeps_its_uncertainty(tmp_path, capsys, notation, cell, error):
    # a NaN value with a finite uncertainty is written so that it reads back
    src = tmp_path / "t.csv"
    src.write_text(f"x\n{cell}\n1(1)\n")
    code, out, _ = run(capsys, "table", str(src), "--notation", notation, "--format", "csv")
    assert code == 0
    x = read_csv(out).columns["x"]
    assert math.isnan(x.values[0]) and x.errors[0] == error
    assert x.values[1] == 1.0 and x.errors[1] == 1.0


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


def test_table_summaries_of_nan_errors(tmp_path, capsys):
    # every error of r is NaN, and so is that of each summary of r
    src = tmp_path / "t.csv"
    src.write_text("x,y\n-2.0(1),2.0(1)\n-3.0(1),2.0(1)\n-2.5(1),2.0(1)\n")
    code, out, _ = run(capsys, "table", str(src), "--derive", "r=x^y", "--summarize", "sum(r)",
                       "--summarize", "mean(r)", "--summarize", "median(r)")
    assert code == 0
    assert out.splitlines()[-3:] == ["sum(r) = 19.25(NaN)", "mean(r) = 6.416666666666667(NaN)",
                                     "median(r) = 6.25(NaN)"]
    src.write_text("z\n1\n2\n3\n")
    code, out, _ = run(capsys, "table", str(src), "--abs-error", "z=nan", "--summarize", "mean(z)")
    assert (code, out.splitlines()[-1]) == (0, "mean(z) = 2(NaN)")


def test_table_summarize_inf_minus_inf(tmp_path, capsys):
    # NaN sums carry NaN errors, and numpy's warning does not reach stderr
    src = tmp_path / "t.csv"
    src.write_text("x\n1(1)\nInf(1)\n-Inf(1)\n2(1)\n")
    code, out, err = run(capsys, "table", str(src), "--summarize", "sum(x)",
                         "--summarize", "mean(x)", "--summarize", "median(x)")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == ["sum(x) = NaN(NaN)", "mean(x) = NaN(NaN)",
                                     "median(x) = 1.5(NaN)"]


@pytest.mark.parametrize("csv_text, spec, message", [
    ("x,y\n1.0(1),2\n2.0(1,3\n", "mean(x)",
     "column 'x' is not numeric; row 2, column 'x': unrecognized measurement syntax '2.0(1' "
     "(position 5)"),
    ("x,y\n1.0(1),2\n2.0(1),3\n", "bogus(x)",
     "bad summary 'bogus(x)'; use mean(col)|median(col)|sum(col)"),
])
@pytest.mark.parametrize("out_format", ["text", "csv", "json"])
def test_table_failing_summary_writes_nothing(tmp_path, capsys, csv_text, spec, message,
                                              out_format):
    # every summary is taken before the table is written
    src = tmp_path / "t.csv"
    src.write_text(csv_text)
    got = run(capsys, "table", str(src), "--summarize", "sum(y)", "--summarize", spec,
              "--format", out_format)
    assert got == (2, "", f"errprop: {message}\n")


def test_table_json_holds_the_summaries(tmp_path, capsys):
    # eval --format json's fields for each, inside the one object; a number
    # JSON cannot hold is null
    src = tmp_path / "t.csv"
    src.write_text("x,y\n1.0(1),Inf(1)\n2.0(1),-Inf(1)\n")
    code, out, _ = run(capsys, "table", str(src), "--summarize", "mean(x)",
                       "--summarize", "sum(y)", "--format", "json")
    assert code == 0 and out.count("\n") == 1
    doc = _strict_json(out)
    assert doc["summaries"] == {
        "mean(x)": {"value": 1.5, "error": 0.5, "formatted": "1.5(5)"},
        "sum(y)": {"value": None, "error": None, "formatted": "NaN(NaN)"},
    }
    code, out, _ = run(capsys, "table", str(src), "--format", "json")
    assert "summaries" not in json.loads(out)


def test_table_missing_column_is_exit_2(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("x\n1\n")
    code, _, err = run(capsys, "table", str(src), "--rel-error", "y=0.02")
    assert code == 2
    assert "y" in err


def test_mc_draws_near_the_float_limit(capsys):
    # the sums inside the mean, sd and two-middle median overflow on these
    # finite draws; every statistic is finite, and no warning leaks
    code, out, _ = run(capsys, "mc", "x", "x=1.7e308 ± 1e300", "--samples", "1000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert None not in doc.values()
    assert doc["mcm_mean"] == pytest.approx(1.7e308, rel=1e-7)
    assert doc["mcm_sd"] == pytest.approx(1e300, rel=0.1)
    assert doc["relative_gap"] < 0.1


def test_mc_draws_past_the_float_limit_is_exit_2(capsys):
    # x + 1e307 * z overflows on 153 of these draws; the helper thread
    # that draws them leaks no overflow warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "mc", "x", "x=1.7e308 ± 1e307", "--samples", "1000")
    assert (code, out) == (2, "")
    assert err == "errprop: 153 non-finite evaluations in the first 1000 of 1000\n"
    assert caught == []


@pytest.mark.parametrize("flag, value", [("--samples", str(MAX_SAMPLES + 1)),
                                         ("--samples", "1"), ("--quantiles", "1.5")])
def test_mc_bad_config_is_exit_2(monkeypatch, capsys, flag, value):
    # refused from the argv alone, before a draw is allocated
    monkeypatch.setattr("errprop.cli.compare_tsm_mcm", lambda *a: pytest.fail("sampled"))
    code, out, err = run(capsys, "mc", "x", "x=1(1)", flag, value)
    assert (code, out) == (2, "") and f"errprop: {flag} must lie in" in err


def test_mc_negative_seed_is_exit_2(capsys):
    # refused by McConfig with the flag's name, not by numpy
    code, out, err = run(capsys, "mc", "x", "x=1(1)", "--seed", "-1")
    assert (code, out, err) == (2, "", "errprop: --seed must be a nonnegative integer, got -1\n")


def test_mc_equal_quantiles_are_exit_2(capsys):
    code, out, err = run(capsys, "mc", "x", "x=1(1)", "--quantiles", "0.5", "0.5")
    assert (code, out, err) == (2, "", "errprop: --quantiles must be distinct\n")


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_mc_distinct_quantiles_get_distinct_keys(capsys, out_format):
    # 0.1 and 0.1000001 print alike with six significant digits
    qs = ["0.025", "0.1", "0.1000001", "0.975"]
    code, out, _ = run(capsys, "mc", "x", "x=1(1)", "--samples", "1000", "--quantiles", *qs,
                       "--format", out_format)
    assert code == 0
    if out_format == "json":
        keys = [k for k in json.loads(out) if k.startswith("mcm_q")]
    else:
        keys = [k for k in out.splitlines()[0].split(",") if k.startswith("mcm_q")]
    assert keys == [f"mcm_q{q}" for q in qs]


def test_table_blank_summary_column_is_exit_2(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("x\n1.00(3)\n")
    code, out, err = run(capsys, "table", str(src), "--summarize", "mean( )")
    assert (code, out) == (2, "")
    assert err == "errprop: bad summary 'mean( )'; use mean(col)|median(col)|sum(col)\n"


def test_mc_exact_negative_zero(capsys):
    # an exact -0.0 is bound as -0.0, not drawn: atan2(-0.0, -1) is -pi
    code, out, _ = run(capsys, "mc", "atan2(k, x)", "k=-0", "x=-1.00(1)", "--samples", "1000",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tsm_value"] == -math.pi
    assert doc["mcm_mean"] == pytest.approx(-math.pi, rel=1e-3)


@pytest.mark.parametrize("argv", [["k", "k=-0"], ["x*0", "x=-1(0.1)"]])
def test_mc_negative_zero_mean_and_median(capsys, argv):
    # every draw is -0.0: the sums behind the mean and the median start from -0.0
    code, out, _ = run(capsys, "mc", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for key in ("tsm_value", "mcm_mean", "mcm_median"):
        assert math.copysign(1.0, doc[key]) == -1.0 and doc[key] == 0, key


def test_mc_nonfinite_is_exit_2(capsys):
    # stopped in the first chunks, not after 10^7 draws
    code, out, err = run(capsys, "mc", "sqrt(x)", "x=0(1)", "--samples", "10000000")
    assert (code, out) == (2, "")
    assert "non-finite evaluations in the first" in err and "of 10000000" in err


@pytest.mark.parametrize("binding", ["x=1(Inf)", "x=1(NaN)"])
def test_mc_nonfinite_uncertainty_is_exit_2(capsys, binding):
    # the binding is read, and every draw from it is non-finite
    code, out, err = run(capsys, "mc", "x", binding)
    assert (code, out) == (2, "")
    assert "non-finite evaluations in the first" in err


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


@pytest.mark.parametrize("argv", [
    ["eval", "x", "=5"], ["mc", "x", "=5"], ["table", "@csv", "--derive", "=x"],
    ["table", "@csv", "--rel-error", "=0.1"], ["table", "@csv", "--abs-error", "=0.1"],
    ["table", "@csv", "--error-col", "=e"],
    ["plot", "@csv", "--rel-error", "=0.1", "--x", "x", "--y", "x", "-o", "@svg"],
], ids=lambda argv: " ".join(argv[:3]))
def test_empty_name_is_exit_2(tmp_path, capsys, argv):
    (tmp_path / "t.csv").write_text("x,e\n1,0.1\n2,0.2\n")
    paths = {"@csv": str(tmp_path / "t.csv"), "@svg": str(tmp_path / "o.svg")}
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (code, out) == (2, "") and "must be NAME=VALUE, got '=" in err
    assert not (tmp_path / "o.svg").exists()


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


# flag values, good and bad, for every subcommand; mc draws at most 1,000
# samples, as a drawn --samples overrides the 200 put before it
_CSV = "a,b,u,g\n1.5,2,1.0(1),p\n2.5,0,2.0 ± 0.2,q\n-1,3,3(1),p\n"
_common_flags = st.lists(st.sampled_from([
    ["--digits", "-1"], ["--digits", "0"], ["--digits", "2"], ["--digits", "17"],
    ["--digits", "18"], ["--digits", "x"], ["--notation", "plus-minus"],
    ["--notation", "parenthesis"], ["--notation", "gum"], ["--format", "json"],
    ["--format", "csv"], ["--format", "text"], ["--format", "xml"],
]), max_size=3)
_mc_flags = st.lists(st.sampled_from([
    ["--seed", "-1"], ["--seed", "0"], ["--seed", str(2**70)], ["--seed", "x"],
    ["--quantiles", "0"], ["--quantiles", "1"], ["--quantiles", "nan"], ["--quantiles", "0.5"],
    ["--quantiles", "0.1", "0.9"], ["--samples", "0"], ["--samples", "1"], ["--samples", "2"],
    ["--samples", "1000"], ["--samples", str(10**9)], ["--samples", "x"],
]), max_size=3)
_table_flags = st.lists(st.tuples(
    st.sampled_from(["--rel-error", "--abs-error"]),
    st.sampled_from(["a=0.1", "b=2", "a=-1", "a=x", "a=inf", "a=nan", "a", "=0.1", "zz=0.1",
                     "g=0.1", "u=0.1", "a=0.1=2"]),
).map(list) | st.tuples(
    st.just("--error-col"),
    st.sampled_from(["a=b", "b=a", "a=g", "a=u", "u=a", "a=zz", "zz=a", "a", "a=a"]),
).map(list), max_size=3)
_derive_flags = st.lists(st.tuples(st.just("--derive"), st.sampled_from([
    "r=a/b", "r=sin(u)*a", "r=u^b", "r=", "=a", "r=a +", "r=zz", "r=g*2", "a=b", "r",
    "r=1", "r=a, b",
])).map(list), max_size=2)
_summary_flags = st.lists(st.tuples(st.just("--summarize"), st.sampled_from([
    "mean(a)", "median(u)", "sum(b)", "sum(g)", "mean(zz)", "mode(a)", "mean(", "sum( )",
    "median(r)", "mean(a)x",
])).map(list), max_size=2)
_exprs = st.sampled_from(["x/y", "sin(x)", "x +", "x^y", "-x", "ln(x)", "zz", "1", "x*k",
                          "atan2(x, y)", "sqrt(x, y)", ""])
_bindings = st.lists(st.sampled_from([
    "x=1(1)", "x=0(1)", "y=2.0 ± 0.1", "y=0", "x=", "=1", "x", "y=-1(1)", "x=1 ± -1",
    "x=nan(1)", "k=0", "k=-0", "x=1e308(1e307)", "x=1.7e308 ± 1e300", "x=1(1)(1)",
    "x=1(Inf)", "x=5(NaN)",
]), max_size=3)
_columns = st.sampled_from(["a", "b", "u", "g", "zz"])


# the input, as a readable CSV, a missing file or a directory, and the
# SVG output, as a new file, a file in a missing directory or a directory
_inputs = st.sampled_from(["@csv", "@missing", "@dir"])
_outputs = st.sampled_from(["@svg", "@no-dir/o.svg", "@dir"])


def _flat(flags: list[list[str]]) -> list[str]:
    return [s for flag in flags for s in flag]


_argvs = (
    st.tuples(_common_flags.map(_flat), _exprs, _bindings).map(
        lambda t: ["eval", *t[0], "--", t[1], *t[2]])
    | st.tuples(_common_flags.map(_flat), _mc_flags.map(_flat), _exprs, _bindings).map(
        lambda t: ["mc", "--samples", "200", *t[0], *t[1], "--", t[2], *t[3]])
    | st.tuples(_inputs, _table_flags.map(_flat), _derive_flags.map(_flat),
                _summary_flags.map(_flat), _common_flags.map(_flat)).map(
        lambda t: ["table", t[0], *t[1], *t[2], *t[3], *t[4]])
    | st.tuples(_inputs, _table_flags.map(_flat), _columns, _columns,
                st.lists(_columns, max_size=1), _outputs).map(
        lambda t: ["plot", t[0], *t[1], "--x", t[2], "--y", t[3],
                   *[s for g in t[4] for s in ("--group", g)], "-o", t[5]])
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs)
def test_exit_codes_of_random_argv_are_0_or_2(tmp_path, capsys, argv):
    # every subcommand and flag, with values good and bad; an argparse
    # exit counts by its code, and exit 1 is a bug
    (tmp_path / "t.csv").write_text(_CSV, encoding="utf-8")
    paths = {"@csv": tmp_path / "t.csv", "@missing": tmp_path / "missing.csv", "@dir": tmp_path,
             "@svg": tmp_path / "o.svg", "@no-dir/o.svg": tmp_path / "no-dir" / "o.svg"}
    argv = [str(paths[a]) if a in paths else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2), (argv, capsys.readouterr().err)
