import math
import re
import time
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errprop import Notation, format_column, format_value, make_uncertain, parse_value
from errprop.core import UncertainVector
from errprop.exceptions import NegativeError, ParseError
from errprop.formatting import (_CELL, _MEASUREMENT_RE, _NUMBERS_RE, _bare, _exact,
                                _pair, parse_column, parse_number)

PAREN = Notation("parenthesis")
PM = Notation("plus-minus")


@pytest.mark.parametrize(
    "v,e,notation,expected",
    [
        (5.0, 0.0509902, PAREN, "5.00(5)"),
        (1.6021766208e-19, 9.8e-28, Notation("parenthesis", 2), "1.6021766208(98)e-19"),
        (1.0, 1 / 30, PM, "1.00 ± 0.03"),
        (16.0, 16 / 15, PAREN, "16(1)"),
        (16.0, 16 / 15, PM, "16 ± 1"),
        (5.0, 0.0, PAREN, "5"),
        (42.0, 0.0, PM, "42"),
        (math.sin(3.0), abs(math.cos(3.0)) * 0.1, PAREN, "0.1(1)"),
        (math.sin(4.0), abs(math.cos(4.0)) * 4 / 30, PAREN, "-0.76(9)"),
        (float("nan"), float("nan"), PAREN, "NaN(NaN)"),
        (float("nan"), float("nan"), PM, "NaN ± NaN"),
        (100.02147, 0.00035, Notation("parenthesis", 2), "100.02147(35)"),
        (0.0, 0.05, PAREN, "0.00(5)"),
        (-2.5, 0.25, PAREN, "-2.5(3)"),
        # a value that rounds to zero keeps its sign
        (-0.0001, 0.001, PAREN, "-0.000(1)"),
        (-0.0, 0.1, PM, "-0.0 ± 0.1"),
        # an infinite value's uncertainty, written to read back
        (math.inf, 0.1, PAREN, "Inf(0.1)"),
        (math.inf, 1e-05, PAREN, "Inf(0.00001)"),
        (-math.inf, 1e20, PAREN, "-Inf(100000000000000000000)"),
        (math.inf, 3.0, PAREN, "Inf(3)"),
        (math.inf, 1e-05, PM, "Inf ± 1e-05"),
        (math.inf, 0.0, PAREN, "Inf"),
        # a NaN value keeps a finite uncertainty, as an infinite one does
        (math.nan, 0.1, PAREN, "NaN(0.1)"),
        (math.nan, 1e-05, PAREN, "NaN(0.00001)"),
        (math.nan, 0.1, PM, "NaN ± 0.1"),
        (math.nan, 0.0, PAREN, "NaN"),
    ],
)
def test_format_examples(v, e, notation, expected):
    assert format_value(v, e, notation) == expected


def test_decade_carry_rerounds():
    # 0.099 rounds up into the next decade; place follows the carry
    assert format_value(1.0, 0.099, PAREN) == "1.0(1)"
    assert format_value(1.0, 0.099, PM) == "1.0 ± 0.1"


def test_uncertainty_larger_than_value():
    assert format_value(0.1, 0.14, PAREN) == "0.1(1)"


def test_digits_config():
    assert format_value(5.0, 0.0509902, Notation("parenthesis", 2)) == "5.000(51)"
    assert format_value(5.0, 0.0509902, Notation("plus-minus", 2)) == "5.000 ± 0.051"


def test_scientific_thresholds():
    # exponent 15 still fixed, 16 flips to scientific
    assert "e" not in format_value(1e15, 1e13, PAREN)
    assert format_value(1e16, 1e14, PAREN).endswith("e+16")
    assert format_value(1.5e-4, 1e-6, PAREN) == "0.000150(1)"
    assert format_value(1.5e-5, 1e-7, PAREN).endswith("e-05")


def test_notation_validation():
    with pytest.raises(ValueError):
        Notation("prose")
    with pytest.raises(ValueError):
        Notation(digits=0)
    with pytest.raises(ValueError):
        Notation(digits=18)


@pytest.mark.parametrize(
    "s,v,e",
    [
        ("100.02147(35)", 100.02147, 0.00035),
        ("100.02147(0.00035)", 100.02147, 0.00035),
        ("100.02147 ± 0.00035", 100.02147, 0.00035),
        ("100.02147 +/- 0.00035", 100.02147, 0.00035),
        ("(100.02147 ± 0.00035)", 100.02147, 0.00035),
        ("5.00(5)", 5.0, 0.05),
        ("42", 42.0, 0.0),
        ("2e-3", 2e-3, 0.0),
        ("1.6021766208(98)e-19", 1.6021766208e-19, 9.8e-28),
        ("16(1)", 16.0, 1.0),
        ("-0.76(9)", -0.76, 0.09),
        ("0.14(10)", 0.14, 0.10),
        ("1.0e2 ± 5", 100.0, 5.0),
        # correctly rounded from all the digits: halfway plus a little
        ("9007199254740993.0000000000000000000001 ± 1", 9007199254740994.0, 1.0),
        # inf and nan are numbers in every position, and take no exponent
        ("Inf(0.1)", math.inf, 0.1),
        ("-inf ± 2", -math.inf, 2.0),
        ("(Inf ± 1)e3", math.inf, 1000.0),
        ("INF(1)e-3", math.inf, 0.001),
        ("inf", math.inf, 0.0),
        ("Inf(0.00001)", math.inf, 1e-05),
    ],
)
def test_parse_examples(s, v, e):
    out = parse_value(s)
    assert out.value == v
    assert out.error == e


def test_parse_exact_gum_example():
    out = parse_value("100.02147(35)")
    assert out.value == 100.02147
    assert out.error == 0.00035  # exactly, not just approximately


@pytest.mark.parametrize("bad", ["", "abc", "5.0(", "5.0(x)", "1 ±", "(5", "5 ± -1"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_value(bad)


@pytest.mark.parametrize("bad, position", [
    ("2.0(1", 5), ("2.0(x)", 4), ("  3x", 3), ("abc", 0), ("", 0), ("2 +- 1", 3),
    ("(1)", 2), ("1 ± 2)", 5), ("infinity", 3), ("1e5(1)", 3), ("1(1)e5x", 6), ("+.e", 2),
    ("1 e5", 2), ("(1 ± 2)x", 7),
])
def test_parse_error_is_at_the_longest_start_of_a_cell(bad, position):
    # the length of the longest start of the text that some cell starts with
    with pytest.raises(ParseError, match=rf"^unrecognized measurement syntax .* "
                                         rf"\(position {position}\)$"):
        parse_value(bad)


@pytest.mark.parametrize("bad, position", [
    (" " * 10000 + "x", 10000), ("(" + " " * 10000 + "x", 10001), ("1 ±" + " " * 10000 + "x", 10003),
], ids=["blanks", "paren-blanks", "plus-minus-blanks"])
def test_parse_error_after_a_long_blank_run_is_prompt(bad, position):
    # each blank is read once, not once per way to split the run
    start = time.perf_counter()
    with pytest.raises(ParseError, match=rf"\(position {position}\)$"):
        parse_value(bad)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("cell", [
    "100.02147(35)", "100.02147(0.00035)", " 100.02147 ± 0.00035 ", "100.02147 +/- 0.00035",
    "( -1.5e2 ± .5 )E-3", "1.6021766208(98)e-19", "-0.76(9)", "1.0e2 ± 5", "-inf ± 2",
    "(Inf ± 1)e3", "INF(1)e-3", "+NaN(nan)", "2e-3", ".5", "1.", "1 ± 2 e5", "1.5(2)e٢",
])
def test_every_start_of_a_cell_is_one(cell):
    # no cell holds "#": a cell cut there fails at the cut
    parse_value(cell)
    for k in range(len(cell) + 1):
        with pytest.raises(ParseError, match=rf"\(position {k}\)$"):
            parse_value(cell[:k] + "#" + cell[k:])


@pytest.mark.parametrize("s", ["NaN(NaN)", "NaN ± NaN", " NaN +/- NaN ", "nan(nan)"])
def test_parse_nan_pair(s):
    out = parse_value(s)
    assert math.isnan(out.value) and math.isnan(out.error)
    assert format_value(out.value, out.error, PAREN) == "NaN(NaN)"


def test_parse_rejects_what_the_rule_rejects():
    # a negative uncertainty, and the error points at it
    for bad, position in [("5 ± -1", 4), ("5 ± -Inf", 4), ("1 ± -1e999", 4),
                          ("(2 ± -1)e3", 5)]:
        with pytest.raises(ParseError, match=rf"must not be negative \(position {position}\)"):
            parse_value(bad)
    # an infinite or NaN uncertainty is legal on any value, and an exponent
    # past the float range reads as infinite
    inf, nan = math.inf, math.nan
    for good, pair in [("1(Inf)", (1.0, inf)), ("1 ± nan", (1.0, nan)), ("Inf(Inf)", (inf, inf)),
                       ("1 ± 1e999", (1.0, inf)), ("1(1)e999", (inf, inf)),
                       ("1(1)e99999999", (inf, inf)), ("1 ± 1e99999999", (1.0, inf)),
                       ("1(1)e" + "1" * 5000, (inf, inf)), ("1 ± 1e" + "1" * 5000, (1.0, inf))]:
        out = parse_value(good)
        assert np.array([out.value, out.error]).tobytes() == np.array(pair).tobytes(), good


_ZEROS, _ONES = "0" * 4400, "1" * 5000


@pytest.mark.parametrize("long, short", [
    (f"1(1)e-{_ZEROS}1", "1(1)e-1"),
    (f"(1 ± 1)e-{_ZEROS}1", "(1 ± 1)e-1"),
    (f"1e-{_ZEROS}1 ± 1e+{_ZEROS}1", "1e-1 ± 1e+1"),
    (f"1.5(2)e{'٠' * 4400}٢", "1.5(2)e2"),  # Arabic-Indic zeros and two
    (f"1(1)e{_ONES}", "1(1)e99999999"),
    (f"1(1)e-{_ONES}", "1(1)e-99999999"),
    (f"1e{_ONES} ± 1", "1e99999999 ± 1"),
    (f"1 ± 1e{_ONES}", "1 ± 1e99999999"),
    (f"1 ± 1e-{_ONES}", "1 ± 1e-99999999"),
    (f"1e{_ONES}", "1e99999999"),
], ids=lambda s: s if len(s) < 20 else f"{s[:8]}...{s[-4:]}")
def test_parse_long_exponent_reads_as_short(long, short):
    # int() reads at most 4,300 digits; an exponent of any length reads
    # as a short one with the same effect
    def read(s):
        try:
            out = parse_value(s)
        except ParseError as exc:
            return exc.position
        return [np.float64(x).tobytes() for x in (out.value, out.error)]

    assert read(long) == read(short)


def test_parse_long_exponent_values():
    out = parse_value(f"1(1)e-{_ZEROS}1")
    assert (out.value, out.error) == (0.1, 0.1)
    out = parse_value(f"1(1)e-{_ONES}")
    assert (out.value, out.error) == (0.0, 0.0)


# pieces of every form, and characters of none
_PIECES = ["1", "0", "9", ".", "e", "E", "+", "-", "(", ")", " ", "±", "+/-",
           "inf", "Inf", "nan", "NaN", "infinity", "_", "\x00", "x", "٢"]
_texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join) | st.text(max_size=12)


@settings(max_examples=1000, deadline=None)
@given(s=_texts)
def test_any_text_reads_or_is_a_parse_error(s):
    # float() raises ValueError on "infe3" and reads "1_0": neither leaks out
    for read in (parse_value, parse_number):
        try:
            read(s)
        except ParseError:
            pass
    parse_column([s, s])


@pytest.mark.parametrize("s, v", [("inf", math.inf), ("-NaN", -math.nan), ("1e-3", 0.001),
                                  ("2.", 2.0)])
def test_parse_number(s, v):
    assert np.float64(parse_number(s)).tobytes() == np.float64(v).tobytes()


@pytest.mark.parametrize("bad, position", [("1_0", 1), ("infinity", 3), (" 1", 0),
                                           ("", 0), ("1(1)", 1)])
def test_parse_number_rejects(bad, position):
    with pytest.raises(ParseError, match=rf"\(position {position}\)"):
        parse_number(bad)


# every legal pair: any value, and an uncertainty that is not negative
# (NaN, the quiet NaN that parse_value reads, and +inf among them)
_legal_values = (st.floats(allow_nan=False)
                 | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-05, 1.5e300]))
_legal_errors = (st.floats(min_value=0.0, allow_infinity=False)
                 | st.sampled_from([1e-05, 1e20, 3.0, 5e-324, 1.7976931348623157e308,
                                    math.inf, math.nan]))


@settings(max_examples=1000, deadline=None)
@given(v=_legal_values, e=_legal_errors, digits=st.integers(1, 17),
       style=st.sampled_from(["parenthesis", "plus-minus"]))
def test_legal_pairs_read_back(v, e, digits, style):
    out = parse_value(format_value(v, e, Notation(style, digits)))
    if not (math.isfinite(v) and math.isfinite(e)):
        # nothing is rounded: each number prints all its repr digits
        assert np.array([out.value, out.error]).tobytes() == np.array([v, e]).tobytes()


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_legal_values, _legal_errors), max_size=20),
       digits=st.integers(1, 17), style=st.sampled_from(["parenthesis", "plus-minus"]))
def test_legal_columns_read_back(pairs, digits, style):
    x = make_uncertain([v for v, _ in pairs], [e for _, e in pairs])
    cells = format_column(x, Notation(style, digits))
    out = parse_column(cells)
    if all(e == 0 for _, e in pairs):  # a column of bare numbers, or none
        out = make_uncertain(out, 0.0)
    assert isinstance(out, UncertainVector) and len(out) == len(x)
    rows = [i for i, (v, e) in enumerate(pairs) if not (math.isfinite(v) and math.isfinite(e))]
    assert out.values[rows].tobytes() == x.values[rows].tobytes()
    assert out.errors[rows].tobytes() == x.errors[rows].tobytes()


def test_negative_zero_keeps_its_sign():
    assert format_value(-0.0, 0.0) == "-0"
    assert math.copysign(1.0, parse_value("-0").value) == -1.0


def _reference_format(value, error, notation):
    """format_value through Decimal, with enough precision for any float64 pair.

    The widest pair, 1.8e308 against 5e-324, needs about 650 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 1000
        dv, de = Decimal(repr(value)), Decimal(repr(error))
        exp10 = dv.adjusted() if value != 0 else 0
        scientific = not (-4 <= exp10 <= 15)
        if not scientific:
            exp10 = 0
        mv, me = dv.scaleb(-exp10), de.scaleb(-exp10)

        def round_at(d, place):
            return d.quantize(Decimal(1).scaleb(place), rounding=ROUND_HALF_UP)

        def fixed(d, place):
            return f"{d:.{-place}f}" if place <= 0 else f"{d:.0f}"

        place = me.adjusted() - (notation.digits - 1)
        re_ = round_at(me, place)
        if re_.adjusted() > me.adjusted():
            place += 1
            re_ = round_at(me, place)
        if math.isinf(float(re_.scaleb(exp10))):
            # past the largest float: the shortest repr digits instead
            re_, place = me, me.as_tuple().exponent
        rv = round_at(mv, place)
        suffix = f"e{exp10:+03d}" if scientific else ""
        if notation.style == "parenthesis":
            unc = str(int(re_.scaleb(-place))) if place <= 0 else f"{re_:.0f}"
            return f"{fixed(rv, place)}({unc}){suffix}"
        if scientific:
            ue = re_.adjusted() + exp10
            um = re_.scaleb(-re_.adjusted())
            return f"{fixed(rv, place)}{suffix} ± {um}e{ue:+03d}"
        return f"{fixed(rv, place)} ± {fixed(re_, place)}"


@settings(max_examples=1000, deadline=None)
@given(
    v=st.floats(allow_nan=False, allow_infinity=False),
    e=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    digits=st.integers(1, 17),
    style=st.sampled_from(["parenthesis", "plus-minus"]),
)
def test_format_matches_decimal_reference(v, e, digits, style):
    n = Notation(style, digits)
    assert format_value(v, e, n) == _reference_format(v, e, n)


@pytest.mark.parametrize("v, e", [(1.0, 1e-310), (1e308, 1.0)])
def test_far_apart_pair_reads_back(v, e):
    # every digit down to the uncertainty's place is printed
    for digits in range(1, 18):
        for style in ("parenthesis", "plus-minus"):
            out = parse_value(format_value(v, e, Notation(style, digits)))
            assert (out.value, out.error) == (v, e)


def test_format_column_paper_row():
    x = make_uncertain(range(1, 9), [i / 30 for i in range(1, 9)])
    assert format_column(x, PAREN) == [
        "1.00(3)", "2.00(7)", "3.0(1)", "4.0(1)",
        "5.0(2)", "6.0(2)", "7.0(2)", "8.0(3)",
    ]
    assert format_column(make_uncertain([], []), PAREN) == []


def _displayed_place(v, e, digits):
    # decimal place of the last displayed digit, mirroring the carry rule
    import decimal

    de = decimal.Decimal(repr(e))
    place = de.adjusted() - (digits - 1)
    r = de.quantize(decimal.Decimal(1).scaleb(place), rounding=decimal.ROUND_HALF_UP)
    if r.adjusted() > de.adjusted():
        place += 1
    return place


@settings(max_examples=300, deadline=None)
@given(
    v=st.floats(-1e6, 1e6, allow_nan=False),
    e=st.floats(1e-6, 1e4, allow_nan=False),
    digits=st.integers(1, 3),
    style=st.sampled_from(["parenthesis", "plus-minus"]),
)
def test_roundtrip_property(v, e, digits, style):
    n = Notation(style, digits)
    s = format_value(v, e, n)
    out = parse_value(s)
    place = _displayed_place(v, e, digits)
    # half an ulp of the last displayed digit, plus float noise at ties
    assert abs(out.value - v) <= 0.5 * 10.0**place + 8e-16 * abs(v)
    # both notations agree on the rounded display pair
    other = parse_value(format_value(v, e, Notation(
        "plus-minus" if style == "parenthesis" else "parenthesis", digits)))
    assert out.value == pytest.approx(other.value, rel=1e-12, abs=1e-300)
    assert out.error == pytest.approx(other.error, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    e=st.floats(1e-8, 1e3),
    digits=st.integers(1, 3),
)
def test_displayed_uncertainty_sig_digits(e, digits):
    s = format_value(0.0, e, Notation("parenthesis", digits))
    unc = s[s.index("(") + 1 : s.index(")")]
    stripped = unc.lstrip("0.") or "0"
    # everything beyond the requested significant figures must be a
    # magnitude-only zero (e.g. "500" at 1 digit, "10" after a carry)
    assert len(stripped) >= digits
    assert stripped[digits:].strip("0") == ""


@pytest.mark.parametrize("v, e, notation, expected", [
    # the repr digits lie on a half unit, the binary value below or on it:
    # rounding is half away from zero on the digits, as everywhere else
    (0.125, 0.01, PAREN, "0.13(1)"),
    (0.35, 0.1, PAREN, "0.4(1)"),
    (0.15, 0.1, PAREN, "0.2(1)"),
    (-0.05, 0.1, PAREN, "-0.1(1)"),
    (2.5, 1.0, PM, "3 ± 1"),
    (-2.5, 1.0, PAREN, "-3(1)"),
    (25.0, 10.0, PM, "30 ± 10"),
    (2500.0, 1000.0, PAREN, "3000(1000)"),
    (1.0, 0.25, PAREN, "1.0(3)"),
    (1.0, 0.35, PM, "1.0 ± 0.4"),
    # a scientific mantissa that carries into the next decade
    (9.96e20, 1e19, PAREN, "10.0(1)e+20"),
    (9.96e20, 1e19, PM, "10.0e+20 ± 1e+19"),
    (-9.96e-20, 1e-21, PM, "-10.0e-20 ± 1e-21"),
    # 17 digits reach below the precision of 0.1: its repr digits, padded
    (1e-10, 0.1, Notation("parenthesis", 17), "1.0000000(10000000000000000)e-10"),
])
def test_half_units_and_carries(v, e, notation, expected):
    assert format_value(v, e, notation) == expected
    assert format_column(make_uncertain([v], [e]), notation) == [expected]


def _reference_bare(v):
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"
    return repr(v)


def _reference_format_column(x, notation):
    """format_column one pair at a time, through the Decimal reference."""
    paren = notation.style == "parenthesis"
    out = []
    for v, e in zip(x.values.tolist(), x.errors.tolist()):
        if e == 0:
            out.append(_reference_bare(v))
        elif not (math.isfinite(v) and math.isfinite(e)):
            bv, be = _reference_bare(v), _reference_bare(e)
            if paren:
                # the value's exponent after the parenthesis, and an
                # uncertainty with an exponent written out
                bv, _, exp = bv.partition("e")
                if "e" in be:
                    be = format(Decimal(repr(e)), "f")
                out.append(f"{bv}({be})" + (f"e{exp}" if exp else ""))
            else:
                out.append(f"{bv} ± {be}")
        else:
            out.append(_reference_format(v, e, notation))
    return out


# digits whose repr lies on a half unit (0.15, 2.5, ...) and mantissas
# that carry into the next decade when rounded (9.96 -> 10.0)
_TIES = [0.15, 2.5, 25.0, 2500.0, 0.05, 0.125, 0.35, 9.5, 0.095, 4.5]
_CARRIES = [9.96, 99.96, 0.0996, 9.9996]
_SPECIAL = [0.0, 5e-324, 1e23, 1.7976931348623157e308, math.inf]


def _around(x):
    """x and its neighbours one ulp either side."""
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


# 10**k and its neighbours, where log10 can be one off, and the edges of
# the fixed-notation window
_POWERS = [y for k in range(-20, 21) for y in _around(float(f"1e{k}"))]
_EDGES = [y for x in (1e-4, 1e16, 2.0**53, 1e12) for y in _around(x)]
_scaled_digits = st.builds(lambda m, k: m * 10.0 ** k,
                           st.sampled_from(_TIES + _CARRIES), st.integers(-25, 25))
_magnitudes = (st.floats(min_value=0.0, allow_nan=False) | st.sampled_from(_SPECIAL)
               | _scaled_digits | st.floats(1e-6, 1e6) | st.sampled_from(_POWERS + _EDGES))
_values = st.builds(lambda m, s: math.copysign(m, s), _magnitudes, st.sampled_from([1.0, -1.0]))
_signs = st.sampled_from([1.0, -1.0])
# a value whose repr digits lie half a unit off the place of an uncertainty
# of any number of digits, and an uncertainty of k nines and a five or a
# six, which carries at k digits or fewer, or lies at the carry's half
# unit (0.95 is 0.9499999999999999556: it does not carry at one digit)
_tie_pairs = st.builds(lambda m, c, p, s: (s * float(f"{m}5e{p - 1}"), float(f"{c}e{p}")),
                       st.integers(0, 10**12), st.integers(1, 10**17), st.integers(-25, 25),
                       _signs)
_carry_pairs = st.builds(lambda v, k, d, p: (v, float(f"{'9' * k}{d}e{p - 1}")),
                         _values, st.integers(0, 17), st.sampled_from("56"),
                         st.integers(-25, 25))
# the last two are below 9.5 units of a place but scale to 9.5 exactly
_HALF_CARRIES = [float(f"{'9' * k}{d}e{p}") for k in (1, 2) for d in "56"
                 for p in (-5, -2, 3)] + [9.499999999999999e-05, 949999.9999999999]
_pairs = (st.tuples(_values, _magnitudes)
          | st.tuples(_values, _values.map(abs).map(lambda m: m / 10.0 ** 3))
          | st.tuples(st.just(math.nan), _magnitudes | st.just(math.nan))
          | st.tuples(_values, st.sampled_from([math.nan, math.inf]))
          | _tie_pairs | _carry_pairs)


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(_pairs, max_size=200), digits=st.integers(1, 17),
       style=st.sampled_from(["parenthesis", "plus-minus"]))
@example(pairs=[(1.0, e) for e in _POWERS] + [(v, 1e-6) for v in _EDGES], digits=1,
         style="parenthesis")
@example(pairs=[(-v, e) for v, e in zip(_EDGES, _POWERS[::-1])], digits=3, style="plus-minus")
@example(pairs=[(v, e) for v in (1.0, 1e20) for e in _HALF_CARRIES], digits=1,
         style="parenthesis")
def test_format_column_matches_reference(pairs, digits, style):
    notation = Notation(style, digits)
    # results may carry infinite errors, so build the column unchecked
    x = UncertainVector._unchecked(np.array([v for v, _ in pairs], dtype=float),
                                   np.array([e for _, e in pairs], dtype=float))
    expected = _reference_format_column(x, notation)
    assert format_column(x, notation) == expected
    assert [format_value(v, e, notation) for v, e in pairs] == expected
    # the column fast path against the specification it stands in for
    assert format_column(x, notation) == [_exact(v, e, style, digits) for v, e in pairs]


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats() | _values | st.integers(-10**17, 10**17).map(float)
                   | st.sampled_from([-0.0, 1e16 - 2, -math.nan]), max_size=50))
def test_bare_matches_reference(xs):
    # the floats of a plain column, as Table.formatted hands them over
    floats = np.array(xs, dtype=float).tolist()
    assert [_bare(v) for v in floats] == [_reference_bare(v) for v in xs]


@pytest.mark.parametrize("notation", [PAREN, PM, Notation("plus-minus", 16)],
                         ids=["parenthesis", "plus-minus", "plus-minus-16"])
def test_uncertainty_rounded_past_float_range_reads_back(notation):
    # rounded to one digit, 1.797...e308 would be 2e308, past the largest
    # float: it prints its shortest repr digits instead
    e = 1.7976931348623157e308
    text = format_value(5e-324, e, notation)
    out = parse_value(text)
    assert (out.value, out.error) == (0.0, e)
    if notation.style == "plus-minus":
        assert text == "0e-324 ± 1.7976931348623157e+308"
    # 1.7e308 at one digit is 2e308 too; a fixed value prints it in full
    assert parse_value(format_value(1.0, 1.7e308, notation)).error == 1.7e308


# The reference for parse_column: one finditer scan of the per-cell
# pattern over the NUL-joined column, anchored at NULs, with _pair per
# match.  Its patterns have no possessive quantifier and no atomic group.
_REF_DIGITS = r"(?:\d+(?:\.\d*)?|\.\d+)"
_REF_EXP = r"[eE][+-]?\d+"
_REF_NUMBER = rf"[+-]?(?:{_REF_DIGITS}(?:{_REF_EXP})?|(?i:inf|nan))"
_REF_MANTISSA = rf"(?:{_REF_DIGITS}|(?i:inf|nan))"
_REF_MEASUREMENT_RE = re.compile(
    rf"(?:^|(?<=\x00))\s*(?:([+-]?{_REF_MANTISSA})\(({_REF_MANTISSA})\)({_REF_EXP})?"
    rf"|(?P<lp>\()?\s*({_REF_NUMBER})\s*(?:±|\+/-)\s*({_REF_NUMBER})\s*(?(lp)\))"
    rf"({_REF_EXP})?|({_REF_NUMBER}))\s*(?=\x00|\Z)")
_REF_NUMBERS_RE = re.compile(rf"{_REF_NUMBER}(?:\x00{_REF_NUMBER})*")


def _reference_parse_column(cells):
    if not cells:
        return np.empty(0)
    text = "\x00".join(cells)
    if text.count("\x00") != len(cells) - 1 or not _REF_MEASUREMENT_RE.match(text):
        return None
    if _REF_NUMBERS_RE.fullmatch(text):
        return np.array([float(c) for c in cells])
    values, errors = [], []
    for m in _REF_MEASUREMENT_RE.finditer(text):
        v, e = _pair(*m.groups())
        values.append(v)
        errors.append(e)
    try:
        return UncertainVector(values, errors) if len(values) == len(cells) else None
    except NegativeError:
        return None


def _column_bits(column):
    if isinstance(column, UncertainVector):
        return "uncertain", column.values.tobytes(), column.errors.tobytes()
    if isinstance(column, np.ndarray):
        return "numeric", column.tobytes()
    return column


def _assert_column_matches_reference(cells):
    assert _column_bits(parse_column(cells)) == _column_bits(_reference_parse_column(cells))


def _assert_grammar_matches_reference(s):
    # the same cells, with the same groups for _pair, and the same bare numbers
    ref = _REF_MEASUREMENT_RE.fullmatch(s)
    m = _MEASUREMENT_RE.fullmatch(s)
    assert (m and (m.groups(), m.regs)) == (ref and (ref.groups(), ref.regs))
    assert bool(re.fullmatch(_CELL, s)) == bool(ref)
    assert bool(_NUMBERS_RE.fullmatch(s)) == bool(_REF_NUMBERS_RE.fullmatch(s))


@settings(max_examples=1000, deadline=None)
@given(s=_texts)
def test_grammar_matches_reference(s):
    _assert_grammar_matches_reference(s)


# cells of every form, with the features parse_column's routes part on:
# points, long mantissas and uncertainties, exponents short and long,
# Unicode digits and spaces, inf and nan, and both separators
_digit_runs = (st.text("0123456789", min_size=1, max_size=19)
               | st.sampled_from(["٢", "١٠", "0" * 25, "9007199254740993", "123456789012345678",
                                 "9" * 300]))
_dotted = st.builds(lambda a, b: f"{a}.{b}", _digit_runs, _digit_runs | st.just(""))
_mantissa_texts = st.one_of(_digit_runs, _dotted, _dotted, _digit_runs.map(lambda b: f".{b}"),
                            _dotted, st.sampled_from(["inf", "Inf", "NaN", "nan"]))
_exponent_texts = (
    st.builds(lambda e, s, k: f"{e}{s}{k}", st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
              st.integers(0, 30) | st.integers(0, 400))
    | st.sampled_from(["e+00", "e٢", f"e-{'0' * 25}3", "e" + "1" * 30, "e99999"]))
_optional_exponents = st.one_of(st.just(""), st.just(""), _exponent_texts)
_cell_signs = st.sampled_from(["", "", "-", "+"])
# mostly none: a space float() refuses sends the cell's whole form to _pair
_spaces = st.sampled_from([""] * 12 + [" ", "\t", "\u2003", "\x1c"])
_number_texts = st.builds(lambda s, m, e: s + m + (e if m[-1] not in "fFnN" else ""),
                          _cell_signs, _mantissa_texts, _optional_exponents)
_paren_cells = st.builds(lambda w, s, m, u, e, t: f"{w}{s}{m}({u}){e}{t}",
                         _spaces, _cell_signs, _mantissa_texts, _mantissa_texts,
                         _optional_exponents, _spaces)
_pm_cells = st.builds(
    lambda w, a, sep, b, e, t, lp: (f"{w}({a}{sep}{b}){e}{t}" if lp else f"{w}{a}{sep}{b}{e}{t}"),
    _spaces, _number_texts, st.sampled_from([" ± ", " ± ", "±", " +/- ", " ±  "]),
    _number_texts, st.sampled_from([""] * 4) | _exponent_texts, _spaces,
    st.sampled_from([False] * 4 + [True]))
_bare_cells = st.builds(lambda w, n, t: f"{w}{n}{t}", _spaces, _number_texts, _spaces)
_grammar_columns = st.lists(st.one_of(_paren_cells, _paren_cells, _pm_cells, _bare_cells),
                            min_size=1, max_size=30)


@settings(max_examples=400, deadline=None)
@given(cells=_grammar_columns)
def test_parse_column_matches_reference(cells):
    for cell in cells:
        _assert_grammar_matches_reference(cell)
    _assert_column_matches_reference(cells)
    # one wrong cell makes the whole column None, as it did
    _assert_column_matches_reference(cells + ["1(1"])


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_texts, min_size=1, max_size=12))
def test_parse_column_of_any_text_matches_reference(cells):
    _assert_column_matches_reference(cells)


# cells format_value never writes, next to cells of the fast routes: an
# uncertainty with a point and an exponent would lose its last bit if
# scaled, an 18-digit uncertainty is past 2**53, 10**23 is not an exact
# float, and inf, nan and Unicode digits take float()'s own reading
_GUARDED = ["0.3(0.1)e3", "0.5(1.1)e2", "2.5(0.7)e-1", "1.5(123456789012345678)",
            "1.5(2)e-25", "1(7)e23", "1.5(3)e-22", "1.5(3)e-21", "inf(1)", "1(inf)e2",
            "٢(١)", "1 ± 2e3e4", "1 +/- 2", "(1 ± 2)e3", "1.5(2) ", "1.5(2)e3\x1c", "inf(1)e3",
            "1 ± infe4", "2.5(3)e" + "0" * 30 + "1", "1.5(2)e-3", "0.0001(1)e22", "1(1)e-22",
            "1.23456789012345(6)e-8", "-0(1)", "nan(nan)", "NaN ± NaN", "1 ± 2 e4",
            f"1({'9' * 300})e22", "5 ± -1", "5 ± -Inf"]
# read, but a negative uncertainty is no legal pair
_ILLEGAL = ("5 ± -1", "5 ± -Inf")
_FAST = ["5.3623(64)", "-2.5(3)e+20", "1.0e2 ± 5", "42", "1.25 ± 0.5", "12300(500)"]


@pytest.mark.parametrize("cell", _GUARDED)
def test_parse_column_guards_each_route(cell):
    for cells in ([cell], [cell] + _FAST, _FAST + [cell] + _FAST, [cell, cell]):
        _assert_column_matches_reference(cells)
    assert (parse_column([cell] + _FAST) is None) == (cell in _ILLEGAL)


def test_parse_column_matches_reference_on_long_shuffled_columns():
    rng = np.random.default_rng(16)
    values = (10.0 ** rng.uniform(-30, 30, 400)) * rng.choice([-1.0, 1.0], 400)
    errors = np.abs(values) * 10.0 ** rng.uniform(-6, 0, 400)
    pool = [format_value(v, e, Notation(style, digits))
            for v, e in zip(values.tolist(), errors.tolist())
            for style, digits in (("parenthesis", 1), ("plus-minus", 2), ("parenthesis", 17))]
    pool += [repr(v) for v in values[:50].tolist()] + _GUARDED + _FAST
    for size in (1_000, 2_500):
        for _ in range(4):
            cells = rng.choice(pool, size).tolist()
            _assert_column_matches_reference(cells)
            legal = [c for c in cells if c not in _ILLEGAL]
            assert isinstance(parse_column(legal), UncertainVector)
            _assert_column_matches_reference(legal)
