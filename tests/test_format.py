import math
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errprop import Notation, format_column, format_value, make_uncertain, parse_value
from errprop.core import UncertainVector
from errprop.exceptions import ParseError

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


@pytest.mark.parametrize("s", ["NaN(NaN)", "NaN ± NaN", " NaN +/- NaN "])
def test_parse_nan_pair(s):
    out = parse_value(s)
    assert math.isnan(out.value) and math.isnan(out.error)
    assert format_value(out.value, out.error, PAREN) == "NaN(NaN)"


def test_parse_rejects_what_the_rule_rejects():
    # the error points at the uncertainty
    for bad, position in [("1 ± 1e999", 4), ("1(1)e999", 2), ("5 ± -1", 4),
                          ("1(1)e99999999", 2), ("1 ± 1e99999999", 4),
                          ("1(1)e" + "1" * 5000, 2), ("1 ± 1e" + "1" * 5000, 4)]:
        with pytest.raises(ParseError, match=rf"\(position {position}\)"):
            parse_value(bad)


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
        if math.isnan(v) or math.isnan(e):
            out.append("NaN(NaN)" if paren else "NaN ± NaN")
        elif e == 0:
            out.append(_reference_bare(v))
        elif math.isinf(v) or math.isinf(e):
            bv, be = _reference_bare(v), _reference_bare(e)
            out.append(f"{bv}({be})" if paren else f"{bv} ± {be}")
        else:
            out.append(_reference_format(v, e, notation))
    return out


# digits whose repr lies on a half unit (0.15, 2.5, ...) and mantissas
# that carry into the next decade when rounded (9.96 -> 10.0)
_TIES = [0.15, 2.5, 25.0, 2500.0, 0.05, 0.125, 0.35, 9.5, 0.095, 4.5]
_CARRIES = [9.96, 99.96, 0.0996, 9.9996]
_SPECIAL = [0.0, 5e-324, 1e23, 1.7976931348623157e308, math.inf]
_scaled_digits = st.builds(lambda m, k: m * 10.0 ** k,
                           st.sampled_from(_TIES + _CARRIES), st.integers(-25, 25))
_magnitudes = (st.floats(min_value=0.0, allow_nan=False) | st.sampled_from(_SPECIAL)
               | _scaled_digits | st.floats(1e-6, 1e6))
_values = st.builds(lambda m, s: math.copysign(m, s), _magnitudes, st.sampled_from([1.0, -1.0]))
_pairs = (st.tuples(_values, _magnitudes)
          | st.tuples(_values, _values.map(abs).map(lambda m: m / 10.0 ** 3))
          | st.just((math.nan, math.nan)))


@settings(max_examples=400, deadline=None)
@given(pairs=st.lists(_pairs, max_size=12), digits=st.integers(1, 17),
       style=st.sampled_from(["parenthesis", "plus-minus"]))
def test_format_column_matches_reference(pairs, digits, style):
    notation = Notation(style, digits)
    # results may carry infinite errors, so build the column unchecked
    x = UncertainVector._unchecked([v for v, _ in pairs], [e for _, e in pairs])
    expected = _reference_format_column(x, notation)
    assert format_column(x, notation) == expected
    assert [format_value(v, e, notation) for v, e in pairs] == expected


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
