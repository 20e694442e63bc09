"""GUM-style rendering and parsing of measurements with uncertainty.

Two notations are supported: parenthesis ("5.00(5)") and plus-minus
("5.00 ± 0.05").  The uncertainty is rounded to a configurable number of
significant digits (default 1) and the value is rounded to the same
decimal place.  Rounding is half-away-from-zero; if rounding the
uncertainty carries it into the next decade (0.099 -> 0.1), the display
place is recomputed from the carried uncertainty and both numbers are
re-rounded.  A zero uncertainty prints the bare value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext

from .core import UncertainScalar, UncertainVector
from .exceptions import NegativeError, ParseError

__all__ = ["Notation", "format_value", "parse_value", "format_column"]

PARENTHESIS = "parenthesis"
PLUS_MINUS = "plus-minus"

# single point of control for the tie-break rule
_ROUNDING = ROUND_HALF_UP

# fixed-notation window for the value's display exponent
_SCI_LO, _SCI_HI = -4, 15


@dataclass(frozen=True)
class Notation:
    """Formatting policy: notation style and uncertainty significant digits."""

    style: str = PARENTHESIS
    digits: int = 1

    def __post_init__(self):
        if self.style not in (PARENTHESIS, PLUS_MINUS):
            raise ValueError(f"unknown notation style {self.style!r}")
        if self.digits < 1:
            raise ValueError("digits must be >= 1")


def _round_at(d: Decimal, place: int) -> Decimal:
    """Round half-away-from-zero to the 10**place digit."""
    with localcontext() as ctx:
        ctx.prec = 60
        return d.quantize(Decimal(1).scaleb(place), rounding=_ROUNDING)


def _fixed(d: Decimal, place: int) -> str:
    if place <= 0:
        return f"{d:.{-place}f}"
    # significant to a place above the ones digit: print with trailing zeros
    return f"{d:.0f}"


def _bare(v: float) -> str:
    """Text of a plain number, as a table cell or an expression constant.

    Pass a Python float: under numpy 2, repr(np.float64(1.5)) is
    "np.float64(1.5)".
    """
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Inf" if v > 0 else "-Inf"
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # exact for these; keeps the sign of -0.0
    return repr(v)


def format_value(value: float, error: float, notation: Notation = Notation()) -> str:
    """Render a value/uncertainty pair in the requested notation."""
    if math.isnan(value) or math.isnan(error):
        return "NaN(NaN)" if notation.style == PARENTHESIS else "NaN ± NaN"
    if error == 0:
        return _bare(value)
    if math.isinf(value) or math.isinf(error):
        v, e = _bare(value), _bare(error)
        return f"{v}({e})" if notation.style == PARENTHESIS else f"{v} ± {e}"

    dv = Decimal(repr(float(value)))
    de = Decimal(repr(float(error)))
    exp10 = dv.adjusted() if value != 0 else 0
    scientific = not (_SCI_LO <= exp10 <= _SCI_HI)
    if not scientific:
        exp10 = 0
    mv = dv.scaleb(-exp10)
    me = de.scaleb(-exp10)

    place = me.adjusted() - (notation.digits - 1)
    re_ = _round_at(me, place)
    if re_.adjusted() > me.adjusted():
        # decade carry: 0.099 -> 0.1 at one digit
        place += 1
        re_ = _round_at(me, place)
    rv = _round_at(mv, place)

    suffix = f"e{exp10:+03d}" if scientific else ""
    if notation.style == PARENTHESIS:
        if place <= 0:
            unc = str(int(re_.scaleb(-place)))
        else:
            unc = f"{re_:.0f}"
        return f"{_fixed(rv, place)}({unc}){suffix}"
    if scientific:
        # uncertainty printed as its own scientific number
        ue = re_.adjusted() + exp10
        um = re_.scaleb(-re_.adjusted())
        return f"{_fixed(rv, place)}{suffix} ± {um}e{ue:+03d}"
    return f"{_fixed(rv, place)} ± {_fixed(re_, place)}"


_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"
_EXP = r"[eE][+-]?\d+"
_NUMERAL = rf"{_NUM}(?:{_EXP})?"

_PAREN_RE = re.compile(
    rf"\s*(?P<val>{_NUM})\((?P<unc>\d+\.\d*|\.\d+|\d+)\)(?P<exp>{_EXP})?\s*$"
)
_PM_RE = re.compile(
    rf"\s*(?P<lp>\()?\s*(?P<val>{_NUMERAL})\s*(?:±|\+/-)\s*"
    rf"(?P<unc>{_NUMERAL})\s*(?(lp)\))(?P<exp>{_EXP})?\s*$"
)
_BARE_RE = re.compile(rf"\s*(?P<val>{_NUMERAL})\s*$")
# the two texts format_value writes for a NaN pair
_NAN_RE = re.compile(r"\s*NaN(?:\(NaN\)|\s*(?:±|\+/-)\s*NaN)\s*$")
# a plain number cell: a bare numeral, or inf or nan in any case
_PLAIN_RE = re.compile(rf"{_NUMERAL}|[+-]?(?:inf|nan)", re.IGNORECASE)


def parse_value(s: str) -> UncertainScalar:
    """Parse any machine-readable GUM notation back to a value/error pair.

    Accepted forms: "5.00(5)" (parenthesis, last-digit referenced),
    "5.00(0.05)" (parenthesis, absolute), "5.00 ± 0.05" (plus-minus,
    "+/-" also accepted), each with an optional exponent suffix, or a
    bare numeral (error 0).  "NaN(NaN)" and "NaN ± NaN", which
    format_value writes for a NaN pair, read back as that pair.  A pair
    the UncertainScalar constructor rejects is a ParseError at the
    uncertainty.
    """
    m = _PAREN_RE.match(s)
    if m:
        val, unc, exp = m.group("val", "unc", "exp")
        expn = int(exp[1:]) if exp else 0
        v = Decimal(val).scaleb(expn)
        if "." in unc:
            e = Decimal(unc).scaleb(expn)
        else:
            # digits referred to the last decimals of the value
            decimals = len(val.split(".")[1]) if "." in val else 0
            e = Decimal(int(unc)).scaleb(expn - decimals)
    elif m := _PM_RE.match(s):
        exp = m.group("exp")
        expn = int(exp[1:]) if exp else 0
        e = Decimal(m.group("unc")).scaleb(expn)
        v = Decimal(m.group("val")).scaleb(expn)
    elif m := _BARE_RE.match(s):
        return UncertainScalar(float(m.group("val")), 0.0)
    elif _NAN_RE.match(s):
        return UncertainScalar(math.nan, math.nan)
    else:
        # diagnostics: report the first character that no form can start with
        stripped = s.lstrip()
        pos = len(s) - len(stripped)
        raise ParseError(f"unrecognized measurement syntax {s!r}", pos)
    try:
        return UncertainScalar(float(v), float(e))
    except NegativeError as exc:
        raise ParseError(str(exc), m.start("unc")) from None


def format_column(x: UncertainVector, notation: Notation = Notation()) -> list[str]:
    """Format each element independently (no column-wide exponent alignment)."""
    return [
        format_value(float(v), float(e), notation)
        for v, e in zip(x.values, x.errors)
    ]
