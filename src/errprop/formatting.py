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

from .core import UncertainScalar, UncertainVector
from .exceptions import NegativeError, ParseError

__all__ = ["Notation", "format_value", "parse_value", "format_column"]

PARENTHESIS = "parenthesis"
PLUS_MINUS = "plus-minus"

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
        # a float64 has at most 17 significant digits; more would be padding
        if not 1 <= self.digits <= 17:
            raise ValueError("digits must be between 1 and 17")


def _digits(x: float) -> tuple[int, int]:
    """abs(x) as n * 10**k, exactly, from the shortest repr digits of x."""
    mantissa, _, exp = repr(float(x)).partition("e")
    whole, _, frac = mantissa.partition(".")
    return abs(int(whole + frac)), int(exp or 0) - len(frac)


def _round(n: int, k: int, place: int) -> int:
    """n * 10**k rounded half away from zero, in units of 10**place."""
    unit = 10 ** max(place - k, 0)
    q, r = divmod(n * 10 ** max(k - place, 0), unit)
    return q + (2 * r >= unit)


def _fixed(sign: str, q: int, place: int) -> str:
    """Text of sign * q * 10**place with max(0, -place) decimals."""
    if place >= 0:
        return f"{sign}{q * 10**place}"
    s = str(q).rjust(1 - place, "0")
    return f"{sign}{s[:place]}.{s[place:]}"


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

    # a value that rounds to zero keeps the sign bit: -0.0001 -> -0.000(1)
    sign = "-" if math.copysign(1.0, value) < 0 else ""
    nv, kv = _digits(value)
    ne, ke = _digits(error)
    lead = len(str(nv)) - 1 + kv if value != 0 else 0  # leading digit's power
    scientific = not (_SCI_LO <= lead <= _SCI_HI)
    exp10 = lead if scientific else 0

    place = len(str(ne)) - 1 + ke - (notation.digits - 1)
    qe = _round(ne, ke, place)
    if len(str(qe)) > notation.digits:
        # decade carry: 0.099 -> 0.1 at one digit
        place += 1
        qe = _round(ne, ke, place)
    qv = _round(nv, kv, place)
    place -= exp10  # from here on, relative to the displayed mantissa
    value_text = _fixed(sign, qv, place)

    suffix = f"e{exp10:+03d}" if scientific else ""
    if notation.style == PARENTHESIS:
        return f"{value_text}({qe * 10 ** max(place, 0)}){suffix}"
    if scientific:
        # uncertainty printed as its own scientific number
        top = len(str(qe)) - 1
        return f"{value_text}{suffix} ± {_fixed('', qe, -top)}e{top + place + exp10:+03d}"
    return f"{value_text} ± {_fixed('', qe, place)}"


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


# an exponent's magnitude saturates here: a numeral would need about this
# many digits to bring the number back into the float range
_EXP_CAP = 10**19


def _exponent(text: str) -> int:
    """Value of an exponent's signed digits, its magnitude at most _EXP_CAP."""
    if len(text) < 20:
        return int(text)  # at most 19 digits: below the cap
    digits = text.lstrip("+-")
    # leading zeros add nothing, and int() reads at most 4,300 digits
    first = next((i for i, c in enumerate(digits) if int(c)), len(digits))
    n = min(int(digits[first:first + 20] or 0), _EXP_CAP)
    return -n if text[0] == "-" else n


def _scaled(numeral: str, expn: int) -> float:
    """The float nearest to numeral * 10**expn (float() rounds correctly)."""
    mantissa, _, exp = numeral.lower().partition("e")
    if exp:
        expn += _exponent(exp)
    return float(f"{mantissa}e{expn}")


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
    m = _PAREN_RE.match(s) or _PM_RE.match(s)
    if m:
        val, unc, exp = m.group("val", "unc", "exp")
        expn = _exponent(exp[1:]) if exp else 0
        v = _scaled(val, expn)
        if m.re is _PAREN_RE and "." not in unc:
            # digits referred to the last decimals of the value
            expn -= len(val.partition(".")[2])
        e = _scaled(unc, expn)
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
        return UncertainScalar(v, e)
    except NegativeError as exc:
        raise ParseError(str(exc), m.start("unc")) from None


def format_column(x: UncertainVector, notation: Notation = Notation()) -> list[str]:
    """Format each element independently (no column-wide exponent alignment)."""
    return [
        format_value(v, e, notation)
        for v, e in zip(x.values.tolist(), x.errors.tolist())
    ]
