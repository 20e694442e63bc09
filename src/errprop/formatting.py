"""GUM-style rendering and parsing of measurements with uncertainty.

Two notations are supported: parenthesis ("5.00(5)") and plus-minus
("5.00 ± 0.05").  The uncertainty is rounded to a configurable number of
significant digits (default 1) and the value is rounded to the same
decimal place.  Rounding is half-away-from-zero; if rounding the
uncertainty carries it into the next decade (0.099 -> 0.1), the display
place is recomputed from the carried uncertainty and both numbers are
re-rounded.  A zero uncertainty prints the bare value.

Both directions also work a column at a time, with the same grammar and
the same rounding: parse_column reads a whole column in one regex pass,
and format_column prints each pair through the routine format_value uses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .core import UncertainScalar, UncertainVector
from .exceptions import NegativeError, ParseError

__all__ = ["Notation", "format_value", "parse_value", "format_column", "parse_column"]

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
    # repr of a numpy float64 is "np.float64(...)"; the text is read off repr
    return _text(float(value), float(error), notation.style, notation.digits)


def format_column(x: UncertainVector, notation: Notation = Notation()) -> list[str]:
    """Format each element independently (no column-wide exponent alignment)."""
    style, digits = notation.style, notation.digits
    return [_text(v, e, style, digits)
            for v, e in zip(x.values.tolist(), x.errors.tolist())]


def _text(v: float, e: float, style: str, digits: int) -> str:
    """Text of one pair: f-strings at the uncertainty's place, or _exact
    where the two could differ.

    The f-strings round the binary value half to even; _exact rounds the
    shortest repr digits half away from zero.  While a unit of the place
    is above 1e-12 of both numbers (so digits <= 12), float error stays
    below 1e-3 of a unit, and the two part only where a number's digits
    lie exactly half a unit off the place: pairs within 0.01 of a unit of
    such a half go to _exact.  So do places outside [-290, 290],
    scientific values whose rounding carries into the next decade (_exact
    prints "10.0e+20" where an f-string prints "1.0e+21"), and zero, NaN
    and infinite numbers.
    """
    av = abs(v)
    if 0 < e < math.inf and 0 < av < math.inf and digits <= 12:
        # the uncertainty at `digits` significant digits, after any carry
        es = format(e, f".{digits - 1}e")
        mantissa, _, top = es.partition("e")
        place = int(top) - digits + 1
        scale = 10.0 ** -place if -290 <= place <= 290 else math.inf
        x, y = av * scale, e * scale  # within 1e-3 of the exact quotients
        if x < 1e12 and abs(x % 1.0 - 0.5) > 0.01 and abs(y % 1.0 - 0.5) > 0.01:
            qe = mantissa.replace(".", "")
            if 1e-4 <= av < 1e16:  # repr(v) has no exponent: [_SCI_LO, _SCI_HI]
                if place < 0:
                    value_text = format(v, f".{-place}f")  # keeps the sign of -0.000
                else:
                    value_text = format(round(v, -place), ".0f")
                    qe += "0" * place
                if style == PARENTHESIS:
                    return f"{value_text}({qe})"
                return f"{value_text} ± {format(e, f'.{-place}f') if place < 0 else qe}"
            exp = repr(v).partition("e")[2]
            decimals = int(exp) - place
            if decimals >= 0:
                s = format(v, f".{decimals}e")
                mv, _, sexp = s.partition("e")
                if sexp == exp:  # no carry into the next decade
                    if style == PARENTHESIS:
                        return f"{mv}({qe})e{exp}"
                    return f"{s} ± {es}"
    return _exact(v, e, style, digits)


def _exact(value: float, error: float, style: str, digits: int) -> str:
    """Text of one pair by integer arithmetic on the shortest repr digits."""
    if math.isnan(value) or math.isnan(error):
        return "NaN(NaN)" if style == PARENTHESIS else "NaN ± NaN"
    if error == 0:
        return _bare(value)
    if math.isinf(value) or math.isinf(error):
        v, e = _bare(value), _bare(error)
        return f"{v}({e})" if style == PARENTHESIS else f"{v} ± {e}"

    # a value that rounds to zero keeps the sign bit: -0.0001 -> -0.000(1)
    sign = "-" if math.copysign(1.0, value) < 0 else ""
    nv, kv = _digits(value)
    ne, ke = _digits(error)
    lead = len(str(nv)) - 1 + kv if value != 0 else 0  # leading digit's power
    scientific = not (_SCI_LO <= lead <= _SCI_HI)
    exp10 = lead if scientific else 0

    place = len(str(ne)) - 1 + ke - (digits - 1)
    qe = _round(ne, ke, place)
    if len(str(qe)) > digits:
        # decade carry: 0.099 -> 0.1 at one digit
        place += 1
        qe = _round(ne, ke, place)
    if place > 290 and math.isinf(float(f"{qe}e{place}")):
        # rounded past the largest float, it would read back as infinite:
        # show the shortest repr digits, which read back as the float itself
        qe, place = ne, ke
    qv = _round(nv, kv, place)
    place -= exp10  # from here on, relative to the displayed mantissa
    value_text = _fixed(sign, qv, place)

    suffix = f"e{exp10:+03d}" if scientific else ""
    if style == PARENTHESIS:
        return f"{value_text}({qe * 10 ** max(place, 0)}){suffix}"
    if scientific:
        # uncertainty printed as its own scientific number
        top = len(str(qe)) - 1
        return f"{value_text}{suffix} ± {_fixed('', qe, -top)}e{top + place + exp10:+03d}"
    return f"{value_text} ± {_fixed('', qe, place)}"


_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)"
_EXP = r"[eE][+-]?\d+"
_NUMERAL = rf"{_NUM}(?:{_EXP})?"

# The measurement forms.  The parenthesis and plus-minus forms each have
# (value, uncertainty, exponent) groups, and the plus-minus form also
# captures its opening parenthesis, lp; a bare numeral has one group; the
# two texts format_value writes for a NaN pair have none.
_PAREN = rf"({_NUM})\((\d+\.\d*|\.\d+|\d+)\)({_EXP})?"
_PM = (rf"(?P<lp>\()?\s*({_NUMERAL})\s*(?:±|\+/-)\s*({_NUMERAL})\s*(?(lp)\))"
       rf"({_EXP})?")
_NAN = r"NaN(?:\(NaN\)|\s*(?:±|\+/-)\s*NaN)"
# One measurement cell.  It starts at the start of the text or after a NUL
# and ends before a NUL or at the end, so parse_value fullmatches a cell
# and parse_column finds all the cells of a NUL-joined column in one scan.
# Its groups: value, uncertainty, exponent of the parenthesis form, then
# lp, value, uncertainty, exponent of the plus-minus form, then the bare
# numeral.
_MEASUREMENT_RE = re.compile(
    rf"(?:^|(?<=\x00))\s*(?:{_PAREN}|{_PM}|({_NUMERAL})|{_NAN})\s*(?=\x00|\Z)")
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
    if "e" in numeral or "E" in numeral:
        numeral, _, exp = numeral.lower().partition("e")
        expn += _exponent(exp)
    return float(f"{numeral}e{expn}") if expn else float(numeral)


def _pair(pval: str, punc: str, pexp: str, lp: str,
          mval: str, munc: str, mexp: str, bare: str) -> tuple[float, float]:
    """The value and uncertainty of one match of _MEASUREMENT_RE."""
    if pval:
        expn = _exponent(pexp[1:]) if pexp else 0
        # digits without a point refer to the last decimals of the value
        shift = 0 if "." in punc else len(pval.partition(".")[2])
        return _scaled(pval, expn), _scaled(punc, expn - shift)
    if mval:
        expn = _exponent(mexp[1:]) if mexp else 0
        return _scaled(mval, expn), _scaled(munc, expn)
    if bare:
        return float(bare), 0.0
    return math.nan, math.nan


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
    m = _MEASUREMENT_RE.fullmatch(s)
    if not m:
        # diagnostics: report the first character that no form can start with
        stripped = s.lstrip()
        pos = len(s) - len(stripped)
        raise ParseError(f"unrecognized measurement syntax {s!r}", pos)
    try:
        return UncertainScalar(*_pair(*m.groups()))
    except NegativeError as exc:
        unc = 2 if m.group(1) else 6  # the uncertainty's group in either form
        raise ParseError(str(exc), m.start(unc)) from None


def parse_column(cells: list[str]) -> UncertainVector | None:
    """Read a column of measurement cells in one pass.

    The cells are joined with NUL and one scan of parse_value's own
    pattern reads them all; each pair gets the bits parse_value gives
    it, and the UncertainVector constructor checks the column once, so
    an illegal pair raises NegativeError.  Returns None when some cell
    is in no form parse_value reads; a cell holding a NUL is one.
    """
    text = "\x00".join(cells)
    # a text column fails at its first cell, before the whole pass
    if text.count("\x00") != len(cells) - 1 or not _MEASUREMENT_RE.match(text):
        return None
    values, errors = [], []
    for m in _MEASUREMENT_RE.finditer(text):  # one match at a time, not all at once
        v, e = _pair(*m.groups())
        values.append(v)
        errors.append(e)
    if len(values) != len(cells):
        return None
    return UncertainVector(values, errors)
