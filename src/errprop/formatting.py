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
and format_column decides with numpy, for the whole column, which pairs
take format_value's printf branch and at which place.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import UncertainScalar, UncertainVector
from .exceptions import NegativeError, ParseError

__all__ = ["Notation", "format_value", "parse_value", "format_column", "parse_column",
           "parse_number"]

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
    """Format each element independently (no column-wide exponent alignment).

    Each cell is the text format_value gives its pair.  numpy finds, for
    the whole column, the pairs _text prints by printf formats, with the
    uncertainty's place and rounded digits; _at_place and _scientific join
    their text, as for _text, and every other pair goes through _text.
    """
    style, digits = notation.style, notation.digits
    values, errors = x.values.tolist(), x.errors.tolist()
    out = [None] * len(values)
    fixed, scientific, rest = _routes(x.values, x.errors, digits)
    for i, place, q, qv in zip(*fixed):
        out[i] = _at_place(values[i], errors[i], place, q, qv, style)
    for i, decimals, q in zip(*scientific):
        out[i] = _scientific("%.*e" % (decimals, values[i]), errors[i], q, style, digits)
    for i in rest:
        out[i] = _text(values[i], errors[i], style, digits)
    return out


# 10.0 ** k for k in [-290, 290], the Python floats _text scales by:
# np.power's last bits may differ from them
_TENS = np.array([10.0 ** k for k in range(-290, 291)])
# float("1eL") for L in [-324, 309]: repr(v) has the exponent L where
# float("1eL") <= |v| < float("1e(L+1)")
_DECADES = np.array([float(f"1e{k}") for k in range(-324, 310)])


def _at(table: np.ndarray, first: int, k: np.ndarray) -> np.ndarray:
    """The entries for powers k of a table that starts at the power first,
    k clipped to the table: a caller rejects what the clip changed."""
    return table[np.clip(k - first, 0, len(table) - 1)]


def _routes(v: np.ndarray, e: np.ndarray, digits: int):
    """Route each pair of a column the way _text would.

    Returns (indices, places, q, qv) of the pairs _text prints in fixed
    notation, (indices, decimals, q) of those it prints in scientific
    notation by printf, and the indices of the rest, as lists;
    q and qv are the uncertainty and the value's magnitude rounded to
    integers of units at the place.

    The place starts from log10 and moves by one where the rounded
    quotient y has digits + 1 digits or fewer than digits, which absorbs
    log10's off-by-one at a power of ten and a carry into the next decade;
    after the move y rounds to `digits` digits.  A pair is taken where
    _text's guards hold at that place (y and x are the quotients _text
    computes) and y lies no more than 0.04 below 10**(digits-1): after a
    carry, a quotient of 9.499999999999999 units may scale to 9.5, which
    rint carries and format(e, ".0e") does not.  A scientific value must
    also round to fewer than decimals + 2 digits at the place, so that
    printf's exponent is repr's: no carry.  It rounds to no fewer than
    decimals + 1, as |v| >= float("1eL") lies within 2**-53 of 10**L.
    """
    av = np.abs(v)
    fast = (e > 0) & (e < math.inf) & (av > 0) & (av < math.inf)
    if digits > 12:  # places finer than 1e-12 of a number
        fast[:] = False
    lo, hi = 10.0 ** (digits - 1), 10.0 ** digits
    with np.errstate(all="ignore"):  # log10(0), and inf beyond the float range
        place = np.floor(np.log10(np.where(fast, e, 1.0))).astype(np.int64) - (digits - 1)
        r = np.rint(e * _at(_TENS, -290, -place))
        place += (r >= hi).astype(np.int64) - (r < lo)
        scale = _at(_TENS, -290, -place)
        x, y = av * scale, e * scale
        q = np.rint(y)
        fast &= ((np.abs(place) <= 290) & (y >= lo - 0.04) & (x < 1e12)
                 & (np.abs(x % 1.0 - 0.5) > 0.01) & (np.abs(y % 1.0 - 0.5) > 0.01))
        window = (av >= 1e-4) & (av < 1e16)  # repr(v) has no exponent
        fixed = fast & window
        # the scientific ones: repr's exponent, then the value's decimals
        exp = np.floor(np.log10(np.where(fast, av, 1.0))).astype(np.int64)
        exp += (av >= _at(_DECADES, -324, exp + 1)).astype(np.int64)
        exp -= av < _at(_DECADES, -324, exp)
        decimals = exp - place
        mantissa = np.rint(x)
        scientific = (fast & ~window & (decimals >= 0)
                      & (mantissa < _at(_TENS, -290, decimals + 1)))
        q, mantissa = q.astype(np.int64), mantissa.astype(np.int64)  # NaN where not taken
    return ((np.flatnonzero(fixed).tolist(), place[fixed].tolist(), q[fixed].tolist(),
             mantissa[fixed].tolist()),
            (np.flatnonzero(scientific).tolist(), decimals[scientific].tolist(),
             q[scientific].tolist()),
            np.flatnonzero(~(fixed | scientific)).tolist())


def _text(v: float, e: float, style: str, digits: int) -> str:
    """Text of one pair: printf formats at the uncertainty's place, or
    _exact where the two could differ.

    printf rounds the binary value half to even; _exact rounds the
    shortest repr digits half away from zero.  While a unit of the place
    is above 1e-12 of both numbers (so digits <= 12), float error stays
    below 1e-3 of a unit, and the two part only where a number's digits
    lie exactly half a unit off the place: pairs within 0.01 of a unit of
    such a half go to _exact.  So do places outside [-290, 290],
    scientific values whose rounding carries into the next decade (_exact
    prints "10.0e+20" where printf prints "1.0e+21"), and zero, NaN
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
                return _at_place(v, e, place, int(qe), round(x), style)
            exp = repr(v).partition("e")[2]
            decimals = int(exp) - place
            if decimals >= 0:
                s = format(v, f".{decimals}e")
                if s.partition("e")[2] == exp:  # no carry into the next decade
                    return _scientific(s, e, int(qe), style, digits)
    return _exact(v, e, style, digits)


def _at_place(v: float, e: float, place: int, q: int, qv: int, style: str) -> str:
    """Text of a pair in fixed notation at the uncertainty's place, q and
    qv being the uncertainty's and the value's magnitudes rounded to units
    of the place.

    printf rounds the binary value half to even, so the caller keeps the
    pair clear of halves.  At a place of units or above, the value is the
    integer qv * 10**place, which is below 1e16 and even from 2**53 on, so
    a float: the text format(round(v, -place), ".0f") would give.
    """
    if place < 0:
        if style == PARENTHESIS:
            return "%.*f(%d)" % (-place, v, q)  # keeps the sign of -0.000
        return "%.*f ± %.*f" % (-place, v, -place, e)
    unit = 10**place
    value_text = f"{'-' if v < 0 else ''}{qv * unit}"  # -0 as round(v, -place) is -0.0
    if style == PARENTHESIS:
        return f"{value_text}({q * unit})"
    return f"{value_text} ± {q * unit}"


def _scientific(s: str, e: float, q: int, style: str, digits: int) -> str:
    """Text of a pair in scientific notation, s being the value's printf
    text at the uncertainty's place ("-1.234e+20") and q the uncertainty's
    rounded digits."""
    if style == PARENTHESIS:
        return s.replace("e", f"({q})e")
    return f"{s} ± {format(e, f'.{digits - 1}e')}"


def _exact(value: float, error: float, style: str, digits: int) -> str:
    """Text of one pair by integer arithmetic on the shortest repr digits."""
    if math.isnan(error):
        return "NaN(NaN)" if style == PARENTHESIS else "NaN ± NaN"
    if error == 0:
        return _bare(value)
    if not math.isfinite(value) or math.isinf(error):
        v, e = _bare(value), _bare(error)
        if style == PARENTHESIS and "e" in e:  # "Inf(1e-05)" would not read back
            e = _fixed("", *_digits(error))
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


# One number at every text boundary, the text _bare writes: a finite
# numeral, or inf or nan in any letter case, with an optional sign.
_DIGITS = r"(?:\d+(?:\.\d*)?|\.\d+)"
_EXP = r"[eE][+-]?\d+"
_NUMERAL = rf"{_DIGITS}(?:{_EXP})?"
_NONFINITE = r"(?i:inf|nan)"
_NUMBER = rf"[+-]?(?:{_NUMERAL}|{_NONFINITE})"
_MANTISSA = rf"(?:{_DIGITS}|{_NONFINITE})"

# The measurement forms, with the groups _pair takes.  A cell starts at the
# start of the text or after a NUL and ends before a NUL or at the end, so
# parse_value fullmatches a cell and parse_column finds all the cells of a
# NUL-joined column in one scan.
_PAREN = rf"([+-]?{_MANTISSA})\(({_MANTISSA})\)({_EXP})?"
_PM = (rf"(?P<lp>\()?\s*({_NUMBER})\s*(?:±|\+/-)\s*({_NUMBER})\s*(?(lp)\))"
       rf"({_EXP})?")
_MEASUREMENT_RE = re.compile(
    rf"(?:^|(?<=\x00))\s*(?:{_PAREN}|{_PM}|({_NUMBER}))\s*(?=\x00|\Z)")
_NUMBER_RE = re.compile(_NUMBER)
# a NUL-joined column of bare numbers, each cell exactly one number
_NUMBERS_RE = re.compile(rf"{_NUMBER}(?:\x00{_NUMBER})*")


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
    finite = not numeral[-1].isalpha()  # inf and nan take no exponent
    return float(f"{numeral}e{expn}") if expn and finite else float(numeral)


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
    return float(bare), 0.0


def parse_value(s: str) -> UncertainScalar:
    """Parse any machine-readable GUM notation back to a value/error pair.

    Accepted forms: "5.00(5)" (parenthesis, last-digit referenced),
    "5.00(0.05)" (parenthesis, absolute), "5.00 ± 0.05" (plus-minus,
    "+/-" also accepted), each with an optional exponent suffix, or a
    bare number (error 0); inf and nan are numbers ("NaN(NaN)").  A pair
    the UncertainScalar constructor rejects is a ParseError at the
    uncertainty.
    """
    m = _MEASUREMENT_RE.fullmatch(s)
    if not m:
        # diagnostics: report the first character that no form can start with
        raise ParseError(f"unrecognized measurement syntax {s!r}", len(s) - len(s.lstrip()))
    try:
        return UncertainScalar(*_pair(*m.groups()))
    except NegativeError as exc:
        unc = 2 if m.group(1) else 6  # the uncertainty's group in either form
        raise ParseError(str(exc), m.start(unc)) from None


def parse_number(s: str) -> float:
    """The float of a text that is one bare number, as a plain cell is."""
    m = _NUMBER_RE.match(s)
    if not m or m.end() != len(s):
        raise ParseError(f"not a number: {s!r}", m.end() if m else 0)
    return float(s)


def parse_column(cells: list[str]) -> np.ndarray | UncertainVector | None:
    """Read a column of cells, joined with NUL, in one pass: a float array
    when one match of the bare-number pattern covers the text; else an
    UncertainVector from one scan of parse_value's pattern, with the bits
    parse_value gives each pair, checked once; else None, as parse_value
    would raise on some cell (a cell holding a NUL is one)."""
    if not cells:
        return np.empty(0)
    text = "\x00".join(cells)
    # a text column fails at its first cell, before the whole pass
    if text.count("\x00") != len(cells) - 1 or not _MEASUREMENT_RE.match(text):
        return None
    if _NUMBERS_RE.fullmatch(text):
        return np.array([float(c) for c in cells])
    values, errors = [], []
    for m in _MEASUREMENT_RE.finditer(text):  # one match at a time, not all at once
        v, e = _pair(*m.groups())
        values.append(v)
        errors.append(e)
    try:
        return UncertainVector(values, errors) if len(values) == len(cells) else None
    except NegativeError:  # an illegal pair
        return None
