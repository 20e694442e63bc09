"""GUM-style rendering and parsing of measurements with uncertainty.

Two notations are supported: parenthesis ("5.00(5)") and plus-minus
("5.00 ± 0.05").  The uncertainty is rounded to a configurable number of
significant digits (default 1) and the value is rounded to the same
decimal place.  Rounding is half-away-from-zero; if rounding the
uncertainty carries it into the next decade (0.099 -> 0.1), the display
place is recomputed from the carried uncertainty and both numbers are
re-rounded.  A zero uncertainty prints the bare value.  str() of an
UncertainScalar, installed here, is format_value in the default notation.

Both directions also work a column at a time, with the same grammar and
the same rounding: parse_column checks a whole column with one regex
match and reads it a form at a time by str.split and float(), and
format_column decides with numpy, for the whole column, which pairs
printf formats print as format_value does, and at which place.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import compress, count, repeat

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
    return _exact(float(value), float(error), notation.style, notation.digits)


UncertainScalar.__str__ = lambda self: format_value(self.value, self.error)


def format_column(x: UncertainVector, notation: Notation = Notation()) -> list[str]:
    """Format each element independently (no column-wide exponent alignment).

    Each cell is the text format_value gives its pair.  numpy finds, for
    the whole column, the pairs printf formats print as _exact does, with
    the uncertainty's place and rounded digits (_routes); _at_place and
    _scientific join their text, and every other pair goes through _exact.
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
        out[i] = _exact(values[i], errors[i], style, digits)
    return out


# float("1ek") for k in [-324, 309], 10**k correctly rounded (0.0 at -324,
# inf at 309): each is within half an ulp of 10**k, as _routes' 1e-3 bound
# on its quotients assumes, exact for k in [0, 22], and repr(v) has the
# exponent L where float("1eL") <= |v| < float("1e(L+1)")
_TENS = np.array([float(f"1e{k}") for k in range(-324, 310)])


def _ten(k: np.ndarray) -> np.ndarray:
    """float("1ek") for each power k, k clipped to the table: a caller
    rejects what the clip changed."""
    return _TENS[np.clip(k + 324, 0, len(_TENS) - 1)]


def _routes(v: np.ndarray, e: np.ndarray, digits: int):
    """Route each pair of a column to printf formats where they give
    _exact's text: returns (indices, places, q, qv) of the pairs printed in
    fixed notation, (indices, decimals, q) of those printed in scientific
    notation, and the indices of the rest, for _exact, as lists; q and qv
    are the uncertainty and the value's magnitude rounded to units of the
    place.

    printf rounds the binary value half to even, _exact the repr digits
    half away from zero.  With digits <= 12 and x < 1e12, the quotients
    x = |v| / 10**place and y = e / 10**place lie within 1e-3 of a unit of
    the exact ones, so the two part only where a number lies half a unit
    off the place: pairs within 0.01 of a unit of a half go to _exact, as
    do places outside [-290, 290] and zero, NaN and infinite numbers.

    The place starts from log10 and moves by one where y rounds to
    digits + 1 digits or fewer than digits (log10's off-by-one at a power
    of ten, and _exact's decade carry).  y must then lie no more than 0.04
    below 10**(digits-1): after a carry, 9.499999999999999 units may scale
    to 9.5, which rint carries and _exact does not.  A value outside
    [1e-4, 1e16) takes scientific notation and must round to fewer than
    decimals + 2 digits, so that printf's exponent is repr's (_exact
    prints "10.0e+20" where printf gives "1.0e+21"); it rounds to no fewer
    than decimals + 1, as |v| >= float("1eL") lies within 2**-53 of 10**L.
    """
    av = np.abs(v)
    fast = (e > 0) & (e < math.inf) & (av > 0) & (av < math.inf)
    if digits > 12:  # places finer than 1e-12 of a number
        fast[:] = False
    lo, hi = 10.0 ** (digits - 1), 10.0 ** digits
    with np.errstate(all="ignore"):  # log10(0), and inf beyond the float range
        place = np.floor(np.log10(np.where(fast, e, 1.0))).astype(np.int64) - (digits - 1)
        r = np.rint(e * _ten(-place))
        place += (r >= hi).astype(np.int64) - (r < lo)
        scale = _ten(-place)
        x, y = av * scale, e * scale
        q = np.rint(y)
        fast &= ((np.abs(place) <= 290) & (y >= lo - 0.04) & (x < 1e12)
                 & (np.abs(x % 1.0 - 0.5) > 0.01) & (np.abs(y % 1.0 - 0.5) > 0.01))
        window = (av >= _ten(_SCI_LO)) & (av < _ten(_SCI_HI + 1))  # repr(v) has no exponent
        fixed = fast & window
        # the scientific ones: repr's exponent, then the value's decimals
        exp = np.floor(np.log10(np.where(fast, av, 1.0))).astype(np.int64)
        exp += (av >= _ten(exp + 1)).astype(np.int64)
        exp -= av < _ten(exp)
        decimals = exp - place
        mantissa = np.rint(x)
        scientific = (fast & ~window & (decimals >= 0)
                      & (mantissa < _ten(decimals + 1)))
        q, mantissa = q.astype(np.int64), mantissa.astype(np.int64)  # NaN where not taken
    return ((np.flatnonzero(fixed).tolist(), place[fixed].tolist(), q[fixed].tolist(),
             mantissa[fixed].tolist()),
            (np.flatnonzero(scientific).tolist(), decimals[scientific].tolist(),
             q[scientific].tolist()),
            np.flatnonzero(~(fixed | scientific)).tolist())


def _at_place(v: float, e: float, place: int, q: int, qv: int, style: str) -> str:
    """Text of a pair in fixed notation at the uncertainty's place, q and
    qv being the uncertainty's and the value's magnitudes rounded to units
    of the place.

    printf rounds the binary value half to even and _exact the repr digits
    half away from zero, so _routes keeps the pair clear of halves.  At a
    place of units or above, the value is the integer qv * 10**place, as
    _exact writes it.
    """
    if place < 0:
        if style == PARENTHESIS:
            return "%.*f(%d)" % (-place, v, q)  # keeps the sign of -0.000
        return "%.*f ± %.*f" % (-place, v, -place, e)
    unit = 10**place
    value_text = f"{'-' if v < 0 else ''}{qv * unit}"  # -0 as _exact keeps the sign
    if style == PARENTHESIS:
        return f"{value_text}({q * unit})"
    return f"{value_text} ± {q * unit}"


def _scientific(s: str, e: float, q: int, style: str, digits: int) -> str:
    """_exact's text of a pair in scientific notation, s being the value's
    printf text at the uncertainty's place with repr's exponent
    ("-1.234e+20") and q the uncertainty's rounded digits (see _routes)."""
    if style == PARENTHESIS:
        return s.replace("e", f"({q})e")
    return f"{s} ± {format(e, f'.{digits - 1}e')}"


def _exact(value: float, error: float, style: str, digits: int) -> str:
    """Text of one pair by integer arithmetic on the shortest repr digits."""
    if error == 0:
        return _bare(value)
    if not (math.isfinite(value) and math.isfinite(error)):
        # each number as it is: "5(NaN)", "0(Inf)", "Inf(0.1)", "NaN ± NaN"
        v, e = _bare(value), _bare(error)
        if style == PLUS_MINUS:
            return f"{v} ± {e}"
        # "1e-05(Inf)" and "Inf(1e-05)" would not read back
        v, sep, exp = v.partition("e")
        if "e" in e:
            e = _fixed("", *_digits(error))
        return f"{v}({e}){sep}{exp}"

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
# numeral, or inf or nan in any letter case, with an optional sign.  No
# piece can end where the next begins, so every quantifier is possessive:
# a failing cell is not retried, and a text column fails at its first cell.
_DIGITS = r"(?:\d++(?:\.\d*+)?+|\.\d++)"
_EXP = r"[eE][+-]?+\d++"
_NUMERAL = rf"{_DIGITS}(?:{_EXP})?+"
_NONFINITE = r"(?i:inf|nan)"
_NUMBER = rf"[+-]?+(?>{_NUMERAL}|{_NONFINITE})"
_MANTISSA = rf"(?>{_DIGITS}|{_NONFINITE})"
_SEP = r"(?:±|\+/-)"

# The measurement forms, with the groups _pair takes: parse_value and
# parse_column's fallback fullmatch one cell.  No piece starts with a
# blank, so blank runs are possessive and a failing cell takes linear
# time; a group is never under a possessive quantifier, as CPython's re
# can then misplace its span.
_PAREN = rf"([+-]?{_MANTISSA})\(({_MANTISSA})\)({_EXP})?"
_PM = rf"(?P<lp>\()?\s*+({_NUMBER})\s*+{_SEP}\s*+({_NUMBER})\s*+(?(lp)\))({_EXP})?"
_MEASUREMENT_RE = re.compile(rf"\s*+(?:{_PAREN}|{_PM}|({_NUMBER}))\s*+")
_NUMBER_RE = re.compile(_NUMBER)
# a NUL-joined column of bare numbers, each cell exactly one number
_NUMBERS_RE = re.compile(rf"{_NUMBER}(?:\x00{_NUMBER})*+")
# The same forms with no groups, factored on their leading number (a
# parenthesis, or a plus-minus or bare tail, with an exponent only after
# digits), and a parenthesised plus-minus pair: a NUL-joined column of
# cells, checked by one fullmatch.  Compiled on first use, by re's cache.
_CELL = (rf"\s*+(?>[+-]?+{_MANTISSA}(?>\({_MANTISSA}\)(?:{_EXP})?+"
         rf"|(?:(?<=[\d.]){_EXP})?+(?:\s*+{_SEP}\s*+{_NUMBER}\s*+(?:{_EXP})?+)?+)"
         rf"|\(\s*+{_NUMBER}\s*+{_SEP}\s*+{_NUMBER}\s*+\)(?:{_EXP})?+)\s*+")
_CELLS = rf"{_CELL}(?:\x00{_CELL})*+"

# Every start of a cell _MEASUREMENT_RE reads, and no other text: the
# offset of a cell that no form reads is the length of its longest such
# start.  Each _P piece matches the starts of its piece; a start of a
# sequence is whole pieces and then a start of the next.  Compiled on
# first use, by re's cache.
_P_EXP = r"(?:[eE][+-]?+\d*+)?+"
_P_NONFINITE = r"(?i:i(?:nf?)?|n(?:an?)?)?"
_P_MANTISSA = rf"(?:\d*+\.?+\d*+|{_P_NONFINITE})"
_P_NUMBER = rf"[+-]?+(?:{_DIGITS}{_P_EXP}|\.?|{_P_NONFINITE})"
_P_SEP = r"(?:±|\+(?:/-?)?)?"
_P_PAREN = rf"[+-]?(?:{_P_MANTISSA}|{_MANTISSA}\((?:{_P_MANTISSA}|{_MANTISSA}\){_P_EXP}))"


def _p_plus_minus(p_end: str) -> str:
    """The starts of "number ± number" followed by a text whose starts
    p_end matches."""
    return (rf"(?:{_P_NUMBER}|{_NUMBER}\s*+(?:{_P_SEP}|{_SEP}\s*+"
            rf"(?:{_P_NUMBER}|{_NUMBER}\s*+{p_end})))")


_P_CLOSE = rf"(?:\){_P_EXP})?"
_STARTS = (rf"\s*+(?:{_P_PAREN}|\(\s*+{_p_plus_minus(_P_CLOSE)}|{_p_plus_minus(_P_EXP)})"
           rf"|{_MEASUREMENT_RE.pattern}")


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
    bare number (error 0); inf and nan are numbers ("5(NaN)", "0(Inf)"),
    and an exponent past the float range makes them infinite.  A negative
    uncertainty is a ParseError at the uncertainty ("5 ± -1" at 4); a text
    no form reads is one at the length of its longest start that some cell
    starts with ("2.0(1" at 5, "2.0(x)" at 4).
    """
    m = _MEASUREMENT_RE.fullmatch(s)
    if not m:
        raise ParseError(f"unrecognized measurement syntax {s!r}", _longest_start(s))
    try:
        return UncertainScalar(*_pair(*m.groups()))
    except NegativeError as exc:
        unc = 2 if m.group(1) else 6  # the uncertainty's group in either form
        raise ParseError(str(exc), m.start(unc)) from None


def _longest_start(s: str) -> int:
    """The length of the longest start of s that some cell starts with: a
    binary search, as every start of such a start is one too."""
    lo, hi = 0, len(s)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if re.fullmatch(_STARTS, s[:mid]) else (lo, mid - 1)
    return lo


def parse_number(s: str) -> float:
    """The float of a text that is one bare number, as a plain cell is."""
    m = _NUMBER_RE.match(s)
    if not m or m.end() != len(s):
        raise ParseError(f"not a number: {s!r}", m.end() if m else 0)
    return float(s)


def parse_column(cells: list[str]) -> np.ndarray | UncertainVector | None:
    """Read a column of cells: a float array when every cell is a bare
    number, an UncertainVector when parse_value reads every cell, else
    None, as parse_value would raise on some cell (a cell holding a NUL is
    one).

    One fullmatch over the NUL-joined column checks every cell against the
    grammar.  Cells are then read a form at a time, by float() over the
    pieces that str.split leaves (_parenthesis_pairs, _plus_minus_pairs,
    and bare numbers), with the bits parse_value gives each pair; the rest
    (a "+/-" or a parenthesised plus-minus pair, an uncertainty that
    _parenthesis_pairs cannot scale exactly, and every cell of a form where
    float() or int() refused a piece) go through _pair one at a time.
    """
    n = len(cells)
    if not n:
        return np.empty(0)
    text = "\x00".join(cells)
    if text.count("\x00") != n - 1:  # a cell holding a NUL
        return None
    if _NUMBERS_RE.fullmatch(text):
        return np.fromiter(map(float, cells), float, n)
    if not re.fullmatch(_CELLS, text):
        return None
    paren, pm, slash = (np.fromiter(map(operator.contains, cells, repeat(s)), bool, n)
                        if s in text else np.zeros(n, bool) for s in ("(", "±", "+/-"))
    values, errors, read = np.empty(n), np.empty(n), np.zeros(n, bool)
    for pairs, form in ((_parenthesis_pairs, paren & ~pm & ~slash),
                        (_plus_minus_pairs, pm & ~paren), (_bare_pairs, ~(paren | pm | slash))):
        if not form.any():
            continue
        try:
            v, e, exact = pairs(list(compress(cells, form)))
        except ValueError:  # a piece float() or int() does not read as the grammar does
            continue
        values[form], errors[form] = v, e
        read[form] = exact
    for i in np.flatnonzero(~read).tolist():
        values[i], errors[i] = _pair(*_MEASUREMENT_RE.fullmatch(cells[i]).groups())
    try:
        return UncertainVector(values, errors)
    except NegativeError:  # a negative uncertainty
        return None


def _parenthesis_pairs(cells: list[str]):
    """Values, uncertainties and an exactness mask of parenthesis cells.

    A value is float() of its mantissa and exponent.  An uncertainty of
    digits with no point refers to the mantissa's last decimals: it is
    u * 10**k, k being the exponent less those decimals.  Where u < 2**53
    and |k| <= 22, both u and 10**|k| are exact floats, so one IEEE
    multiplication or division rounds their product correctly, as float()
    rounds the decimal text _pair writes (Clinger 1990).  An uncertainty
    with a point takes the exponent alone, so it is float() of its text
    where there is no exponent.  The mask is False on the other cells.
    """
    n = len(cells)
    parts = "\x00".join(cells).replace("(", "\x00").replace(")", "\x00").split("\x00")
    mantissas, digits, exponents = parts[0::3], parts[1::3], parts[2::3]
    values = np.fromiter(map(float, map(operator.add, mantissas, exponents)), float, n)
    u = np.fromiter(map(float, digits), float, n)
    point = np.fromiter(map(str.find, mantissas, repeat(".")), np.int64, n)
    decimals = np.where(point < 0, 0, np.fromiter(map(len, mantissas), np.int64, n) - point - 1)
    dotted = np.fromiter(map(operator.contains, digits, repeat(".")), bool, n)
    expn, short = np.zeros(n, np.int64), np.ones(n, bool)
    for i in compress(count(), exponents):
        x = exponents[i]
        if len(x) > 6:  # a long one goes to _pair, which caps it
            short[i] = False
        else:
            expn[i] = int(x[1:])
    k = expn - np.where(dotted, 0, decimals)
    exact = short & ((k == 0) | (~dotted & (u < 2.0**53) & (np.abs(k) <= 22)))
    with np.errstate(over="ignore"):  # a product that overflows is not exact
        errors = np.where(k < 0, u / _ten(np.clip(-k, 0, 22)), u * _ten(np.clip(k, 0, 22)))
    return values, errors, exact


def _plus_minus_pairs(cells: list[str]):
    """Values, uncertainties and an exactness mask of "v ± u" cells: float()
    of each side reads its own exponent, as _scaled does."""
    n = len(cells)
    parts = "\x00".join(cells).replace("±", "\x00").split("\x00")
    return (np.fromiter(map(float, parts[0::2]), float, n),
            np.fromiter(map(float, parts[1::2]), float, n), np.ones(n, bool))


def _bare_pairs(cells: list[str]):
    """Values, zero uncertainties and an exactness mask of bare numbers."""
    n = len(cells)
    return np.fromiter(map(float, cells), float, n), np.zeros(n), np.ones(n, bool)
