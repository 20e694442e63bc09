"""First-order Taylor (delta method) uncertainty propagation.

Each supported operation carries a precomputed derivative rule; the
propagated uncertainty combines the partial-derivative terms in
quadrature, treating operands as independent.  Two occurrences of the
same measurement are deliberately treated as independent inputs: adding
a measurement to itself is physically two measurements.

The general matrix law `J S J^T` is available for custom Jacobians.
The operators of UncertainVector and UncertainScalar are installed here,
from the table `_OPERATORS` beside the rules they apply.
"""

from __future__ import annotations

import numpy as np

from .core import UncertainScalar, UncertainVector, as_uncertain
from .exceptions import (
    DimensionMismatch,
    LengthMismatch,
    NotSymmetric,
    TooShort,
    UnknownFunction,
)

__all__ = [
    "propagate_unary",
    "propagate_binary",
    "propagate_general",
    "cumulative_sum",
    "cumulative_prod",
    "diff",
]


def _d_abs(x):
    # subgradient midpoint at 0: derivative defined as 0
    return np.sign(x)


# Slopes of +-1.  Their term |+-1| * err is the error itself, so
# propagation recognises them by identity (_UNIT_SLOPES) and calls none.

def _minus_one(x):
    return np.full_like(x, -1.0)


def _one_x(x, y):
    return np.ones_like(x)


def _one_y(x, y):
    return np.ones_like(y)


def _minus_one_y(x, y):
    return -np.ones_like(y)


_UNIT_SLOPES = frozenset({_minus_one, _one_x, _one_y, _minus_one_y})


# The derivatives that chain operations compute into the buffer of their
# first step, with the operations of the textbook formula in its order;
# a**2 is np.square(a) and (-a)/b is -(a/b), bit for bit.  The rules also
# take numpy scalars (a Jacobian's entries), which have no buffer.

def _buffer(t):
    return t if isinstance(t, np.ndarray) else None


def _d_sqrt(x):
    t = np.sqrt(x)
    return np.divide(0.5, t, out=_buffer(t))


def _d_log(x, base):
    t = np.multiply(x, np.log(base))
    return np.divide(1.0, t, out=_buffer(t))


def _d_cos(x):
    t = np.sin(x)
    return np.negative(t, out=_buffer(t))


def _inverse_square(t):
    out = _buffer(t)
    t = np.square(t, out=out)
    return np.divide(1.0, t, out=out)


def _over_sqrt_one_minus_square(numerator, x):
    t = np.multiply(x, x)
    out = _buffer(t)
    t = np.subtract(1.0, t, out=out)
    t = np.sqrt(t, out=out)
    return np.divide(numerator, t, out=out)


def _d_atan(x):
    t = np.multiply(x, x)
    out = _buffer(t)
    t = np.add(1.0, t, out=out)
    return np.divide(1.0, t, out=out)


def _d_div_y(x, y):
    t = np.multiply(y, y)
    out = _buffer(t)
    t = np.divide(x, t, out=out)
    return np.negative(t, out=out)


def _d_pow_base(x, y):
    t = np.subtract(y, 1.0)
    out = _buffer(t)
    t = np.power(x, t, out=out)
    return np.multiply(y, t, out=out)


def _power(x, y):
    """np.power(x, y) for operands of one length, but np.square(x) wherever
    y is exactly 2: there numpy's pow is not correctly rounded, and each
    element's value is the same whatever the others' exponents are."""
    out = np.power(x, y)
    np.square(x, out=out, where=y == 2.0)
    return out


def _d_square(x):
    # y * x^(y - 1) at y = 2, bit for bit: pow(x, 1.0) is x
    return np.multiply(x, 2.0)


def _d_pow_exp(x, y):
    t = np.log(x)
    t *= np.power(x, y)
    return t


def _over_sum_of_squares(numerator, y, x):
    t = np.multiply(x, x)
    t += np.multiply(y, y)
    return np.divide(numerator, t, out=_buffer(t))


def _d_atan2_x(y, x):
    t = _over_sum_of_squares(y, y, x)
    return np.negative(t, out=_buffer(t))


# identifier -> (value function, derivative function)
UNARY_RULES = {
    "neg": (np.negative, _minus_one),
    "abs": (np.abs, _d_abs),
    "sqrt": (np.sqrt, _d_sqrt),
    "exp": (np.exp, np.exp),
    "ln": (np.log, lambda x: 1.0 / x),
    "log2": (np.log2, lambda x: _d_log(x, 2.0)),
    "log10": (np.log10, lambda x: _d_log(x, 10.0)),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, _d_cos),
    "tan": (np.tan, lambda x: _inverse_square(np.cos(x))),
    "asin": (np.arcsin, lambda x: _over_sqrt_one_minus_square(1.0, x)),
    "acos": (np.arccos, lambda x: _over_sqrt_one_minus_square(-1.0, x)),
    "atan": (np.arctan, _d_atan),
    "sinh": (np.sinh, np.cosh),
    "cosh": (np.cosh, np.sinh),
    "tanh": (np.tanh, lambda x: _inverse_square(np.cosh(x))),
}

# identifier -> (value function, d/dx, d/dy).  atan2 takes (y, x) order.
BINARY_RULES = {
    "add": (np.add, _one_x, _one_y),
    "sub": (np.subtract, _one_x, _minus_one_y),
    "mul": (np.multiply, lambda x, y: y, lambda x, y: x),
    "div": (np.divide, lambda x, y: 1.0 / y, _d_div_y),
    "pow": (_power, _d_pow_base, _d_pow_exp),
    "atan2": (np.arctan2, lambda y, x: _over_sum_of_squares(x, y, x), _d_atan2_x),
}

# propagation rule -> operator method names, installed on UncertainVector
# and UncertainScalar at the end of this module: (method,) for unary rules,
# (method, reflected method) for binary ones
_OPERATORS = {
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
    "pow": ("__pow__", "__rpow__"),
    "neg": ("__neg__",),
    "abs": ("__abs__",),
}


def _term(deriv, err, nonzero) -> np.ndarray:
    """|deriv| * err, the term of an operand whose errors `err` hold
    `nonzero` nonzero entries, as a fresh array.

    A zero uncertainty contributes +0, even where the derivative is
    singular (e.g. an exact exponent on a negative base); count_nonzero
    counts -0.0 as zero and NaN as nonzero, as `err == 0.0` does.
    """
    # a rule's fresh array is written in place; an operand, which is
    # read-only (mul's derivative is the other operand), is copied
    t = np.abs(deriv, out=deriv if deriv.flags.writeable else None)
    t *= err
    if nonzero < len(err):
        t[err == 0.0] = 0.0
    return t


def _rule_term(d, args, err, nonzero) -> np.ndarray:
    # a slope of +-1 builds no derivative: its term is the error itself,
    # read-only like every operand's array, and may hold -0.0
    return err if d in _UNIT_SLOPES else _term(d(*args), err, nonzero)


def _quadrature(terms, n) -> np.ndarray:
    """A result's errors: the terms of its uncertain operands in quadrature.

    A writable term is the kernel's own array, and the errors are written
    into it.  A read-only term is an operand's errors (a unit slope's),
    which may hold -0.0: a lone one is copied by abs, and two need none,
    since hypot(a, b) is hypot(|a|, |b|), bit for bit.
    """
    if not terms:
        return np.zeros(n)
    if len(terms) == 1:
        t, = terms
        return t if t.flags.writeable else np.abs(t)
    return np.hypot(*terms, out=terms[0] if terms[0].flags.writeable else None)


def _result(values, errors) -> UncertainVector:
    """The vector of values and errors, where a NaN value carries a NaN error.

    Every function here returns through this, and every caller passes
    errors, and values, that it owns: the NaNs are written into errors
    in place and both arrays are frozen in place.
    """
    errors[np.isnan(values)] = np.nan
    return UncertainVector._unchecked(values, errors)


# The kernels take np.errstate as a decorator, which makes no errstate
# object per call: about 1 us of a length-1 call.

@np.errstate(all="ignore")
def propagate_unary(fn: str, x) -> UncertainVector:
    """Apply a unary function elementwise: error = |f'(x)| * dx.

    Domain violations (e.g. sqrt of a negative) yield NaN value and NaN
    error rather than raising.
    """
    try:
        f, fp = UNARY_RULES[fn]
    except KeyError:
        raise UnknownFunction(f"unknown unary function {fn!r}") from None
    return _unary(f, fp, as_uncertain(x))


def _unary(f, fp, x: UncertainVector) -> UncertainVector:
    # f and its derivative fp applied to x, under the caller's errstate
    nonzero = np.count_nonzero(x.errors)
    values = f(x.values)
    # an exact operand's derivative is not evaluated
    terms = [_rule_term(fp, (x.values,), x.errors, nonzero)] if nonzero else []
    return _result(values, _quadrature(terms, len(values)))


def _operand(x: UncertainVector, n: int):
    """x's values and errors at length n, and its count of nonzero errors.

    A length-1 operand is repeated, since numpy takes other paths for a
    stride-0 operand (see the comment above `expr._numeric_leaf`); an
    exact one's errors enter no term, so only its values are repeated.
    Repeats are read-only, like every operand's arrays.
    """
    nonzero = np.count_nonzero(x.errors)
    if len(x.values) == n:
        return x.values, x.errors, nonzero
    values = np.repeat(x.values, n)
    values.setflags(False)
    if not nonzero:
        return values, x.errors, 0
    errors = np.repeat(x.errors, n)
    errors.setflags(False)
    return values, errors, n


@np.errstate(all="ignore")
def propagate_binary(fn: str, x, y) -> UncertainVector:
    """Combine two independent operands; errors add in quadrature.

    Operands are *always* independent, even if the caller passes the same
    object twice: `x + x` gets the sqrt(2) rule, not the factor-2 rule.
    """
    try:
        f, dfdx, dfdy = BINARY_RULES[fn]
    except KeyError:
        raise UnknownFunction(f"unknown binary function {fn!r}") from None
    x, y = as_uncertain(x), as_uncertain(y)
    lx, ly = len(x.values), len(y.values)
    n = ly if lx == 1 else lx
    if ly not in (1, n):
        raise LengthMismatch(f"operand lengths {lx} and {ly}")
    if fn == "pow" and ly == 1 and (y.values[0], y.errors[0]) == (2.0, 0.0):
        # x^2 with an exact 2 is x's square, decided before any repeat
        return _unary(np.square, _d_square, x)
    (xv, xe, nx), (yv, ye, ny) = _operand(x, n), _operand(y, n)
    values = f(xv, yv)
    # an exact operand adds no term, and its derivative is not evaluated
    terms = [_rule_term(d, (xv, yv), e, nonzero)
             for d, e, nonzero in ((dfdx, xe, nx), (dfdy, ye, ny)) if nonzero]
    return _result(values, _quadrature(terms, n))


_SYM_RTOL = 1e-12  # relative tolerance of propagate_general's symmetry check


def propagate_general(jacobian, covariance) -> np.ndarray:
    """General first-order propagation law: J S J^T.

    The result is symmetrized as (M + M^T)/2 to remove rounding asymmetry.
    """
    j = np.asarray(jacobian, dtype=float)
    s = np.asarray(covariance, dtype=float)
    if j.ndim != 2 or s.ndim != 2:
        raise DimensionMismatch("jacobian and covariance must be 2-d")
    if s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"covariance is {s.shape}, not square")
    if j.shape[1] != s.shape[0]:
        raise DimensionMismatch(
            f"jacobian {j.shape} does not conform with covariance {s.shape}"
        )
    scale = np.abs(s).max() if s.size else 0.0
    if s.size and np.abs(s - s.T).max() > _SYM_RTOL * max(scale, 1e-300):
        raise NotSymmetric("covariance matrix is not symmetric")
    m = j @ s @ j.T
    return (m + m.T) / 2.0


def cumulative_sum(x) -> UncertainVector:
    """Running sums; errors accumulate in quadrature."""
    x = as_uncertain(x)
    with np.errstate(all="ignore"):
        values, errors = np.cumsum(x.values), np.square(x.errors)
        np.cumsum(errors, out=errors)
        np.sqrt(errors, out=errors)
    return _result(values, errors)


def cumulative_prod(x) -> UncertainVector:
    """Running products, bitwise the repeated application of the mul rule."""
    # The mul rule's fold, not the closed form |P_i| * sqrt(cumsum((e/v)**2)):
    # that divides by every value, so a zero value or a zero running product
    # breaks it, and it loses _term's rule that a zero error adds nothing.
    # Step i's error is hypot(|v_i| * E_(i-1), |P_(i-1)| * e_i); only the
    # first term depends on the step before, so only it is a loop.
    x = as_uncertain(x)
    with np.errstate(all="ignore"):
        values = np.multiply.accumulate(x.values)
        second = _term(np.concatenate(([1.0], values))[:-1], x.errors,
                       np.count_nonzero(x.errors))
        errors, pe = [], 0.0
        for v, t in zip(x.values.tolist(), second.tolist()):
            # np.hypot, not math.hypot: their last bits differ
            pe = float(np.hypot(abs(v) * pe if pe != 0.0 else 0.0, t))
            errors.append(pe)
    return _result(values, np.array(errors))


def diff(x) -> UncertainVector:
    """Lagged differences x[k+1] - x[k], elements treated as independent."""
    x = as_uncertain(x)
    if len(x) < 2:
        raise TooShort("diff needs at least 2 elements")
    with np.errstate(all="ignore"):
        values, errors = np.diff(x.values), np.hypot(x.errors[:-1], x.errors[1:])
    return _result(values, errors)


def _operator(fn: str, reflected: bool):
    # plain numbers are exact (error 0); operands are always independent
    if fn in UNARY_RULES:
        return lambda self: propagate_unary(fn, self)
    if reflected:
        return lambda self, other: propagate_binary(fn, other, self)
    return lambda self, other: propagate_binary(fn, self, other)


def _scalar_operator(vector_method):
    # a scalar is the length-1 vector; a length-1 result is a scalar again
    def method(self, *other):
        out = vector_method(self.as_vector(), *other)
        if len(out.values) != 1:
            return out
        (value,), (error,) = out.values.tolist(), out.errors.tolist()
        return UncertainScalar._unchecked(value, error)

    return method


for _fn, _names in _OPERATORS.items():
    for _name, _reflected in zip(_names, (False, True)):
        _method = _operator(_fn, _reflected)
        setattr(UncertainVector, _name, _method)
        setattr(UncertainScalar, _name, _scalar_operator(_method))
