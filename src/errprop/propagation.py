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
    "UNARY_FUNCTIONS",
    "BINARY_FUNCTIONS",
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


def _d_pow_base(x, y):
    return y * np.power(x, y - 1.0)


def _d_pow_exp(x, y):
    return np.log(x) * np.power(x, y)


# identifier -> (value function, derivative function)
UNARY_RULES = {
    "neg": (np.negative, lambda x: np.full_like(x, -1.0)),
    "abs": (np.abs, _d_abs),
    "sqrt": (np.sqrt, lambda x: 0.5 / np.sqrt(x)),
    "exp": (np.exp, np.exp),
    "ln": (np.log, lambda x: 1.0 / x),
    "log2": (np.log2, lambda x: 1.0 / (x * np.log(2.0))),
    "log10": (np.log10, lambda x: 1.0 / (x * np.log(10.0))),
    "sin": (np.sin, np.cos),
    "cos": (np.cos, lambda x: -np.sin(x)),
    "tan": (np.tan, lambda x: 1.0 / np.cos(x) ** 2),
    "asin": (np.arcsin, lambda x: 1.0 / np.sqrt(1.0 - x * x)),
    "acos": (np.arccos, lambda x: -1.0 / np.sqrt(1.0 - x * x)),
    "atan": (np.arctan, lambda x: 1.0 / (1.0 + x * x)),
    "sinh": (np.sinh, np.cosh),
    "cosh": (np.cosh, np.sinh),
    "tanh": (np.tanh, lambda x: 1.0 / np.cosh(x) ** 2),
}

# identifier -> (value function, d/dx, d/dy).  atan2 takes (y, x) order.
BINARY_RULES = {
    "add": (np.add, lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(y)),
    "sub": (np.subtract, lambda x, y: np.ones_like(x), lambda x, y: -np.ones_like(y)),
    "mul": (np.multiply, lambda x, y: y, lambda x, y: x),
    "div": (np.divide, lambda x, y: 1.0 / y, lambda x, y: -x / (y * y)),
    "pow": (np.power, _d_pow_base, _d_pow_exp),
    "atan2": (
        np.arctan2,
        lambda y, x: x / (x * x + y * y),
        lambda y, x: -y / (x * x + y * y),
    ),
}

UNARY_FUNCTIONS = frozenset(UNARY_RULES)
BINARY_FUNCTIONS = frozenset(BINARY_RULES)

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


def _term(deriv, err):
    # a zero uncertainty contributes nothing, even where the derivative
    # is singular (e.g. an exact exponent on a negative base)
    t = np.abs(deriv)
    t *= err
    t[err == 0.0] = 0.0
    return t


def _result(values, errors) -> UncertainVector:
    """The vector of values and errors, where a NaN value carries a NaN error.

    Every function here returns through this, and every caller passes
    errors, and values, that it owns: the NaNs are written into errors
    in place and both arrays are frozen in place.
    """
    errors[np.isnan(values)] = np.nan
    return UncertainVector._unchecked(values, errors)


def propagate_unary(fn: str, x) -> UncertainVector:
    """Apply a unary function elementwise: error = |f'(x)| * dx.

    Domain violations (e.g. sqrt of a negative) yield NaN value and NaN
    error rather than raising.
    """
    try:
        f, fp = UNARY_RULES[fn]
    except KeyError:
        raise UnknownFunction(f"unknown unary function {fn!r}") from None
    x = as_uncertain(x)
    with np.errstate(all="ignore"):
        values = f(x.values)
        errors = _term(fp(x.values), x.errors)
    return _result(values, errors)


def _broadcast(x: UncertainVector, y: UncertainVector):
    if len(x) == len(y):
        return x, y
    if len(x) == 1:
        rep = lambda a: np.repeat(a, len(y))
        return UncertainVector._unchecked(rep(x.values), rep(x.errors)), y
    if len(y) == 1:
        rep = lambda a: np.repeat(a, len(x))
        return x, UncertainVector._unchecked(rep(y.values), rep(y.errors))
    raise LengthMismatch(f"operand lengths {len(x)} and {len(y)}")


def propagate_binary(fn: str, x, y) -> UncertainVector:
    """Combine two independent operands; errors add in quadrature.

    Operands are *always* independent, even if the caller passes the same
    object twice: `x + x` gets the sqrt(2) rule, not the factor-2 rule.
    """
    try:
        f, dfdx, dfdy = BINARY_RULES[fn]
    except KeyError:
        raise UnknownFunction(f"unknown binary function {fn!r}") from None
    x, y = _broadcast(as_uncertain(x), as_uncertain(y))
    with np.errstate(all="ignore"):
        values = f(x.values, y.values)
        # an exact operand (every error 0; NaN is not 0) adds no term, and its
        # derivative is not evaluated: hypot(t, 0) is |t|, bit for bit
        terms = [_term(d(x.values, y.values), o.errors)
                 for d, o in ((dfdx, x), (dfdy, y)) if o.errors.any()]
        if len(terms) == 2:
            errors = np.hypot(*terms)
        else:
            errors = terms[0] if terms else np.zeros(len(values))
    return _result(values, errors)


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
        values, errors = np.cumsum(x.values), np.sqrt(np.cumsum(x.errors**2))
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
        second = _term(np.concatenate(([1.0], values))[:-1], x.errors)
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
        return out[0] if len(out) == 1 else out

    return method


for _fn, _names in _OPERATORS.items():
    for _name, _reflected in zip(_names, (False, True)):
        _method = _operator(_fn, _reflected)
        setattr(UncertainVector, _name, _method)
        setattr(UncertainScalar, _name, _scalar_operator(_method))
