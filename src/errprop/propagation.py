"""First-order Taylor (delta method) uncertainty propagation.

Each supported operation carries a precomputed derivative rule; the
propagated uncertainty combines the partial-derivative terms in
quadrature, treating operands as independent.  Two occurrences of the
same measurement are deliberately treated as independent inputs: adding
a measurement to itself is physically two measurements.

The general matrix law `J S J^T` is available for custom Jacobians.
"""

from __future__ import annotations

import numpy as np

from .core import UncertainVector, as_uncertain
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


def _term(deriv, err):
    # a zero uncertainty contributes nothing, even where the derivative
    # is singular (e.g. an exact exponent on a negative base)
    return np.where(err == 0.0, 0.0, np.abs(deriv) * err)


def _result(values, errors) -> UncertainVector:
    # every function here returns through this: a NaN value carries a NaN error
    return UncertainVector._unchecked(values, np.where(np.isnan(values), np.nan, errors))


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
        tx = _term(dfdx(x.values, y.values), x.errors)
        ty = _term(dfdy(x.values, y.values), y.errors)
        errors = np.hypot(tx, ty)
    return _result(values, errors)


def propagate_general(jacobian, covariance, *, sym_rtol: float = 1e-12) -> np.ndarray:
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
    if s.size and np.abs(s - s.T).max() > sym_rtol * max(scale, 1e-300):
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
    """Running products via repeated application of the mul rule."""
    # A fold, not the closed form |P_i| * sqrt(cumsum((e/v)**2)): that
    # divides by every value, so a zero value or a zero running product
    # breaks it, and it loses _term's rule that a zero error adds nothing.
    x = as_uncertain(x)
    values = np.empty(len(x))
    errors = np.empty(len(x))
    pv, pe = 1.0, 0.0
    with np.errstate(all="ignore"):
        for i, (v, e) in enumerate(zip(x.values, x.errors)):
            pv, pe = pv * v, float(np.hypot(_term(v, pe), _term(pv, e)))
            values[i] = pv
            errors[i] = pe
    return _result(values, errors)


def diff(x) -> UncertainVector:
    """Lagged differences x[k+1] - x[k], elements treated as independent."""
    x = as_uncertain(x)
    if len(x) < 2:
        raise TooShort("diff needs at least 2 elements")
    with np.errstate(all="ignore"):
        values, errors = np.diff(x.values), np.hypot(x.errors[:-1], x.errors[1:])
    return _result(values, errors)
