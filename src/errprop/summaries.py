"""Summary statistics with central-tendency error rules.

The error of a central-tendency summary can never be smaller than the
errors of the individual measurements, so mean-like summaries take the
maximum of the dispersion-based estimate (SEM) and the mean of the
individual errors.  The median's error is sqrt(pi/2) times the mean's.
"""

from __future__ import annotations

import math

import numpy as np

from .core import UncertainScalar, UncertainVector, as_uncertain
from .exceptions import EmptyInput, LengthMismatch, NegativeError, ZeroWeightSum
from .propagation import cumulative_prod

__all__ = [
    "total",
    "product",
    "mean",
    "weighted_mean",
    "median",
    "minimum",
    "maximum",
    "value_range",
    "MEDIAN_FACTOR",
]

# asymptotic efficiency of the median for normal data
MEDIAN_FACTOR = math.sqrt(math.pi / 2.0)


def _nonempty(x: UncertainVector, what: str) -> UncertainVector:
    if len(x) == 0:
        raise EmptyInput(f"{what} of an empty vector")
    return x


def _summary(value: float, error: float) -> UncertainScalar:
    # as for every propagation result, a NaN value carries a NaN error
    return UncertainScalar._unchecked(value, math.nan if math.isnan(value) else error)


# inf - inf in a sum is a NaN result, as in propagation, not a warning
@np.errstate(all="ignore")
def total(x) -> UncertainScalar:
    """Sum of all elements; error is the quadrature of the element errors."""
    x = _nonempty(as_uncertain(x), "sum")
    return _summary(float(np.sum(x.values)), float(np.sqrt(np.sum(x.errors**2))))


def product(x) -> UncertainScalar:
    """Product of all elements (left fold of the mul rule)."""
    x = _nonempty(as_uncertain(x), "product")
    return cumulative_prod(x)[-1]


def mean(x) -> UncertainScalar:
    """Arithmetic mean with error = max(SEM, mean of individual errors).

    SEM uses the n-1 sample standard deviation.  For a single element the
    SEM is undefined and the element's own error is returned.  This is
    `weighted_mean` with unit weights, bit for bit, without the weights.
    """
    x = _nonempty(as_uncertain(x), "mean")
    return _mean_rule(x.values, x.errors, None, float(len(x)))


@np.errstate(all="ignore")
def weighted_mean(x, weights) -> UncertainScalar:
    """Weighted mean with error = max(weighted SEM, weighted mean of errors).

    weighted SEM = sqrt(sum w_i (v_i - vbar)^2 * n / (sum w_i * (n-1))) / sqrt(n);
    the n/(n-1) factor makes uniform weights reduce exactly to the
    sample-sd SEM of `mean`.  Every weight must be finite and nonnegative;
    weights so large that a sum of them overflows count as the same
    weights scaled down by a power of two.
    """
    x = _nonempty(as_uncertain(x), "weighted mean")
    w = np.asarray(weights, dtype=float)
    if len(w) != len(x):
        raise LengthMismatch(f"{len(x)} values but {len(w)} weights")
    bad = ~((0 <= w) & (w < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise NegativeError(f"weight {w[i]} at index {i}: "
                            "weights must be finite and nonnegative")
    wsum = float(np.sum(w))
    if wsum <= 0:
        raise ZeroWeightSum("weights sum to zero")
    return _mean_rule(x.values, x.errors, w, wsum)


@np.errstate(all="ignore")
def _mean_rule(v, e, w, wsum: float) -> UncertainScalar:
    # w is None for unit weights (wsum = n): 1.0*a is a and the sum of n
    # ones is n, exactly, so no product with the weights is formed
    n = len(v)
    vsum = np.sum(v if w is None else w * v)
    esum = np.sum(e if w is None else w * e)
    if w is not None and not all(map(math.isfinite, (wsum, vsum, esum))):
        k = math.frexp(w.max())[1] - 1
        if k > 0:
            # a sum overflowed: the weights scaled by a power of two, the
            # largest into [1, 2), weigh alike, and their sums overflow
            # only where weights of that size would
            w = w * 2.0**-k
            return _mean_rule(v, e, w, float(np.sum(w)))
    value = float(vsum / wsum)
    werr = float(esum / wsum)
    if n == 1:
        return _summary(value, werr)
    spread = np.subtract(v, value)
    np.square(spread, out=spread)
    if w is not None:
        spread *= w
    wsem = float(math.sqrt(np.sum(spread) * n / (wsum * (n - 1))) / math.sqrt(n))
    # max() keeps its first argument when the other is NaN: a NaN error
    # among the elements makes a NaN error, as in a sum
    return _summary(value, werr if math.isnan(werr) else max(wsem, werr))


@np.errstate(all="ignore")
def median(x) -> UncertainScalar:
    """Sample median; error is sqrt(pi/2) times the mean's error."""
    x = _nonempty(as_uncertain(x), "median")
    return _summary(float(np.median(x.values)), MEDIAN_FACTOR * mean(x).error)


def minimum(x) -> UncertainScalar:
    """Smallest value, carrying the extremal element's own error."""
    x = _nonempty(as_uncertain(x), "min")
    i = int(np.argmin(x.values))
    return x[i]


def maximum(x) -> UncertainScalar:
    """Largest value, carrying the extremal element's own error."""
    x = _nonempty(as_uncertain(x), "max")
    i = int(np.argmax(x.values))
    return x[i]


def value_range(x) -> UncertainScalar:
    """max - min by the sub rule: the extremal errors combined in quadrature."""
    return maximum(x) - minimum(x)
