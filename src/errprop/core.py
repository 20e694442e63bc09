"""Uncertain-value data model: vectors of quantity values with standard uncertainties.

Values and uncertainties travel in lockstep through every structural
operation.  All functions are pure; vectors are immutable after
construction.  The modules that own a behaviour install it on these
classes: propagation the operators, formatting str() of a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import (DimensionMismatch, IndexOutOfBounds, LengthMismatch,
                         NegativeError)

__all__ = [
    "UncertainVector",
    "UncertainScalar",
    "make_uncertain",
    "get_errors",
    "errors_min",
    "errors_max",
    "subset",
    "concat",
]


def _frozen(a) -> np.ndarray:
    # a read-only view: a caller's own float64 array stays writable, and
    # shares its memory with the vector
    a = np.atleast_1d(np.asarray(a, dtype=float)).view()
    if a.ndim != 1:
        raise DimensionMismatch(f"values and errors must be 1-d, not of shape {a.shape}")
    a.setflags(write=False)
    return a


def _illegal(value, error, where: str = "") -> NegativeError:
    """The one rule for a measurement: an uncertainty is never negative;
    +Inf and NaN are uncertainties, on any value."""
    return NegativeError(f"uncertainty {error} on value {value}{where}: an uncertainty "
                         "must not be negative")


class UncertainVector:
    """Parallel sequences of values and nonnegative standard uncertainties.

    The constructors of both classes refuse a negative uncertainty
    (`_illegal`); an infinite or NaN one is legal on any value.  Data
    already inside the program (results, slices, elements) is built by
    `_unchecked` and never checked again.  The arithmetic operators are
    installed by `propagation`, from its table `_OPERATORS`.
    """

    __slots__ = ("values", "errors")

    def __init__(self, values, errors):
        values, errors = _frozen(values), _frozen(errors)
        if len(values) != len(errors):
            raise LengthMismatch(f"{len(values)} values but {len(errors)} errors")
        bad = errors < 0  # NaN compares false
        if bad.any():
            i = int(np.argmax(bad))
            raise _illegal(values[i], errors[i], f" at index {i}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)

    @classmethod
    def _unchecked(cls, values: np.ndarray, errors: np.ndarray) -> UncertainVector:
        # every caller passes 1-d float64 arrays that no one else writes to
        # (fresh results, or views of frozen arrays), so they are frozen in
        # place, with no view (setflags' first parameter is write; given by
        # position it costs a third as much as by keyword)
        values.setflags(False)
        errors.setflags(False)
        x = object.__new__(cls)
        object.__setattr__(x, "values", values)
        object.__setattr__(x, "errors", errors)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("UncertainVector is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        for v, e in zip(self.values, self.errors):
            yield UncertainScalar._unchecked(float(v), float(e))

    def __getitem__(self, i):
        # a bool is an int, but indexes as numpy's one-element mask np.True_
        if isinstance(i, (int, np.integer)) and not isinstance(i, bool):
            n = len(self)
            if not -n <= i < n:
                raise IndexOutOfBounds(f"index {i} out of bounds for length {n}")
            return UncertainScalar._unchecked(float(self.values[i]), float(self.errors[i]))
        return subset(self, i)

    def __repr__(self) -> str:
        return f"UncertainVector({self.values.tolist()}, {self.errors.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertainVector):
            return NotImplemented
        return bool(
            np.array_equal(self.values, other.values, equal_nan=True)
            and np.array_equal(self.errors, other.errors, equal_nan=True)
        )


@dataclass(frozen=True)
class UncertainScalar:
    """A single quantity value with its standard uncertainty.

    Its operators (from `propagation`) are the vector ones applied to the
    length-1 vector; str() (from `formatting`) is the default notation.
    """

    value: float
    error: float

    def __post_init__(self):
        if self.error < 0:
            raise _illegal(self.value, self.error)

    @classmethod
    def _unchecked(cls, value: float, error: float) -> UncertainScalar:
        s = object.__new__(cls)  # no __init__, so no __post_init__ check
        s.__dict__.update(value=value, error=error)
        return s

    def as_vector(self) -> UncertainVector:
        pair = np.array((self.value, self.error), float)
        return UncertainVector._unchecked(pair[:1], pair[1:])

    def __format__(self, spec: str) -> str:
        if spec:
            return format(self.value, spec)
        return str(self)


def as_uncertain(x) -> UncertainVector:
    """Coerce plain numbers/sequences to an exact (error 0) UncertainVector."""
    if isinstance(x, UncertainVector):
        return x
    if isinstance(x, UncertainScalar):
        return x.as_vector()
    if isinstance(x, (float, int)):
        return UncertainVector._unchecked(np.array((x,), float), np.zeros(1))
    values = _frozen(x)  # a view: the caller's own array stays writable
    return UncertainVector._unchecked(values, np.zeros_like(values))


def make_uncertain(values: Sequence[float], errors) -> UncertainVector:
    """Build an UncertainVector; a single error value is broadcast to all elements.

    Raises NegativeError for a negative uncertainty, LengthMismatch
    when 1 < len(errors) != len(values), and DimensionMismatch for input
    that is not 1-d.  Broadcasting is scalar-to-vector only.
    """
    values, errors = _frozen(values), _frozen(errors)
    if len(errors) == 1 and len(values) != 1:
        errors = np.repeat(errors, len(values))
    return UncertainVector(values, errors)


def get_errors(x: UncertainVector) -> np.ndarray:
    """Return the standard-uncertainty sequence of `x`."""
    return x.errors


def errors_min(x: UncertainVector) -> np.ndarray:
    """Lower interval bound: values - errors, elementwise (-inf past the
    float range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x.values - x.errors


def errors_max(x: UncertainVector) -> np.ndarray:
    """Upper interval bound: values + errors, elementwise (inf past the
    float range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x.values + x.errors


def subset(x: UncertainVector, indices) -> UncertainVector:
    """Select elements by index or slice, keeping value/error pairing."""
    if isinstance(indices, slice):
        return UncertainVector._unchecked(x.values[indices], x.errors[indices])
    idx = np.atleast_1d(np.asarray(indices))
    if idx.ndim != 1:
        raise IndexOutOfBounds(f"indices must be 1-d, not of shape {idx.shape}")
    if idx.dtype == bool:
        if len(idx) != len(x):
            raise IndexOutOfBounds("boolean mask length mismatch")
    elif idx.dtype.kind not in "iu" and len(idx):  # [] is float64
        raise IndexOutOfBounds(f"indices must be integers or booleans, not {idx.dtype}")
    else:
        idx = idx.astype(int)
        n = len(x)
        if ((idx >= n) | (idx < -n)).any():
            raise IndexOutOfBounds(f"index out of bounds for length {n}")
    return UncertainVector._unchecked(x.values[idx], x.errors[idx])


def concat(xs: Iterable[UncertainVector]) -> UncertainVector:
    """Join vectors end to end."""
    xs = [as_uncertain(x) for x in xs]
    if not xs:
        return UncertainVector._unchecked(np.empty(0), np.empty(0))
    return UncertainVector._unchecked(np.concatenate([x.values for x in xs]),
                                      np.concatenate([x.errors for x in xs]))
