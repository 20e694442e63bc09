"""Exception types raised across the package."""


class ErrpropError(Exception):
    """Base class for all errprop errors."""


class NegativeError(ErrpropError, ValueError):
    """A supplied standard uncertainty is negative, infinite, or NaN on a
    value that is not NaN."""


class LengthMismatch(ErrpropError, ValueError):
    """Operand lengths are incompatible (and not broadcastable)."""


class IndexOutOfBounds(ErrpropError, IndexError):
    """Subsetting index outside the vector bounds."""


class UnknownFunction(ErrpropError, ValueError):
    """Function identifier outside the supported rule set."""


class DimensionMismatch(ErrpropError, ValueError):
    """Matrix dimensions do not conform."""


class NotSymmetric(ErrpropError, ValueError):
    """Covariance matrix is not symmetric within tolerance."""


class TooShort(ErrpropError, ValueError):
    """Input vector has too few elements for the operation."""


class EmptyInput(ErrpropError, ValueError):
    """Summary statistic requested on an empty vector."""


class ZeroWeightSum(ErrpropError, ValueError):
    """Weighted mean with weights summing to zero."""


class LexError(ErrpropError, ValueError):
    """Unrecognized character while tokenizing an expression."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(ErrpropError, ValueError):
    """Malformed expression or measurement string."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnboundVariable(ErrpropError, KeyError):
    """Expression references a variable missing from the environment."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self):
        return f"unbound variable: {self.name}"


class NonFiniteSamples(ErrpropError, ArithmeticError):
    """Too many Monte Carlo evaluations were non-finite."""
