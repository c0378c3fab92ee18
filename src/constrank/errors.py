"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "ConstrankError",
    "NonPrimeCharacteristic",
    "ReducibleModulus",
    "OrderTooLarge",
    "DivisionByZero",
    "DimensionMismatch",
    "ShapeViolation",
    "ShapeMismatch",
    "EmptyInput",
    "ZeroSpan",
    "ZeroVector",
    "BudgetExceeded",
    "NotConstantRank",
    "InternalVerificationFailed",
    "ParseError",
    "UsageError",
]


class ConstrankError(Exception):
    """Base class for every error raised by this package."""


class NonPrimeCharacteristic(ConstrankError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(ConstrankError):
    """Supplied modulus polynomial is reducible (or malformed)."""


class OrderTooLarge(ConstrankError):
    """Requested field or extension order exceeds the supported cap."""


class DivisionByZero(ConstrankError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(ConstrankError):
    """Vectors of different lengths or fields were combined."""


class ShapeViolation(ConstrankError):
    """A matrix shape does not satisfy an operation's requirements."""


class ShapeMismatch(ConstrankError):
    """Matrices of mixed shapes or fields appeared in one collection."""


class EmptyInput(ConstrankError):
    """An operation requiring at least one matrix received none."""


class ZeroSpan(ConstrankError):
    """Every spanning matrix is zero; a subspace must be non-zero."""


class ZeroVector(ConstrankError):
    """A non-zero vector is required."""


class BudgetExceeded(ConstrankError):
    """An enumeration or node budget ran out before completion."""


class NotConstantRank(ConstrankError):
    """A checker that requires a constant-rank subspace got something else."""


class InternalVerificationFailed(ConstrankError):
    """A construction-time self-check failed; this indicates a library bug."""


class UsageError(ConstrankError, ValueError):
    """An argument is outside the range an operation accepts."""


class ParseError(ConstrankError):
    """Text-format parse failure with a 1-based line/column location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.bare_message = message
        self.line = line
        self.col = col
