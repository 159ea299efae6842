"""Exception types shared across the package, and the finiteness check configs share."""

import math


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or invariant."""


class NumericError(RuntimeError):
    """A numeric routine produced or encountered a non-finite value."""


class PackingError(RuntimeError):
    """Synthetic instance placement could not be completed."""


def require_finite(**values: float) -> None:
    """Raise InvalidInputError naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
