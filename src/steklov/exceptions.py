"""Exception types shared across the package, and the input rules (`_check_*`)
that every module and the CLI validate through."""

import math


class SteklovError(Exception):
    """Base class for all package errors."""


class DomainError(SteklovError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NoCrossingError(SteklovError, ValueError):
    """The two requested branches never intersect on (0, inf)."""


class UnsupportedBranchError(SteklovError, ValueError):
    """The requested branch does not exist on the given surface."""


class ParameterError(SteklovError, ValueError):
    """Invalid family parameters (parity or ordering rules violated)."""


class ConstraintError(SteklovError, ValueError):
    """A metric variation violates the fixed-boundary-length constraint."""


def _check_modulus(T) -> float:
    """`T` as a float in (0, inf]; the T -> inf limit is allowed."""
    try:
        T = float(T)
    except OverflowError:  # an integer past the double range
        raise DomainError("conformal modulus exceeds the double range") from None
    if math.isnan(T) or T <= 0.0:
        raise DomainError(f"conformal modulus must be positive, got {T}")
    return T


def _check_positive(x, name: str) -> float:
    """`x` as a float that is positive and finite; anything else raises DomainError."""
    try:
        value = float(x)
    except OverflowError:  # an integer past the double range
        raise DomainError(f"{name} exceeds the double range") from None
    if not (value > 0.0 and math.isfinite(value)):  # NaN fails the first test
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def _check_integer(value, name: str, error: type[Exception] = DomainError) -> int:
    """`value` as an int; fractions, infinities and NaN raise `error`."""
    try:
        index = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        raise error(f"{name} must be an integer, got {value}") from None
    if index != value:
        raise error(f"{name} must be an integer, got {value}")
    return index


def _check_index(value, name: str = "mode index") -> int:
    """`value` as an int >= 1, by the integer rule of `_check_integer`."""
    index = _check_integer(value, name)
    if index < 1:
        raise DomainError(f"{name} must be >= 1, got {index}")
    return index
