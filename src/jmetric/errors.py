"""Exception types shared across the library, and its one integer-argument check."""

import math
import numbers


class JmetricError(Exception):
    """Base class for every error raised by this package."""


class PointOutsideDomain(JmetricError):
    """A point lies on or outside the boundary of the open domain it was used with."""


class PoleEncountered(JmetricError):
    """A map was evaluated at, or numerically too close to, one of its poles."""


class UnsupportedImage(JmetricError):
    """A Moebius image domain is numerically ambiguous or not a generalized disk."""


class DomainError(JmetricError):
    """A scalar argument violates its documented range."""


def check_integer(name: str, value, lo: int, hi: float = math.inf) -> None:
    """Raise DomainError unless value is an integer (a bool is not one) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


class CoincidentPoints(JmetricError):
    """An operation requiring two distinct points received equal ones."""


class SelfMapViolation(JmetricError):
    """A map required to be a self-map of its domain failed certification sampling."""


class ParseError(JmetricError):
    """Malformed text input; carries the offending position and the expected tokens."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)
