"""Exception types shared across the package, and the input rules every
positive quantity, bandwidth, real number, integer and count is checked by."""

import math
import numbers


class SpotcovError(Exception):
    """Base class for all package errors."""


class InvalidArgument(SpotcovError, ValueError):
    """A caller-supplied value violates a precondition."""


class InvalidState(SpotcovError, RuntimeError):
    """A computation reached a state it cannot proceed from (e.g. a
    degenerate design matrix or a zero variance denominator)."""


class CsvFormatError(InvalidArgument):
    """A CSV file failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def check_positive(value, name: str):
    """value itself, if 0 < value < inf; NaN fails both comparisons."""
    if not 0 < value < math.inf:
        raise InvalidArgument(f"{name} must be positive and finite, got {value}")
    return value


def check_bandwidth(h, name: str = "bandwidth"):
    """h itself, if it passes check_positive and 1/h is finite: a subnormal h
    (below 1/DBL_MAX, about 5.6e-309) would overflow K(z/h)/h."""
    check_positive(h, name)
    if 1.0 / float(h) == math.inf:
        raise InvalidArgument(f"{name} must have a finite reciprocal, got {h}")
    return h


def is_real(value) -> bool:
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """True for an integral number that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 1) -> int:
    """value as an int, if it is an integer (not a bool) of at least minimum."""
    if not is_integer(value) or value < minimum:
        raise InvalidArgument(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)
