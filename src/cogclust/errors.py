"""Exception types shared across the package, and the rules for numeric settings.

Every error is a ``ParseError`` (a source file could not be read as its
format) or a ``ValidationError`` (the content or a setting breaks a rule).
The command line exits 2 on the first and 3 on the second.
"""

import math
import operator


class CogclustError(Exception):
    """Base class for all cogclust errors.

    ``line`` is the 1-based source line the error refers to, if any; it is
    prefixed to the message.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(CogclustError):
    """A source file could not be parsed."""


class ValidationError(CogclustError):
    """Input data or configuration violates a documented constraint."""


class MeaningNotFoundError(ValidationError, KeyError):
    """Lookup of a meaning identifier that is not in the word list (also a ``KeyError``)."""

    def __str__(self) -> str:
        return self.args[0]


class DegenerateInputError(ValidationError):
    """Input carries no usable content (no words, or no aligned segments)."""


def checked_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` of at least ``minimum``, or a ``ValidationError``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer") from None
    if value < minimum:
        raise ValidationError(f"{name} must be at least {minimum}")
    return value


def as_number(value) -> float:
    """``value`` as a ``float``, or NaN if not a number: a check that NaN fails rejects it too."""
    # A str has no __float__, though float() would parse one; an array with
    # more than one element has one, but float() raises TypeError on it.
    if not hasattr(type(value), "__float__"):
        return math.nan
    try:
        return float(value)
    except TypeError:
        return math.nan


def checked_number(name: str, value) -> float:
    """``value`` as a ``float`` that is not NaN, or a ``ValidationError``."""
    number = as_number(value)
    if math.isnan(number):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return number
