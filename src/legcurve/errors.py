"""Exceptions shared across the package, and the argument checks that raise them.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to distinct exit codes.  The checks below decide
what a valid argument is: an integer (an ``int``, not a ``bool``, of at
least some bound), a rational coefficient, an accuracy and a type (n, m).
Every module calls them where an argument enters, so each rule and its
message are written once.
"""

import math
from fractions import Fraction


class LegcurveError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LegcurveError, ValueError):
    """Malformed input: bad arguments, documents, or expressions."""


class InsufficientPrecisionError(LegcurveError):
    """A coefficient beyond the stored accuracy was requested."""


class NonGenericCurveError(LegcurveError):
    """The conormal semigroup differs from the generic one."""


class NotRealizableError(LegcurveError):
    """No function germ on the curve attains the requested order."""


class ContactDefectError(LegcurveError):
    """A constructed map failed the contact identity, or a construction
    failed an a-posteriori check."""


_INTEGER_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def _check_int(value, name: str, low: int | None = None) -> int:
    """``value``, if it is an ``int`` (not a ``bool``) of at least ``low``."""
    if type(value) is not int or (low is not None and value < low):
        kind = _INTEGER_KINDS.get(low) or f"an integer at least {low}"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return value


def _check_rational(value):
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise ValidationError(f"coefficient {value!r} is not rational")
    return value


def _check_accuracy(value):
    """``value``, if it is a non-negative ``int`` or ``math.inf``."""
    if value == math.inf:
        return math.inf
    if type(value) is int and value >= 0:
        return value
    raise ValidationError(f"accuracy must be a non-negative integer or infinity, got {value!r}")


def _check_type(n, m) -> None:
    """The one check of a type (n, m): n is an ``int`` at least 2, m an
    ``int`` greater than n and gcd(n, m) = 1."""
    _check_int(n, "multiplicity n", 2)
    if type(m) is not int or m <= n:
        raise ValidationError(f"m must be an integer greater than n = {n}, got {m!r}")
    if math.gcd(n, m) != 1:
        raise ValidationError(f"(n, m) = ({n}, {m}) must be coprime")
