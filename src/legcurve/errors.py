"""Exceptions shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them to distinct exit codes.
"""


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
