"""Shared exception and warning types."""

from __future__ import annotations


class BeattySieveError(Exception):
    """Base class for library errors."""


class InvalidSpec(BeattySieveError):
    """A real-number or problem description violates its structural invariants."""


class PrecisionExhausted(BeattySieveError):
    """A certified decision could not be reached within the precision ceiling.

    Attributes identify the offending evaluation site so callers can report
    which alpha/term/argument needs a better representation.
    """

    def __init__(self, message: str, *, spec=None, term=None,
                 n=None, bits=None):
        super().__init__(message)
        self.spec = spec
        self.term = term
        self.n = n
        self.bits = bits


class InsufficientData(BeattySieveError):
    """Too few convergents (or samples) to produce the requested estimate."""


class NoConvergent(BeattySieveError):
    """No continued-fraction convergent exists in the requested range."""


class ResourceLimit(BeattySieveError):
    """A configured memory or enumeration budget would be exceeded."""


class ConfigError(BeattySieveError):
    """A run configuration is malformed or violates a command precondition."""


class RationalTerminated(UserWarning):
    """Informational: a continued-fraction expansion ended because the input is rational."""


class DegenerateFit(UserWarning):
    """Informational: zero-error grid points were dropped before exponent fitting."""
