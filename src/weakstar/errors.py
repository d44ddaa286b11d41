"""Exception hierarchy shared by all weakstar modules.

Two broad classes matter to callers (and to the CLI exit-code scheme):
``ParseError`` for malformed input documents, and ``PreconditionError`` for
structurally valid input that violates an operation's stated requirements.
A third, ``CertificateError``, reports a result that failed its own exact
re-check; it is a fault of the library and has no exit code of its own.
"""

from __future__ import annotations

__all__ = [
    "WeakstarError",
    "CertificateError",
    "ParseError",
    "PreconditionError",
    "BadParameter",
    "UnboundedInput",
    "NotInNormalizingSet",
    "NotAVertex",
    "NotNested",
    "TargetOutsidePolar",
    "VariantPreconditionViolated",
]


class WeakstarError(Exception):
    """Base class for all errors raised by this package."""


class CertificateError(WeakstarError):
    """An exact self-check rejected a result the library computed.

    This signals a fault in the library, not bad input, so the command line
    does not turn it into an exit code.  The checks raise it explicitly and
    therefore still run under ``python -O``.
    """


class ParseError(WeakstarError):
    """A document or literal could not be parsed."""


class PreconditionError(WeakstarError):
    """An operation was invoked on input that violates its preconditions."""


class BadParameter(PreconditionError):
    """A scalar parameter is outside its allowed range."""


class UnboundedInput(PreconditionError):
    """An operation that requires bounded sets received recession rays."""


class NotInNormalizingSet(PreconditionError):
    """A point or set lies outside the normalizing set of a metric config."""


class NotAVertex(PreconditionError):
    """The queried point is not an extreme point of the given polyhedron."""


class NotNested(PreconditionError):
    """A sequence of sets expected to be increasing fails containment."""


class TargetOutsidePolar(PreconditionError):
    """A construction target has vertices outside the prescribed polar ball."""


class VariantPreconditionViolated(PreconditionError):
    """The target does not satisfy the chosen construction variant's entry conditions."""
