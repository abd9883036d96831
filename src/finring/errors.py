"""Exception hierarchy shared by all finring modules."""

from __future__ import annotations


class FinringError(Exception):
    """Base class for every error raised by this package."""


class AxiomViolation(FinringError):
    """A Cayley-table pair fails one of the ring axioms.

    Carries the name of the violated axiom and a witness tuple of element
    indices so callers can see exactly where validation failed.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        message = f"{axiom} fails at {witness}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class NotPrime(FinringError):
    """A family constructor was given a modulus that is not prime."""


class OrderCapExceeded(FinringError):
    """A requested construction or search is over the configured order cap."""


class NotAnIdeal(FinringError):
    """A member set is not a two-sided ideal of the given ring."""


class NoIdentity(FinringError):
    """An operation that needs a two-sided identity was given a ring without one."""


class GraphCapExceeded(FinringError):
    """A graph is larger than the configured canonicalization cap."""


class ParseError(FinringError):
    """Bad polynomial or file syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.message, self.position = message, position
        super().__init__(f"{message} (at position {position})")


class UnboundVariable(FinringError):
    """A polynomial variable has no binding in a substitution or evaluation."""


class ZeroPolynomial(FinringError):
    """The zero polynomial was passed where a nonzero one is required."""


class BudgetExceeded(FinringError):
    """An exhaustive scan would need more evaluations than the budget allows."""


class FormatError(FinringError):
    """A serialized artifact (ringtab, atlas, DOT, suite) is malformed."""
