"""Shared exception types for geometric precondition failures."""


class PreconditionError(ValueError):
    """A geometric precondition of an operation fails (CLI exit code 2)."""


class DegenerateFrame(PreconditionError):
    """Frame fields are linearly dependent at the query point."""


class NotBracketGenerating(PreconditionError):
    """Bracket words do not span the tangent space within the depth bound."""


class NonEquiregular(PreconditionError):
    """Growth vectors disagree across nearby sample points."""


class SamplingFailure(PreconditionError):
    """Random sampling exhausted its retry budget (poles / degeneracies)."""


class InvariantViolation(PreconditionError):
    """A computed geometric invariant breaks a bound that theory guarantees."""
