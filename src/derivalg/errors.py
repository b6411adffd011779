"""Exception types shared across the library."""

from __future__ import annotations


class DerivalgError(Exception):
    """Base class for every error raised by this library."""


class PreconditionError(DerivalgError):
    """A mathematical precondition of an operation is not met.

    CLI exit code 2 is reserved for this family.
    """


class FieldMismatchError(PreconditionError):
    """Operands belong to different coefficient fields."""


class ContextMismatchError(PreconditionError):
    """Operands belong to different variable contexts or rings."""


class ZeroPolynomialError(PreconditionError):
    """A nonzero polynomial was required."""


class InexactDivisionError(DerivalgError):
    """Polynomial division left a nonzero remainder where none was allowed."""


class InvalidArgumentError(PreconditionError, ValueError):
    """An argument value is refused, as a modulus that is not a prime."""


class VanishingDenominatorError(PreconditionError, ZeroDivisionError):
    """A denominator is zero in the coefficient field."""


class UnitIdealError(PreconditionError):
    """The ideal is the whole ring where a proper ideal was required."""


class NotInvariantError(PreconditionError):
    """A derivation does not map the defining ideal into itself."""

    def __init__(self, message: str, generator=None, image=None):
        super().__init__(message)
        self.generator = generator
        self.image = image


class NonCommutingDerivationsError(PreconditionError):
    """A pair of derivations that must commute does not."""

    def __init__(self, message: str, first=None, second=None,
                 generator: str | None = None, witness=None):
        super().__init__(message)
        self.first = first
        self.second = second
        self.generator = generator
        self.witness = witness


class BudgetExceededError(DerivalgError):
    """A step budget ran out before the computation finished."""


class ParseError(DerivalgError):
    """Syntax or name-resolution error in the expression language."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line:
            return f"line {self.line}, col {self.col}: {base}"
        return base


class UnknownIdentifierError(ParseError):
    """An identifier does not resolve to any binding or generator."""
