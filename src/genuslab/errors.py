"""Exception types shared across the engine.

Scalar inversion of zero raises the builtin ZeroDivisionError; everything
else that can go wrong gets a named class here so callers (and the CLI exit
code logic) can tell input problems apart from engine bugs.
"""
from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class HomogeneityViolation(EngineError):
    """A polynomial or module element mixes degrees."""


class InfiniteLength(EngineError):
    """total_length was asked for a module of positive dimension."""


class NoStabilization(EngineError):
    """Hilbert-Samuel coefficient extraction ran out of table room."""


class CrossCheckFailure(EngineError):
    """Two independent computations of the same value disagree.

    This is an engine bug, never a property of the input.  It must abort the
    run loudly.
    """


class NotGeneralizedCM(EngineError):
    """A section invariant was requested but some low local cohomology
    module has infinite length."""


class PreconditionViolation(EngineError):
    """Documented precondition of an operation does not hold for the input."""


class EquivalenceViolation(EngineError):
    """The two sides of the main equality criterion disagree about holding.

    Either an engine bug or a genuine counterexample; both demand attention,
    so this aborts instead of being folded into a report field.
    """


class NotFoundWithinBudget(EngineError):
    """A randomized search exhausted its attempt budget.

    Not a proof that the object does not exist.  Carries the search
    transcript for the report.
    """

    def __init__(self, message: str, transcript: list | None = None):
        super().__init__(message)
        self.transcript = transcript or []


class GenerationFailure(EngineError):
    """Random instance generation could not satisfy its constraints."""


class ZeroModule(EngineError):
    """depth of the zero module was requested."""


class NonStandardGrading(EngineError):
    """No admissible degree-1 assignment exists for new variables."""


class IndexOutOfRange(EngineError):
    """Torsion index outside 1..s-1."""


class SingularMatrix(EngineError):
    """A square matrix over Z/p has no inverse."""


class DependentRows(EngineError):
    """Rows meant to be linearly independent over Z/p are not."""


class IncompleteBasis(EngineError):
    """Linearly independent rows could not be completed to an invertible
    matrix."""


class RaggedMatrix(EngineError):
    """The rows of a matrix have unequal lengths."""


class NotLinearForm(EngineError):
    """A linear form was required but the polynomial has another degree."""


class ParseError(EngineError):
    """Session text could not be parsed; carries source position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UndefinedName(ParseError):
    """A session command refers to a name that was never declared."""
