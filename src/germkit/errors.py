"""Exception types shared across the package."""

import sys


class GermkitError(Exception):
    pass


class RefinementExhausted(GermkitError):
    """An enclosure ran out of refinement levels before a question was decided.

    Raised both when a finite interval source has no deeper level and when a
    comparison consumes its refinement budget.  The latter usually means the
    budget is too small or the basis hides an undeclared rational relation.
    """


class FloorUndecidable(GermkitError):
    """floor() could not be pinned down within the refinement budget."""


class BasisMismatch(GermkitError):
    """Operands declared over different bases."""


class NotNegativeDefinite(GermkitError):
    """The intersection form has a pivot that is not negative."""


class ModelError(GermkitError):
    """A germ model or complement datum violates its invariants.

    Carries ``path``, a dotted/indexed location string pointing at the
    offending field of the source document when available.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path


class HypothesesUnmet(GermkitError):
    """A verifier was called on input outside its stated hypotheses."""


class DigitLimitExceeded(GermkitError):
    """An exact result has more digits than the interpreter prints."""

    def __init__(self):
        super().__init__(f"a result needs more than {sys.get_int_max_str_digits()} digits to print")


class LiteralTooLong(ValueError):
    """A rational literal could need more digits than the interpreter reads."""


class InvariantViolated(GermkitError):
    """An internal consistency check failed; this is a defect, not bad input."""
