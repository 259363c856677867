"""Exception types shared across the package.

ValidationError covers bad user input (CLI exit code 1); InconsistentLedger
signals an internally contradictory bound ledger (CLI exit code 2).  A
message that names an input value quotes it through ``quoted``.
"""

import json

#: Most bytes of an input value that an error message quotes, as ASCII JSON.
QUOTE_BYTES = 40


def cut(text: str, limit: int = QUOTE_BYTES) -> str:
    """``text``, or, when its ASCII JSON form (6 bytes for a non-ASCII
    character, 12 past U+FFFF) takes more than ``limit`` bytes, its longest
    prefix within ``limit`` bytes and its length: short whatever the input."""
    if len(json.dumps(text)) - 2 <= limit:  # 2: the quotes
        return text
    n = limit  # no character takes less than a byte
    while len(json.dumps(text[:n])) - 2 > limit:
        n -= 1
    return f"{text[:n]}... ({len(text)} characters)"


def quoted(value) -> str:
    """``cut(repr(value))``; a value whose repr raises, as an int past
    Python's int -> str digit cap does, is named by its type alone."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"
    return cut(text)


class RotnormError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RotnormError, ValueError):
    """Invalid input; maps to CLI exit code 1."""


class ClosureTooLarge(ValidationError):
    """Group closure exceeded the element cap."""


class NotAMember(ValidationError):
    """Element does not belong to the group."""


class NotSymmetric(ValidationError):
    """Generating set is not closed under inversion."""


class NotConjInvariant(ValidationError):
    """Generating set is not closed under conjugation."""


class IdentityGenerator(ValidationError):
    """The identity cannot generate a conjugation norm."""


class EmptySubset(ValidationError):
    """Quotient norm requires a non-empty subset."""


class TrivialGroup(ValidationError):
    """Operation undefined on the trivial group."""


class DimensionMismatch(ValidationError):
    """Vector/lattice/context dimensions disagree."""


class FullRank(ValidationError):
    """Operation requires a rank-deficient lattice."""


class RankDeficient(ValidationError):
    """Operation requires a full-rank lattice."""


class FrameMismatch(ValidationError):
    """Isotopy endpoints do not line up for concatenation."""


class AmbiguousLift(ValidationError):
    """Per-step frame displacement >= 1/2: continuous lift selection refused."""


class ZeroDenominator(ValidationError):
    """Lower-bound formula needs C + D > 0."""


class InconsistentLedger(RotnormError):
    """A lower bound exceeds an upper bound after closure; maps to exit code 2."""
