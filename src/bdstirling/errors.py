"""Exception types raised across the package.

Everything is a ValueError unless noted, so callers who only care about
"bad input" can catch broadly while tests pin the precise failure.
"""
from __future__ import annotations

__all__ = [
    "SizeOverflow",
    "FlavorMismatch",
    "MalformedDocument",
    "NotAPermutation",
    "OddNegativeCount",
    "NotAPartition",
    "MirrorViolation",
    "SingletonZeroBlock",
    "RepeatedValueInBlock",
    "SpotCollision",
    "TooManySeparators",
    "InvalidOrderedPartition",
    "NotTypeD",
    "UnreachableForm",
    "BadIndex",
    "UnknownKind",
    "DimensionMismatch",
    "InvariantViolation",
    "UnknownSequence",
    "MalformedBFile",
    "MalformedTemplate",
]


class SizeOverflow(RuntimeError):
    """An enumeration would exceed the configured size cap."""


class FlavorMismatch(TypeError):
    """A statistic or procedure got the wrong species of element."""


class MalformedDocument(TypeError):
    """A plain document lacks a key or holds a value of the wrong type."""


class NotAPermutation(ValueError):
    """A window or entry list is not a permutation, or its text does not parse."""


class OddNegativeCount(ValueError):
    """A signed permutation with an odd number of negatives posed as even-signed."""


class NotAPartition(ValueError):
    """Blocks overlap, miss ground-set elements, or are empty."""


class MirrorViolation(ValueError):
    """Block family is not closed under negation in the required pattern."""


class SingletonZeroBlock(ValueError):
    """Zero support of size exactly 1 where the even-signed kind forbids it."""


class RepeatedValueInBlock(ValueError):
    """A block uses the same spot twice (both signs, or two colors)."""


class SpotCollision(ValueError):
    """An artificial separator landed on a gap already holding a descent."""


class TooManySeparators(ValueError):
    """A separator was placed outside the gaps 0..n-1."""


class InvalidOrderedPartition(ValueError):
    """Block sequence is not an ordered mirror partition of the right shape."""


class NotTypeD(InvalidOrderedPartition):
    """Ordered partition claims the even-signed kind but has zero support of size 1."""


class UnreachableForm(ValueError):
    """Ordered partition outside the image of the even-signed block procedure.

    Carries the offending document on the witness attribute.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BadIndex(ValueError):
    """Index outside the meaningful range of a table, row, or basis."""


class UnknownKind(ValueError):
    """A kind name the called function does not handle."""


class DimensionMismatch(ValueError):
    """Operands built for different n, m, or kind were combined."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


class UnknownSequence(ValueError):
    """An OEIS sequence the package has no triangle or fixture for."""


class MalformedBFile(ValueError):
    """A b-file line that is not an index and a value, both integers."""


class MalformedTemplate(TypeError):
    """A b-file URL template that str.format cannot fill from {seq} and {num}."""
