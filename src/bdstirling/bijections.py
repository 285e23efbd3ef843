"""Block procedures linking signed permutations to ordered mirror partitions.

A separator placement on a window of length n picks gaps from 0..n-1,
gap g sitting just before position g + 1.  Descents occupy their gaps for
free; artificial separators may take any remaining gap.  Cutting the
window at the occupied gaps yields segments: the unseparated leading
segment (possibly empty) becomes the zero block, every later segment C
becomes the adjacent block pair (C, -C).  The gap after the last position
is never stored; the final segment simply ends the window.  The cut gives
the zero support and the blocks C, and the mirrors are built from them.

The even-signed variant adds one twist before cutting: when gap 1 is
occupied and gap 0 is free, the first entry flips sign and that separator
slides to gap 0.  The inverse then splits on whether a zero block exists
and on the parity of negatives across the class blocks; ordered partitions
with no zero block, an odd number of class negatives, and a singleton
first block have no preimage at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from math import factorial
from operator import eq, index, neg

from .errors import (
    FlavorMismatch,
    InvalidOrderedPartition,
    InvariantViolation,
    MalformedDocument,
    NotAPartition,
    NotTypeD,
    OddNegativeCount,
    RepeatedValueInBlock,
    SpotCollision,
    TooManySeparators,
    UnknownKind,
    UnreachableForm,
)
from .groups import _INT, SignedPermutation, descent_set
from .partitions import _FROZENSET, _NO_SPOTS, stirling

__all__ = [
    "OrderedPartition",
    "b_procedure",
    "b_procedure_inverse",
    "d_procedure",
    "d_procedure_inverse",
    "free_gaps",
    "d_unreachable",
    "d_unreachable_count",
]


def _mirror(block: frozenset[int]) -> frozenset[int]:
    return frozenset(map(neg, block))


def _blocks_of(support, classes) -> tuple[frozenset[int], ...]:
    """The zero block, if any, then each class block and its mirror."""
    blocks = [frozenset((*support, *map(neg, support)))] if support else []
    for c in classes:
        blocks += (c, frozenset(map(neg, c)))
    return tuple(blocks)


@dataclass(frozen=True, init=False, match_args=False)
class OrderedPartition:
    """Ordered mirror partition: optional zero block first, then block pairs.

    The zero block is the full +-support set without the 0 marker; it is
    its own mirror.  Pair blocks appear adjacently as (C, -C) in procedure
    order.  Kind, n, the zero support and the class blocks (each pair's C)
    serve equality and hashing; the blocks are kept beside them for repr
    and documents.  The constructor accepts valid blocks in one pass of
    whole-collection checks; only blocks that pass refuses go through the
    ordered checks of _diagnosed_blocks, which name the first fault.
    """

    kind: str
    n: int
    zero_support: frozenset[int] = field(repr=False)
    class_blocks: tuple[frozenset[int], ...] = field(repr=False)
    blocks: tuple[frozenset[int], ...] = field(compare=False)

    def __init__(self, kind: str, n: int, blocks: tuple[frozenset[int], ...]):
        # 2n disjoint exact ints, none 0, all within +-n, are +-1..+-n, so
        # once the blocks pair up as mirrors the spots tile 1..n.
        if (
            kind in ("B", "D")
            and type(n) is int
            and type(blocks) is tuple
            and _FROZENSET.issuperset(map(type, blocks))
            and all(blocks)
        ):
            union = _NO_SPOTS.union(*blocks)
            if (
                sum(map(len, blocks)) == len(union) == 2 * n > 0
                and _INT.issuperset(map(type, union))
                and 0 not in union
                and -n <= min(union)
                and max(union) <= n
            ):
                lead = blocks[0]
                support = _NO_SPOTS
                pairs = blocks
                if lead == _mirror(lead):
                    support = frozenset(filter((0).__lt__, lead))
                    pairs = blocks[1:]
                if (
                    not len(pairs) % 2
                    and all(map(eq, pairs[1::2], map(_mirror, pairs[::2])))
                    and (kind == "B" or len(support) != 1)
                ):
                    vars(self).update(kind=kind, n=n, zero_support=support,
                                      class_blocks=pairs[::2], blocks=blocks)
                    return
        n, blocks, support = _diagnosed_blocks(kind, n, blocks)
        vars(self).update(kind=kind, n=n, zero_support=support,
                          class_blocks=blocks[1 if support else 0 :: 2], blocks=blocks)

    @property
    def r(self) -> int:
        return len(self.class_blocks)

    def to_doc(self) -> dict:
        return {"kind": self.kind, "n": self.n, "blocks": [sorted(b) for b in self.blocks]}

    @classmethod
    def from_doc(cls, doc) -> "OrderedPartition":
        """Build from a plain dict, raising MalformedDocument (a TypeError)
        on shape problems."""
        if not isinstance(doc, dict):
            raise MalformedDocument("document must be an object")
        for key in ("kind", "n", "blocks"):
            if key not in doc:
                raise MalformedDocument(f"document misses key {key!r}")
        kind, n, blocks = doc["kind"], doc["n"], doc["blocks"]
        if not isinstance(kind, str):
            raise MalformedDocument("kind must be a string")
        if type(n) is not int:
            raise MalformedDocument("n must be an integer")
        if not (
            isinstance(blocks, list)
            and all(map(isinstance, blocks, repeat(list)))
            and _INT.issuperset(map(type, chain.from_iterable(blocks)))
        ):
            raise MalformedDocument("blocks must be lists of integers")
        return cls(kind, n, tuple(map(frozenset, blocks)))


def _diagnosed_blocks(
    kind: str, n, blocks
) -> tuple[int, tuple[frozenset[int], ...], frozenset[int]]:
    """Validate one rule at a time and raise on the first fault.

    Returns n as an int, the blocks as frozensets of ints and the zero
    support.
    """
    if kind not in ("B", "D"):
        raise UnknownKind(f"unknown ordered partition kind {kind!r}")
    n = index(n)
    blocks = tuple(frozenset(map(index, b)) for b in blocks)
    for b in blocks:
        if not b:
            raise NotAPartition("empty block")
        if 0 in b or min(b) < -n or max(b) > n:
            raise NotAPartition(f"block {sorted(b)} outside +-1..+-{n}")
    support: frozenset[int] = frozenset()
    pairs = blocks
    if blocks and blocks[0] == _mirror(blocks[0]):
        support = frozenset(v for v in blocks[0] if v > 0)
        pairs = blocks[1:]
    if len(pairs) % 2:
        raise InvalidOrderedPartition("dangling block without its mirror")
    spots = set(support)
    count = len(support)
    for c, mirror in zip(pairs[::2], pairs[1::2]):
        absolute = set(map(abs, c))
        if len(absolute) != len(c):
            raise RepeatedValueInBlock(
                f"block {sorted(c)} repeats an absolute value"
            )
        if mirror != _mirror(c):
            raise InvalidOrderedPartition(
                f"block {sorted(mirror)} is not the mirror of {sorted(c)}"
            )
        spots |= absolute
        count += len(c)
    # Spots lie in 1..n, so n distinct ones tile it; n < 0 never tiles.
    if not count == len(spots) == n:
        covered = sorted([*support, *(abs(v) for c in pairs[::2] for v in c)])
        raise NotAPartition(f"spots covered {covered} do not tile 1..{n}")
    if kind == "D" and len(support) == 1:
        raise NotTypeD(f"zero support {sorted(support)} has size 1")
    return n, blocks, support


def free_gaps(element: SignedPermutation, flavor: str) -> frozenset[int]:
    """Gaps 0..n-1 not occupied by a descent of the given flavor."""
    return frozenset(range(element.n)) - descent_set(element, flavor)


_Cut = tuple[frozenset[int], tuple[frozenset[int], ...]]


def _cut(window: tuple[int, ...], separators: frozenset[int]) -> _Cut:
    """The zero support and the class blocks of the window cut at the gaps.

    One pass over the window: an occupied gap opens a new segment, any
    other position extends the current one, and the leading segment gives
    the zero support.  A separator at or past the end of the window is
    never reached; each one adds an empty class, as a slice there would.
    """
    segment = zero = []
    classes = []
    gap = 0
    for value in window:
        if gap in separators:
            segment = [value]
            classes.append(segment)
        else:
            segment.append(value)
        gap += 1
    # a tuple display is built at its exact size; tuple(map(...)) would grow
    # and shrink a new tuple per cut, and those pile up on the free lists
    classes = (*map(frozenset, classes),)
    if len(classes) < len(separators):
        classes += (_NO_SPOTS,) * (len(separators) - len(classes))
    return frozenset(map(abs, zero)), classes


def _slid_cut(window: tuple[int, ...], separators: frozenset[int]) -> _Cut:
    """Even-signed cut: an occupied gap 1 with gap 0 free slides to gap 0,
    flipping the first entry."""
    if 1 in separators and 0 not in separators:
        window = (-window[0],) + window[1:]
        separators = separators.symmetric_difference((0, 1))
    return _cut(window, separators)


def b_procedure(beta: SignedPermutation, artificial=()) -> OrderedPartition:
    """Cut the window at descents plus artificial separators into blocks."""
    return _procedure("B", beta, artificial)


def d_procedure(gamma: SignedPermutation, artificial=()) -> OrderedPartition:
    """Even-signed block procedure, with the gap 1 to gap 0 slide."""
    return _procedure("D", gamma, artificial)


def _procedure(kind: str, element: SignedPermutation, artificial) -> OrderedPartition:
    """Cut the window at its descents plus the artificial separators.

    Artificial gaps are checked one at a time; the first bad one is named.
    The cut is accepted when its n > 0 spots are distinct, none below 1 and
    none above n, so they tile 1..n and no class repeats one; other cuts go
    to the constructor with their blocks, which raises, or for n = 0 accepts.
    """
    if not isinstance(element, SignedPermutation):
        raise FlavorMismatch("the block procedure needs a SignedPermutation")
    window = element.window
    n = len(window)
    separators = descent_set(element, kind)
    artificial = set(map(index, artificial))
    for g in artificial:
        if not 0 <= g < n:
            raise TooManySeparators(f"separator at gap {g} but gaps run 0..{n - 1}")
        if g in separators:
            raise SpotCollision(f"gap {g} already holds a descent")
    separators = separators.union(artificial)
    support, classes = (_cut if kind == "B" else _slid_cut)(window, separators)
    blocks = _blocks_of(support, classes)
    spots = support.union(map(abs, chain.from_iterable(classes)))
    if (
        all(classes)
        and len(support) + sum(map(len, classes)) == len(spots) == n > 0
        and 0 < min(spots)
        and max(spots) <= n
        and (kind == "B" or len(support) != 1)
    ):
        op = object.__new__(OrderedPartition)
        vars(op).update(kind=kind, n=n, zero_support=support, class_blocks=classes,
                        blocks=blocks)
        return op
    return OrderedPartition(kind, n, blocks)


def _expect_kind(op: OrderedPartition, kind: str) -> None:
    if op.kind != kind:
        raise FlavorMismatch(f"expected an ordered partition of kind {kind}, got {op.kind!r}")


def b_procedure_inverse(op: OrderedPartition) -> tuple[SignedPermutation, frozenset[int]]:
    """The unique (window, artificial separators) preimage of op."""
    _expect_kind(op, "B")
    return _inverse(op, False)


def d_unreachable(op: OrderedPartition) -> bool:
    """True when op lies outside the image of the even-signed procedure.

    That happens exactly for: no zero block, a singleton first class
    block, and an odd number of negatives across the class blocks.
    """
    _expect_kind(op, "D")
    return _lone_lead(op) and _odd_class_negatives(op)


def _lone_lead(op: OrderedPartition) -> bool:
    """No zero block, and a first class block of one value."""
    return not op.zero_support and bool(op.class_blocks) and len(op.class_blocks[0]) == 1


def _odd_class_negatives(op: OrderedPartition) -> bool:
    return sum(map((0).__gt__, chain.from_iterable(op.class_blocks))) % 2 == 1


def d_unreachable_count(n: int, r: int) -> int:
    """How many ordered partitions with r pairs the image misses."""
    n, r = index(n), index(r)
    if n < 1 or r < 1:
        return 0
    return n * 2 ** (n - 1) * factorial(r - 1) * stirling("A", n - 1, r - 1)


def d_procedure_inverse(op: OrderedPartition) -> tuple[SignedPermutation, frozenset[int]]:
    """The unique preimage under the even-signed procedure, if one exists."""
    _expect_kind(op, "D")
    odd = _odd_class_negatives(op)
    if odd and _lone_lead(op):
        raise UnreachableForm(
            "no zero block, singleton first block, odd class negatives",
            witness=op.to_doc(),
        )
    return _inverse(op, odd)


def _preimage_window(op: OrderedPartition, odd: bool) -> tuple[list[int], list[int]]:
    """The zero support, then each class block, each sorted, and the gap
    before each class.  With odd class negatives (D only) the first entry
    flips, and with no zero block the first cut moves to gap 1."""
    window = sorted(op.zero_support)
    cuts = []
    for c in op.class_blocks:
        cuts.append(len(window))
        window += sorted(c)
    if odd:
        window[0] = -window[0]
        if not op.zero_support:
            cuts[0] = 1
    return window, cuts


def _inverse(op: OrderedPartition, odd: bool) -> tuple[SignedPermutation, frozenset[int]]:
    """The preimage and its artificial separators, once the forward cut of
    the preimage gives op back.  op's spots tile 1..n, so a window of length
    n that cuts back to them holds each of 1..n once: the round trip proves
    the preimage a signed permutation, and it is not validated again."""
    window, cuts = _preimage_window(op, odd)
    preimage = object.__new__(SignedPermutation)
    vars(preimage)["window"] = window = tuple(window)
    try:
        descents = descent_set(preimage, op.kind)
    except OddNegativeCount as fault:  # D parity: the window itself is faulty
        raise InvariantViolation(f"preimage {fault}, so it cannot map to {op.to_doc()}") from None
    artificial = frozenset(cuts) - descents
    image = (_cut if op.kind == "B" else _slid_cut)(window, descents | artificial)
    if len(window) != op.n or image != (op.zero_support, op.class_blocks):
        blocks = [sorted(b) for b in _blocks_of(*image)]
        doc = {"kind": op.kind, "n": len(window), "blocks": blocks}
        raise InvariantViolation(f"preimage maps to {doc} instead of {op.to_doc()}")
    return preimage, artificial
