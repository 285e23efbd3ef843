"""Mirror-closed set partitions and their exact Stirling counts.

Type B partitions split {0, +-1, ..., +-n} into a zero block (the block
containing 0, always closed under negation) and pairs (C, -C) of mirror
blocks with C != -C.  Type D partitions are the type B partitions whose
zero support does not have size exactly 1.  The m-colored analogue
partitions {0} and the mn colored points (value, color) into a zero block
(full color fibers) and orbits of a block under the color shift; a block
never repeats a value, so every orbit has the full length m.

Counting never materializes partitions.  Every row comes from one triangle
recurrence, T(s, r) = T(s-1, r-1) + (a r + b) T(s-1, r) with T(0, 0) = 1:
the new largest spot either opens a class of its own or joins one of the r
classes in any of a colors, or (b = 1) the zero block.  Classical rows are
(a, b) = (1, 0), type B (2, 1), m-colored (m, 1), and the layer W_2 of
signed partitions with an empty zero support (2, 0).  Type D drops the
n W_2(n-1, r) partitions whose zero support is a single spot.  The
binomial-sum route over the zero support is kept as a test oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, index, itemgetter, mul
from typing import Iterator, Sequence

from .config import _size, _weights
from .errors import (
    BadIndex,
    NotAPartition,
    SingletonZeroBlock,
    UnknownKind,
)
from .groups import _INT, _spots

__all__ = [
    "BPartition",
    "DPartition",
    "GPartition",
    "classical_set_partitions",
    "stirling",
    "stirling_row",
    "flag_stirling_row",
    "enumerate_partitions",
]


# ---------------------------------------------------------------------------
# counting


_KEPT_ROWS = 128


@lru_cache(maxsize=8)
def _triangle(a: int, b: int) -> list[tuple[int, ...]]:
    """The kept rows of the (a, b) triangle, which _triangle_row extends in
    place: rows 0, 1, ..., k, k < _KEPT_ROWS, and once that prefix is full,
    the last row past it that was asked for."""
    return [(1,)]


def _triangle_row(a: int, b: int, s: int) -> tuple[int, ...]:
    """Row s of T(s, r) = T(s-1, r-1) + (a r + b) T(s-1, r), T(0, 0) = 1.

    Rows 0..127 (_KEPT_ROWS) of each (a, b) are kept once built, so a
    repeat below row 128 is a lookup that returns the same tuple.  Past the
    prefix only the last row asked for is kept, so memory stays bounded for
    any s; any other row extends that row if it is no longer, else the last
    prefix row.  The 8 triangles asked for last are kept (the lru_cache of
    _triangle), so a sweep over many m stays small.  Row s has s + 1
    entries.
    """
    rows = _triangle(a, b)
    prefix = min(len(rows), _KEPT_ROWS)
    if s < prefix:
        return rows[s]
    row = rows[-1] if len(rows[-1]) <= s + 1 else rows[prefix - 1]
    while len(row) <= s:
        factors = range(b, a * len(row) + b + 1, a)
        row = tuple(map(add, (0,) + row, map(mul, factors, row + (0,))))
        if len(rows) < _KEPT_ROWS:  # then row extends rows[-1]
            rows.append(row)
    if s >= _KEPT_ROWS:
        rows[_KEPT_ROWS:] = [row]
    return row


def stirling_row(kind: str, n: int, m: int = 2) -> tuple[int, ...]:
    """Row n of the second kind Stirling triangle for the given kind.

    Kind A counts classical partitions of [n] (no zero block), B and D the
    signed partitions described above, G the m-colored ones.  B agrees with
    G at m = 2 under negatives-as-color-1.  n is read as an int, as by
    stirling: a bool becomes one, a float is refused.
    """
    n = _size(n)
    row = _triangle_row(*_weights(kind, m), n)
    if kind != "D" or n == 0:
        return row
    single = _triangle_row(2, 0, n - 1) + (0,)
    return tuple(v - n * w for v, w in zip(row, single))


def _entry(row: Sequence[int], i: int) -> int:
    """row[i], i read as an int (a float is refused), or 0 off the row."""
    i = index(i)
    return row[i] if 0 <= i < len(row) else 0


def stirling(kind: str, n: int, r: int, m: int = 2) -> int:
    """Entry r of row n of the given kind's Stirling triangle.

    n and r are read as ints, so a float is refused.  Row n is fetched
    before r is read, so an off-row lookup costs what an on-row one does: a
    lookup once built below row 128, a row build past it.  An off-row r
    gives 0, and a negative n gives 0 after the same kind and m checks.
    """
    n = index(n)
    row = stirling_row(kind, max(n, 0), m)  # row 0 checks kind and m
    return _entry(row if n >= 0 else (), r)


def flag_stirling_row(n: int) -> tuple[int, ...]:
    """Type B partitions graded by 2 * pairs + [zero support nonempty].

    Index r runs 0..2n.  Even r = 2p: empty zero support and p pairs,
    W_2(n, p).  Odd r = 2p + 1: nonempty zero support and p pairs, the
    rest of S_B(n, p).
    """
    n = _size(n)
    empty, signed = _triangle_row(2, 0, n), _triangle_row(2, 1, n)
    row = []
    for p in range(n + 1):
        row += [empty[p], signed[p] - empty[p]]
    return tuple(row[:-1])


# ---------------------------------------------------------------------------
# partition objects


_FROZENSET = frozenset({frozenset})
_TUPLE = frozenset({tuple})
_PAIR = frozenset({2})
_NO_SPOTS: frozenset = frozenset()


@dataclass(frozen=True)
class BPartition:
    """Canonical form of a type B partition of {0, +-1, ..., +-n}.

    pair_reps holds one block per mirror pair, the one whose minimum
    absolute value is positive, sorted by that minimum.  Canonical input is
    accepted by one pass of whole-collection checks, whose tiling test
    compares the zero support and the blocks' absolute values with the one
    spot set 1..n (groups._spots); any other input goes
    through the per-block checks of _canonical_pairs, which canonicalize
    sign choice and order or name the first fault, so equal partitions
    compare equal.  n is read as an int (a bool becomes one, a float is
    refused).
    """

    n: int
    zero_support: frozenset[int]
    pair_reps: tuple[frozenset[int], ...]

    def __post_init__(self):
        n, zs, reps = self.n, self.zero_support, self.pair_reps
        if (
            type(n) is int
            and type(zs) is frozenset
            and type(reps) is tuple
            and _FROZENSET.issuperset(map(type, reps))
            and all(reps)
        ):
            union = zs.union(*reps)
            if _INT.issuperset(map(type, union)):
                # Equal sizes make the zero support and the blocks disjoint
                # sets of signed spots; their magnitudes and the zero support
                # as it is then make up 1..n only if the magnitudes are
                # distinct and the zero support positive.  Canonical blocks
                # hold their least magnitude (the lead) as a positive spot,
                # and the leads ascend.
                leads = list(map(min, map(map, itertools.repeat(abs), reps)))
                if (
                    len(union) == sum(map(len, reps)) + len(zs) == n
                    and zs.union(map(abs, union)) == _spots(n)
                    and union.issuperset(leads)
                    and leads == sorted(leads)
                ):
                    return
        n, zs, reps = _canonical_pairs(n, zs, reps)
        vars(self).update(n=n, zero_support=zs, pair_reps=reps)

    @property
    def r(self) -> int:
        """Number of mirror pairs."""
        return len(self.pair_reps)

    def zero_block(self) -> frozenset[int]:
        return frozenset({0}) | self.zero_support | {-v for v in self.zero_support}

    def blocks(self) -> list[frozenset[int]]:
        """Zero block first, then each pair as representative, mirror."""
        out = [self.zero_block()]
        for rep in self.pair_reps:
            out.append(rep)
            out.append(frozenset(-v for v in rep))
        return out

    def sort_key(self):
        return (
            tuple(sorted(self.zero_support)),
            tuple(tuple(sorted(rep, key=abs)) for rep in self.pair_reps),
        )

    def text(self) -> str:
        return " ".join(
            "{" + ",".join(str(v) for v in sorted(b)) + "}" for b in self.blocks()
        )


def _canonical_pairs(n, zero_support, pair_reps):
    """Check a type B partition one rule at a time, raising on the first
    fault; return n, the zero support and the canonical pair
    representatives."""
    n = index(n)
    zs = frozenset(map(index, zero_support))
    if any(v < 1 or v > n for v in zs):
        raise NotAPartition(f"zero support {sorted(zs)} outside 1..{n}")
    reps = []
    for rep in pair_reps:
        rep = frozenset(map(index, rep))
        if not rep:
            raise NotAPartition("empty block")
        if any(v == 0 or abs(v) > n for v in rep):
            raise NotAPartition(f"block {sorted(rep)} outside +-1..+-{n}")
        if len({abs(v) for v in rep}) != len(rep):
            raise NotAPartition(f"block {sorted(rep)} repeats an absolute value")
        if min(rep, key=abs) < 0:
            rep = frozenset(-v for v in rep)
        reps.append(rep)
    reps.sort(key=lambda rep: min(abs(v) for v in rep))
    # Spots lie in 1..n, so n distinct ones tile it; n < 0 never tiles.
    covered = [abs(v) for rep in reps for v in rep] + [*zs]
    if not len(covered) == len(set(covered)) == n:
        raise NotAPartition(f"spots covered {sorted(covered)} do not tile 1..{n}")
    return n, zs, tuple(reps)


class DPartition(BPartition):
    """Type B partition whose zero support never has size exactly 1."""

    def __post_init__(self):
        super().__post_init__()
        if len(self.zero_support) == 1:
            raise SingletonZeroBlock(
                f"zero support {sorted(self.zero_support)} has size 1"
            )


def _d_of_checked(p: BPartition) -> DPartition:
    """p, a checked BPartition with no lone zero, as a DPartition sharing its fields."""
    d = object.__new__(DPartition)
    # fields set one by one stay inline; vars() would add a dict to d and p
    object.__setattr__(d, "n", p.n)
    object.__setattr__(d, "zero_support", p.zero_support)
    object.__setattr__(d, "pair_reps", p.pair_reps)
    return d


@dataclass(frozen=True)
class GPartition:
    """Canonical m-colored partition: zero support plus one block per orbit.

    Each representative block maps values injectively to colors, carries
    color 0 on its minimum value, and the representatives are sorted by
    minimum value.  As for BPartition, canonical input is accepted in one
    pass, whose tiling test compares the zero support and the blocks'
    values with the one spot set 1..n, and any other goes through the
    per-block checks of
    _canonical_orbits; n and m are read as ints.
    """

    n: int
    m: int
    zero_support: frozenset[int]
    orbit_reps: tuple[frozenset[tuple[int, int]], ...]

    def __post_init__(self):
        n, m, zs, reps = self.n, self.m, self.zero_support, self.orbit_reps
        if (
            type(n) is int
            and type(m) is int
            and m >= 1
            and type(zs) is frozenset
            and type(reps) is tuple
            and _FROZENSET.issuperset(map(type, reps))
            and all(reps)
        ):
            union = _NO_SPOTS.union(*reps)
            if _TUPLE.issuperset(map(type, union)) and _PAIR.issuperset(map(len, union)):
                values, colors = zip(*union) if union else ((), ())
                if _INT.issuperset(map(type, itertools.chain(values, colors, zs))):
                    # As for type B, with values for magnitudes: n spots in
                    # all whose values make up 1..n repeat no value.
                    # Canonical blocks hold their least value (the lead) in
                    # color 0, and the leads ascend.
                    leads = list(map(min, reps))
                    if (
                        sum(map(len, reps)) + len(zs) == n
                        and zs.union(values) == _spots(n)
                        and 0 <= min(colors, default=0)
                        and max(colors, default=0) < m
                        and not any(map(itemgetter(1), leads))
                        and leads == sorted(leads)
                    ):
                        return
        n, m, zs, reps = _canonical_orbits(n, m, zs, reps)
        vars(self).update(n=n, m=m, zero_support=zs, orbit_reps=reps)

    @property
    def r(self) -> int:
        return len(self.orbit_reps)

    def sort_key(self):
        return (
            tuple(sorted(self.zero_support)),
            tuple(tuple(sorted(rep)) for rep in self.orbit_reps),
        )

    def text(self) -> str:
        zero = "{0" + "".join(
            f",{a}^{z}" for a in sorted(self.zero_support) for z in range(self.m)
        ) + "}"
        reps = [
            "{" + ",".join(f"{a}^{z}" for a, z in sorted(rep)) + "}"
            for rep in self.orbit_reps
        ]
        return " ".join([zero] + reps)


def _canonical_orbits(n, m, zero_support, orbit_reps):
    """Check an m-colored partition one rule at a time, raising on the
    first fault; return n, m, the zero support and the canonical orbit
    representatives."""
    m = index(m)
    if m < 1:
        raise BadIndex("m must be at least 1")
    n = index(n)
    zs = frozenset(map(index, zero_support))
    if any(v < 1 or v > n for v in zs):
        raise NotAPartition(f"zero support {sorted(zs)} outside 1..{n}")
    reps = []
    for rep in orbit_reps:
        rep = frozenset((index(a), index(z) % m) for a, z in rep)
        if not rep:
            raise NotAPartition("empty block")
        values = [a for a, _ in rep]
        if any(a < 1 or a > n for a in values):
            raise NotAPartition(f"block values {sorted(values)} outside 1..{n}")
        if len(set(values)) != len(values):
            raise NotAPartition(f"block {sorted(rep)} repeats a value")
        anchor = min(rep)[1]
        reps.append(frozenset((a, (z - anchor) % m) for a, z in rep))
    reps.sort(key=lambda rep: min(rep)[0])
    covered = [a for rep in reps for a, _ in rep] + [*zs]
    if not len(covered) == len(set(covered)) == n:
        raise NotAPartition(f"values covered {sorted(covered)} do not tile 1..{n}")
    return n, m, zs, tuple(reps)


# ---------------------------------------------------------------------------
# enumeration


def classical_set_partitions(items: Sequence) -> Iterator[tuple[frozenset, ...]]:
    """All set partitions of items, each as a tuple of frozensets.

    Blocks appear in order of their least-indexed element, the standard
    restricted growth enumeration.
    """
    yield from _grow_blocks(list(items), 0, [])


def _grow_blocks(items: list, i: int, blocks: list[list]) -> Iterator:
    """Every partition of items whose first i items sit in blocks; a
    module-level generator, so it leaves no cycle."""
    if i == len(items):
        yield tuple(frozenset(b) for b in blocks)
        return
    for b in blocks:
        b.append(items[i])
        yield from _grow_blocks(items, i + 1, blocks)
        b.pop()
    blocks.append([items[i]])
    yield from _grow_blocks(items, i + 1, blocks)
    blocks.pop()


def _colorings(cls: frozenset[int], m: int) -> Iterator[frozenset[tuple[int, int]]]:
    """All canonical colorings of a class (min value pinned to color 0)."""
    rest = sorted(cls)[1:]
    anchor = min(cls)
    for colors in itertools.product(range(m), repeat=len(rest)):
        yield frozenset([(anchor, 0)] + list(zip(rest, colors)))


def enumerate_partitions(kind: str, n: int, r: int | None = None, m: int = 2) -> list:
    """Materialize all partitions of the given kind, sorted canonically.

    Each set partition of {0, 1, ..., n} gives the zero support (the block
    holding 0, less 0) and the classes, each colored every canonical way.
    With r given, only those with r mirror pairs or orbits.
    """
    if kind not in ("B", "D", "G"):
        raise UnknownKind(f"unknown partition kind {kind!r}")
    n = _size(n)
    r = r if r is None else index(r)
    # B and D are G at m = 2, with color 1 read as a minus sign.
    colors = m if kind == "G" else 2
    maker = DPartition if kind == "D" else BPartition
    out = []
    for zero, *classes in classical_set_partitions(range(n + 1)):
        zs = zero - {0}
        if (kind == "D" and len(zs) == 1) or (r is not None and len(classes) != r):
            continue
        for reps in itertools.product(*(_colorings(c, colors) for c in classes)):
            if kind == "G":
                out.append(GPartition(n, m, zs, reps))
            else:
                signed = [frozenset(-a if z else a for a, z in c) for c in reps]
                out.append(maker(n, zs, tuple(signed)))
    out.sort(key=lambda p: p.sort_key())
    return out

