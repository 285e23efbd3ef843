"""Lattice-point censuses over the signed cube and the discretized torus.

A cube point lives in {-m..m}^n; its classification records which
coordinates vanish (the zero support) and which share an absolute value
(a signed pair class per value, the sign pattern choosing the side).
A torus point has coordinates that are either ZERO (None) or an exact
(color, magnitude) pair with color mod m and magnitude in 1..t; equal
magnitudes land in one orbit class with relative colors.  No floating
point anywhere.

The even-signed classification drops the single-vanishing-coordinate
hyperplanes: one zero coordinate forms its own singleton class, vanishing
coordinates form a zero support only when at least two of them vanish,
and a point with exactly one zero plus a repeated absolute value among
the rest fits no even-signed partition at all; censuses tally those as
missing.

A census counts every point without visiting each one.  Prefixes of the
first coordinates that share a key (one rule, _child_keys, keys every
axis), which refines the classification, have the same children up to a
relabelling of the axis values, so the walk runs over keys and counts the
prefixes behind each, and reads no point: each key's reading is its
parent's, grown by the one spot the key adds.  For B and the torus the
keys are exactly the classes, for D at most about twice as many.  The walk
and the reading do not depend on the kind: B and D read a cube alike and
differ only on a lone zero (one vanishing coordinate), which D makes a
singleton class or counts missing.  So a census is two steps.  _reading
walks a shape, the cube (n, m) or the torus (n, m, t), grows each key's
zero support and classes, already canonical (in first-spot order, each
signed or colored relative to its first spot), one frozenset per distinct
class, and checks each key but a lone-zero one as a BPartition or
GPartition in one accept pass; the last 8 shapes read are kept.  _tally
checks the sizes and the cap on every call, then counts the kept
partitions (D's as DPartitions sharing the checked fields) and each
lone-zero key as a partition or missing.  classify_point reads the classes
of one point (_classes) and makes the same partition of them.  On one core
of a 2-core x86 VM a cold census costs 9 to 30 us per key, and a repeat
of a kept shape, as D after B on one cube, 0.3 to 2.4 us per key.  So the
work grows with the keys, not the points: near the 10^8-point cap, B n = 4,
m = 49 and D n = 6, m = 10 take 0.003 to 0.005 and 0.05 to 0.08 s, and B
at n = 8, m = 2 reads 50469 keys (3280 distinct classes) in 0.86 to 1.12
s, after which D on that cube takes 0.06 to 0.09 s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index, ne, neg

from .config import DEFAULT_CAPS, EnumerationCaps, _size, _weights
from .errors import (
    BadIndex,
    InvariantViolation,
    SingletonZeroBlock,
    SizeOverflow,
    UnknownKind,
)
from .partitions import BPartition, DPartition, GPartition, _d_of_checked
from .polynomials import _value_at

ZERO = None

__all__ = [
    "ZERO",
    "classify_point",
    "census",
    "torus_census",
    "free_point_count",
    "missing_point_count",
    "CensusResult",
]


def classify_point(kind: str, coords, m: int | None = None):
    """Canonical partition of the finest subspace containing the point.

    Each coordinate is read once: as a zero (0 on the cube, ZERO on the
    torus), or as its spot, tagged by sign or color, in its magnitude's class.
    Cube coordinates, torus colors and magnitudes are read as ints (a bool
    becomes one, a float is refused), so only lattice points classify.
    """
    if kind == "G":
        m, _ = _weights(kind, m)
        coords = [v if v is ZERO else tuple(map(index, v)) for v in coords]
    elif kind not in ("B", "D"):
        raise UnknownKind(f"unknown classification kind {kind!r}")
    else:
        m = None
        coords = list(map(index, coords))
    if (p := _partition(kind, len(coords), m, *_classes(coords, m))) is None:
        raise SingletonZeroBlock("one vanishing coordinate plus a repeated "
                                 "absolute value fits no even-signed partition")
    return p


def _classes(coords, m: int | None) -> tuple:
    """The zero support and the classes of a cube point (m None) or of a
    torus point with colors mod m, the same for every kind of that shape."""
    zero = 0 if m is None else ZERO
    zeros, groups = [], {}
    for spot, value in enumerate(coords, start=1):
        if value == zero:
            zeros.append(spot)
        elif m is None:
            groups.setdefault(abs(value), []).append(spot if value > 0 else -spot)
        else:
            color, magnitude = value
            groups.setdefault(magnitude, []).append((spot, color))
    # groups holds its classes by first spot; each class is read relative
    # to its first spot, so the partitions take them as they are
    if m is None:
        classes = [
            frozenset(g) if g[0] > 0 else frozenset(map(neg, g))
            for g in groups.values()
        ]
    else:
        classes = [
            frozenset([(spot, (color - g[0][1]) % m) for spot, color in g])
            for g in groups.values()
        ]
    return frozenset(zeros), tuple(classes)


def _partition(kind: str, n: int, m: int | None, zeros: frozenset, classes: tuple):
    """The kind's partition of a cube or torus reading, through its
    constructor's accept pass, or None where D has none: D takes a lone zero
    as a singleton class, in first-spot order, only if every other spot is
    one too."""
    if kind == "G":
        return GPartition(n, m, zeros, classes)
    if kind == "B" or len(zeros) != 1:
        return (BPartition if kind == "B" else DPartition)(n, zeros, classes)
    if len(classes) < n - 1:
        return None
    (spot,) = zeros
    return DPartition(n, frozenset(), classes[: spot - 1] + (zeros,) + classes[spot - 1 :])


@dataclass
class CensusResult:
    kind: str
    n: int
    x: int
    m: int | None
    counts: dict
    free: int
    missing: int = 0

    def __post_init__(self):
        total = sum(self.counts.values()) + self.missing
        if total != self.x**self.n:
            raise InvariantViolation(
                f"census lost points: {total} != {self.x}**{self.n}"
            )

    def expected(self, partition) -> int:
        """The per-partition count the falling-factorial bases predict."""
        return _value_at(self.x, self.kind, partition.r, self.n, self.m)


def _cube_axis(m: int):
    """The magnitudes of the cube's axis values -m..m, by index, and how the
    indices of two values with one magnitude relate: equal or not, as their
    signs."""
    return tuple(map(abs, range(-m, m + 1))), ne


def _torus_axis(m: int, t: int):
    """The magnitudes of the torus circle [ZERO, (color, magnitude), ...] in
    color-major order, by index (0 for ZERO), and how the indices of two
    values with one magnitude relate: their difference is t times the color
    difference, which is read mod m, as the partitions read colors."""

    def relate(v, w):
        return (v - w) // t % m

    return (0,) + tuple(range(1, t + 1)) * m, relate


def _child_keys(prefix, tag, magnitudes, relate) -> list:
    """The census keys of prefix + (v,) for each axis index v, tag being the
    prefix's key (() for the empty prefix).  A key is (tag, spot, relation):
    a magnitude new to the prefix opens a class at the next spot, flagged
    when it vanishes; any other value joins its magnitude's first spot in
    the prefix, related to it.  The partitions read a class relative to its
    first spot too, so points with one key classify alike."""
    last = len(prefix)
    firsts = {}
    for spot, i in enumerate(prefix):
        firsts.setdefault(magnitudes[i], (spot, i))
    return [
        (tag, last, a == 0) if (f := firsts.get(a)) is None
        else (tag, f[0], relate(v, f[1]))
        for v, a in enumerate(magnitudes)
    ]


@lru_cache(maxsize=8)
def _reading(n: int, m: int, t: int | None = None) -> tuple:
    """The kind-independent census of a shape: the cube {-m..m}^n when t is
    None, else the torus of m colors and t magnitudes per axis.

    The walk runs over prefix keys, level by level, from the empty prefix's
    key ().  A state is [number of prefixes, first prefix, a later prefix
    (the first if none), the first prefix's reading: its zero support, the
    first spots of its classes as bits, and the classes], by the key
    _child_keys gives its prefixes.  Each state is expanded once, from its
    first prefix, by every axis index, and each child adds its count; where
    two or more prefixes share it, the later one is expanded too and must
    give the same children as a multiset.  A new key's reading is its
    parent's with the one new spot: in the zero support, in a class of its
    own, or in the class whose first spot the key names, signed or colored
    by the key's relation.  Each key is kept as (count, checked BPartition
    or GPartition), or as (count, zero support, classes) for a lone-zero
    cube key, which B and D read apart.  The last few shapes are kept, so a
    repeat, as D after B, costs only the tally.  Each distinct class is
    kept once, shared by states and partitions: a kept reading stays small
    and cheap for the garbage collector (B n = 8, m = 2: 3280 frozensets
    and 33829 partitions for 50469 keys, some 11 MB).
    """
    magnitudes, relate = _cube_axis(m) if t is None else _torus_axis(m, t)
    keep = {}.setdefault  # one object per distinct class
    states = {(): [1, (), (), frozenset(), 0, ()]}
    for last in range(n):
        parents, states = states, {}
        spot = last + 1  # the spot each child adds, counted from 1
        alone = frozenset([spot if t is None else (spot, 0)])
        alone = keep(alone, alone)
        for tag, (count, first, later, zeros, heads, classes) in parents.items():
            keys = _child_keys(first, tag, magnitudes, relate)
            for v, key in enumerate(keys):
                child = first + (v,)
                if (state := states.get(key)) is not None:
                    state[0] += count
                    state[2] = child
                    continue
                _, at, relation = key
                if at == last and not relation:  # a class of its own
                    state = [count, child, child, zeros, heads | 1 << last,
                             classes + (alone,)]
                elif at == last or at + 1 in zeros:  # the zero support
                    grown = zeros | {spot}
                    state = [count, child, child, keep(grown, grown), heads, classes]
                else:  # the class opened at `at`, the i-th by first spot
                    i = (heads & ((1 << at) - 1)).bit_count()
                    grown = classes[i] | {(spot, relation) if t is not None
                                          else -spot if relation else spot}
                    state = [count, child, child, zeros, heads,
                             classes[:i] + (keep(grown, grown),) + classes[i + 1:]]
                states[key] = state
            if count > 1:
                # the later prefix's children are the first's, so each has
                # a state: the pass only records the later prefix
                later_keys = _child_keys(later, tag, magnitudes, relate)
                if sorted(keys) != sorted(later_keys):
                    raise InvariantViolation(
                        f"census prefixes {first} and {later} share a "
                        "signature but not its children"
                    )
                for v, key in enumerate(later_keys):
                    states[key][2] = later + (v,)
    parents = None  # the last level's parents are not read again
    kind, colors = ("B", None) if t is None else ("G", m)
    kept, lone = [], []
    for count, _, _, zeros, _, classes in states.values():
        if kind == "G" or len(zeros) != 1:
            kept.append((count, _partition(kind, n, colors, zeros, classes)))
        else:
            lone.append((count, zeros, classes))
    return tuple(kept), tuple(lone)


def _tally(kind: str, n: int, m: int | None, x: int, caps: EnumerationCaps,
           shape: tuple) -> CensusResult:
    """Census of a shape's x^n points for one kind: the shape's _reading,
    its partitions counted (D's with their checked fields shared), and each
    lone-zero key turned into the kind's partition (or missing).

    The kind and the sizes (by census and torus_census), n and the cap are
    checked on every call before the reading is looked up; every partition
    and the result run their own checks; counts is new each call.
    """
    _size(n)
    # the lone point of a one-value axis still has n coordinates to build;
    # the cap is below 2**L, L its bit length, so an n of L or more is
    # refused before the power is taken
    cap = caps.census_points
    if n >= cap.bit_length() or max(x, 2) ** n > cap:
        raise SizeOverflow(
            f"census of {x}**{n} points exceeds cap {cap}"
            + ("" if x > 1 else f" (a point of {n} coordinates counts as 2**{n})")
        )
    kept, lone = _reading(*shape)
    # kept keys have distinct partitions, else the total check would fail
    counts = ({_d_of_checked(p): c for c, p in kept} if kind == "D"
              else {p: c for c, p in kept})
    missing = 0
    for count, zeros, classes in lone:
        if (p := _partition(kind, n, m, zeros, classes)) is None:
            missing += count
        else:
            counts[p] = counts.get(p, 0) + count
    free = sum(c for p, c in counts.items() if p.r == n)
    return CensusResult(kind, n, x, m, counts, free, missing)


def census(kind: str, n: int, m: int, caps: EnumerationCaps = DEFAULT_CAPS) -> CensusResult:
    """Classify every point of {-m..m}^n; kind B or D, x = 2m + 1."""
    if kind not in ("B", "D"):
        raise UnknownKind(f"cube census kind must be B or D, got {kind!r}")
    n, m = index(n), _size(m, "half-width m")
    return _tally(kind, n, None, 2 * m + 1, caps, (n, m))


def torus_census(n: int, m: int, t: int, caps: EnumerationCaps = DEFAULT_CAPS) -> CensusResult:
    """Classify every point of the discretized torus; x = m * t + 1."""
    n, m, t = index(n), index(m), index(t)
    if m < 2:
        raise BadIndex("torus census needs m >= 2")
    if t < 1:
        raise BadIndex("torus census needs t >= 1")
    return _tally("G", n, m, m * t + 1, caps, (n, m, t))


def free_point_count(kind: str, n: int, x: int, m: int | None = None) -> int:
    """Points on no hyperplane, by the closed falling-factorial form.

    A census with weights (a, b) has x = b (mod a) values per axis: odd
    x = 2m + 1 for the cube, x = m t + 1 for the torus.  n and x are ints.
    """
    if kind not in ("B", "D", "G"):
        raise UnknownKind(f"unknown census kind {kind!r}")
    n, x = index(n), index(x)
    a, b = _weights(kind, m)
    if x < 1 or (x - b) % a:
        raise BadIndex(f"kind {kind} censuses need x = {b} (mod {a}), got {x}")
    return _value_at(x, kind, _size(n), n, m)


def missing_point_count(n: int, x: int) -> int:
    """Even-signed cube points no partition accepts, in closed form."""
    x, n = index(x), _size(n)
    if x < 1 or x % 2 == 0:
        raise BadIndex("cube censuses need odd x = 2m + 1")
    if n == 0:
        return 0
    return n * ((x - 1) ** (n - 1) - _value_at(x, "B", n - 1))
