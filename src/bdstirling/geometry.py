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
first coordinates that share a _signature, a cheap tuple that refines the
classification, have the same children up to a relabelling of the axis
values, so the walk runs over signatures and counts the prefixes behind
each; _last_axis_keys keys the last axis, and one point per distinct key
is read.  For B and the torus the keys are exactly the classes, for D at
most about twice as many.  The walk and the reading do not depend on the
kind: B and D read a cube alike, and only the last step differs, where a
lone zero becomes a singleton class or the point is missing.  So a census
is two steps.  _reading walks a shape, the cube (n, m) or the torus
(n, m, t), and reads each key's first point into its zero support and
classes, already canonical (in first-spot order, each signed or colored
relative to its first spot), with one frozenset per distinct class; the
last 8 shapes read are kept.  _tally checks the sizes and the cap on every
call, then turns each reading into the kind's partitions through their
constructors' one-pass accept check.  classify_point is the same two
steps for one point.  On one core of a 2-core x86 VM a cold census costs
11 to 21 us per key, and a repeat of a kept shape, as D after B on one
cube, only the partition step: a quarter to a third of that.  So the work
grows with the keys, not the points: censuses near the 10^8-point cap
(B n = 4, m = 49 and D n = 6, m = 10) take 0.01 and 0.1 s on that VM,
against 42 and 72 s when every prefix was keyed, and B at n = 8, m = 2
reads 50469 keys (3280 distinct classes) in some 1.1 s, after which D on
that cube takes some 0.3 s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index, ne, neg

from .config import DEFAULT_CAPS, EnumerationCaps, _weights
from .errors import (
    BadIndex,
    InvariantViolation,
    SingletonZeroBlock,
    SizeOverflow,
    UnknownKind,
)
from .partitions import BPartition, DPartition, GPartition
from .polynomials import falling_factorial

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
        if m is None or m < 1:
            raise BadIndex("kind G needs m >= 1")
        coords = [v if v is ZERO else tuple(map(index, v)) for v in coords]
    elif kind not in ("B", "D"):
        raise UnknownKind(f"unknown classification kind {kind!r}")
    else:
        m = None
        coords = list(map(index, coords))
    return _partition(kind, len(coords), m, *_classes(coords, m))


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
    """The kind's partition of a class reading, through its constructor's
    accept pass; SingletonZeroBlock where an even-signed point fits none."""
    if kind == "G":
        return GPartition(n, m, zeros, classes)
    if kind == "B":
        return BPartition(n, zeros, classes)
    if len(zeros) == 1:
        if len(classes) < n - 1:
            raise SingletonZeroBlock(
                "one vanishing coordinate plus a repeated absolute value "
                "fits no even-signed partition"
            )
        # every other spot is a class of its own, so the lone zero's spot
        # is its place in first-spot order
        (spot,) = zeros
        classes = classes[: spot - 1] + (zeros,) + classes[spot - 1 :]
        zeros = frozenset()
    return DPartition(n, zeros, classes)


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
        return falling_factorial(self.kind, partition.r, n=self.n, m=self.m)(self.x)


def _cube_axis(m: int):
    """The cube's axis values -m..m, their magnitudes, and how the indices
    of two values with one magnitude relate: equal or not, as their signs."""
    circle = range(-m, m + 1)
    return circle, tuple(map(abs, circle)), ne


def _torus_axis(m: int, t: int):
    """The torus circle [ZERO, (color, magnitude), ...], its magnitudes (0
    for ZERO), and how the indices of two values with one magnitude relate:
    color-major order makes their difference t times the color difference,
    read mod m t as the partitions read colors mod m."""
    circle = [ZERO] + [(z, i) for z in range(m) for i in range(1, t + 1)]
    period = m * t

    def relate(v, w):
        return (v - w) % period

    return circle, (0,) + tuple(i for _, i in circle[1:]), relate


def _signature(point, magnitudes, relate) -> tuple:
    """A key that refines classify_point on the points of an axis^n.

    point holds indices into the axis values.  The key is the first spot of
    each spot's magnitude class, each spot related to that first spot, and
    the first vanishing spot (-1 if none).  The partitions read a class's
    signs or colors relative to its first spot too, so two points with one
    key classify alike.
    """
    a = tuple(map(magnitudes.__getitem__, point))
    first = tuple(map(a.index, a))
    rel = tuple(map(relate, point, map(point.__getitem__, first)))
    return first, rel, a.index(0) if 0 in a else -1


def _last_axis_keys(prefix, tag, magnitudes, relate) -> list:
    """The census keys of prefix + (v,) for each axis index v; tag stands
    for the prefix's _signature.  A magnitude new to the prefix opens a class
    at the last spot (flagged when it vanishes); any other value joins its
    magnitude's first spot in the prefix, related to it.  So a key fixes the
    point's _signature, and points with one key classify alike."""
    last = len(prefix)
    firsts = {magnitudes[i]: (spot, i)
              for spot, i in reversed(tuple(enumerate(prefix)))}
    return [
        (tag, last, a == 0) if (f := firsts.get(a)) is None
        else (tag, f[0], relate(v, f[1]))
        for v, a in enumerate(magnitudes)
    ]


@lru_cache(maxsize=8)
def _reading(n: int, m: int, t: int | None = None) -> tuple:
    """The kind-independent census of a shape: the cube {-m..m}^n when t is
    None, else the torus of m colors and t magnitudes per axis.

    The walk runs over prefix signatures, level by level.  A state is
    [number of prefixes, first prefix, a later prefix (the first if none)],
    by _signature, and by key (_last_axis_keys) on the last level.  Each
    state is expanded once, from its first prefix, by every axis index, and
    each child adds its count; where two or more prefixes share it, the
    later one is expanded too and must give the same children as a
    multiset.  Then each key's first point is read once, by _classes, into
    (count, zero support, classes).  B and D read a cube alike, so the
    last few shapes are kept, and a repeat costs only the partition step.
    Keys share most of their classes, so each distinct one is kept once,
    and the partitions share it too: a kept reading stays small and cheap
    for the garbage collector (B n = 8, m = 2: 3280 frozensets for 50469
    keys, some 9 MB).
    """
    circle, magnitudes, relate = _cube_axis(m) if t is None else _torus_axis(m, t)
    x = len(circle)

    def children(prefix, signature):
        if len(prefix) < n - 1:
            return [_signature(prefix + (v,), magnitudes, relate) for v in range(x)]
        return _last_axis_keys(prefix, signature, magnitudes, relate)

    states = {_signature((), magnitudes, relate): [1, (), ()]}
    for _ in range(n):
        parents, states = states, {}
        for signature, (count, first, later) in parents.items():
            walks = [(first, children(first, signature), count)]
            if count > 1:
                walks.append((later, children(later, signature), 0))
                if sorted(walks[0][1]) != sorted(walks[1][1]):
                    raise InvariantViolation(
                        f"census prefixes {first} and {later} share a "
                        "signature but not its children"
                    )
            for prefix, keys, c in walks:
                for v, key in enumerate(keys):
                    child = prefix + (v,)
                    state = states.setdefault(key, [0, child, child])
                    state[0] += c
                    state[2] = child
    colors = None if t is None else m
    interned: dict = {}
    reading = []
    for count, point, _ in states.values():
        zeros, classes = _classes(map(circle.__getitem__, point), colors)
        reading.append((count, interned.setdefault(zeros, zeros),
                        tuple([interned.setdefault(c, c) for c in classes])))
    return tuple(reading)


def _tally(kind: str, n: int, m: int | None, x: int, caps: EnumerationCaps,
           shape: tuple) -> CensusResult:
    """Census of a shape's x^n points for one kind: the shape's _reading,
    each key's classes turned into the kind's partition (or missing).

    The kind and the sizes (by census and torus_census), n and the cap
    are checked on every call before the reading is looked up, and every
    partition and the result run their own checks; counts is new each call.
    """
    if n < 0:
        raise BadIndex("n must be nonnegative")
    # the lone point of a one-value axis still has n coordinates to build
    if max(x, 2) ** n > caps.census_points:
        raise SizeOverflow(
            f"census of {x}**{n} points exceeds cap {caps.census_points}"
            + ("" if x > 1 else f" (a point of {n} coordinates counts as 2**{n})")
        )
    counts: dict = {}
    missing = 0
    for count, zeros, classes in _reading(*shape):
        try:
            p = _partition(kind, n, m, zeros, classes)
        except SingletonZeroBlock:
            missing += count
            continue
        counts[p] = counts.get(p, 0) + count
    free = sum(c for p, c in counts.items() if p.r == n)
    return CensusResult(kind, n, x, m, counts, free, missing)


def census(kind: str, n: int, m: int, caps: EnumerationCaps = DEFAULT_CAPS) -> CensusResult:
    """Classify every point of {-m..m}^n; kind B or D, x = 2m + 1."""
    if kind not in ("B", "D"):
        raise UnknownKind(f"cube census kind must be B or D, got {kind!r}")
    n, m = index(n), index(m)
    if m < 0:
        raise BadIndex("half-width m must be nonnegative")
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
    x = 2m + 1 for the cube, x = m t + 1 for the torus.
    """
    if kind not in ("B", "D", "G"):
        raise UnknownKind(f"unknown census kind {kind!r}")
    a, b = _weights(kind, m)
    if x < 1 or (x - b) % a:
        raise BadIndex(f"kind {kind} censuses need x = {b} (mod {a}), got {x}")
    return falling_factorial(kind, n, n=n, m=m)(x)


def missing_point_count(n: int, x: int) -> int:
    """Even-signed cube points no partition accepts, in closed form."""
    if x < 1 or x % 2 == 0:
        raise BadIndex("cube censuses need odd x = 2m + 1")
    if n == 0:
        return 0
    return n * ((x - 1) ** (n - 1) - falling_factorial("B", n - 1)(x))
