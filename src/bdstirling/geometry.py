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

A census still walks every point, but it keys each one by a cheap tuple
that refines its classification, and classifies one point per distinct
key: for B and the torus the keys are exactly the classes, for D at most
about twice as many.  The first n - 1 coordinates are keyed once per
prefix (_signature), the last axis as one list of keys per prefix
(_last_axis_keys), and collections.Counter counts the keys of every point
in C.  classify_point builds its classes already canonical (in first-spot
order, each signed or colored relative to its first spot), so the
partition constructors take them in their one-pass accept check.  On one
core of a 2-core x86 VM keying costs 0.4 to 1.3 us per point for n = 3 to
6 at 9 to 99 values per axis, and some 2.5 us at n = 8 with 5 values;
classifying costs 11 to 21 us per key, against 15 to 28 us when the
constructors canonicalized block by block.  Censuses near the 10^8-point
cap (B n = 4, m = 49 and D n = 6, m = 10) took 42 and 72 s, against 63
and 92 s before, back to back on that VM.  Classification matters only
where keys are many per point: B at n = 8, m = 2 has one key per eight
points and spends about half its time there.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import ne, neg

from .config import DEFAULT_CAPS, EnumerationCaps, _weights
from .errors import (
    BadIndex,
    DimensionMismatch,
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


def classify_point(kind: str, coords, m: int | None = None, n: int | None = None):
    """Canonical partition of the finest subspace containing the point.

    Each coordinate is read once: as a zero (0 on the cube, ZERO on the
    torus), or as its spot, tagged by sign or color, in its magnitude's class.
    """
    coords = tuple(coords)
    if n is not None and len(coords) != n:
        raise DimensionMismatch(
            f"point of dimension {len(coords)} where n={n} was required"
        )
    n = len(coords)
    if kind == "G":
        if m is None or m < 1:
            raise BadIndex("kind G needs m >= 1")
    elif kind not in ("B", "D"):
        raise UnknownKind(f"unknown classification kind {kind!r}")
    zero = ZERO if kind == "G" else 0
    zeros, groups = [], {}
    for spot, value in enumerate(coords, start=1):
        if value == zero:
            zeros.append(spot)
        elif kind == "G":
            color, magnitude = value
            groups.setdefault(magnitude, []).append((spot, color))
        else:
            groups.setdefault(abs(value), []).append(spot if value > 0 else -spot)
    # groups holds its classes by first spot; each class is read relative
    # to its first spot, so the partitions take them as they are
    zeros = frozenset(zeros)
    if kind == "G":
        classes = tuple([
            frozenset([(spot, (color - g[0][1]) % m) for spot, color in g])
            for g in groups.values()
        ])
        return GPartition(n, m, zeros, classes)
    classes = tuple([
        frozenset(g) if g[0] > 0 else frozenset(map(neg, g)) for g in groups.values()
    ])
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


def _tally(kind: str, n: int, m: int | None, caps: EnumerationCaps, axis) -> CensusResult:
    """Census of circle^n for axis = (circle, magnitudes, relate), x =
    len(circle) values per axis.

    Every point is walked in lexicographic order and keyed, each prefix of
    n - 1 coordinates once, and collections.Counter counts the keys of every
    point in one pass.  The keys of a tag first occur at its first prefix,
    so first points are recorded only there.  classify_point runs once per
    distinct key, on the first point with that key, and the key's count goes
    to the partition (or to missing).
    """
    if n < 0:
        raise BadIndex("n must be nonnegative")
    circle, magnitudes, relate = axis
    x = len(circle)
    # the lone point of a one-value axis still has n coordinates to build
    if max(x, 2) ** n > caps.census_points:
        raise SizeOverflow(
            f"census of {x}**{n} points exceeds cap {caps.census_points}"
            + ("" if x > 1 else f" (a point of {n} coordinates counts as 2**{n})")
        )
    keyed: Counter = Counter()
    first_point: dict = {}
    if n == 0:  # the one, empty, point has no last axis
        keyed[()], first_point[()] = 1, ()
    tags: dict = {}  # prefix _signature -> small int, so a key hashes cheaply

    def prefix_keys(prefix):
        new = len(tags)
        tag = tags.setdefault(_signature(prefix, magnitudes, relate), new)
        keys = _last_axis_keys(prefix, tag, magnitudes, relate)
        if tag == new:  # later prefixes with this tag yield the same keys
            for v, key in enumerate(keys):
                first_point.setdefault(key, prefix + (v,))
        return keys

    prefixes = itertools.product(range(x), repeat=n - 1) if n else ()
    keyed.update(itertools.chain.from_iterable(map(prefix_keys, prefixes)))
    counts: dict = {}
    missing = 0
    for key, count in keyed.items():
        point = first_point.get(key)
        if point is None:
            raise InvariantViolation(f"census key {key!r} has no first point")
        try:
            p = classify_point(kind, map(circle.__getitem__, point), m=m)
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
    if m < 0:
        raise BadIndex("half-width m must be nonnegative")
    return _tally(kind, n, None, caps, _cube_axis(m))


def torus_census(n: int, m: int, t: int, caps: EnumerationCaps = DEFAULT_CAPS) -> CensusResult:
    """Classify every point of the discretized torus; x = m * t + 1."""
    if m < 2:
        raise BadIndex("torus census needs m >= 2")
    if t < 1:
        raise BadIndex("torus census needs t >= 1")
    return _tally("G", n, m, caps, _torus_axis(m, t))


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
