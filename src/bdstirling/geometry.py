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
is classified.  For B and the torus the keys are exactly the classes, for
D at most about twice as many.  classify_point builds its classes already
canonical (in first-spot order, each signed or colored relative to its
first spot), so the partition constructors take them in their one-pass
accept check, at 11 to 21 us per key on one core of a 2-core x86 VM.  So
the work grows with the keys, not the points: censuses near the
10^8-point cap (B n = 4, m = 49 and D n = 6, m = 10) take 0.01 and 0.1 s
on that VM, against 42 and 72 s when every prefix was keyed, and B at
n = 8, m = 2 classifies 50469 keys in some 1.7 s.
"""
from __future__ import annotations

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

    The walk runs over prefix signatures, level by level.  A state is
    [number of prefixes, first prefix, a later prefix (the first if none)],
    by _signature, and by key (_last_axis_keys) on the last level.  Each
    state is expanded once, from its first prefix, by every axis index, and
    each child adds its count; where two or more prefixes share it, the
    later one is expanded too and must give the same children as a
    multiset.  classify_point runs once per key, on its first point, and
    the key's count goes to the partition (or to missing).
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
    counts: dict = {}
    missing = 0
    for count, point, _ in states.values():
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
