"""Eulerian numbers and exact verification of the Stirling identities.

Every identity is checked in cleared-denominator form over exact integers
or exact polynomial coefficients; nothing here is approximate.  Index
conventions follow the sources of the formulas and differ by kind: the
classical Eulerian numbers and the flag variant are one-based (the number
counts elements with k - 1 descents, with the n = 0 convention A(0,0) = 1),
while the signed, even-signed, and colored Eulerian numbers are indexed by
the descent statistic itself.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from operator import gt, mul
from types import MappingProxyType

from .bijections import d_unreachable_count
from .config import DEFAULT_CAPS, EnumerationCaps, _check_group_cap, _size, _weights
from .errors import BadIndex, SizeOverflow, UnknownKind
from .partitions import _entry, flag_stirling_row, stirling_row
from .polynomials import _roots, _times_linear

__all__ = [
    "descent_histogram",
    "flag_histogram",
    "eulerian",
    "eulerian_from_stirling",
    "IdentityCheck",
    "VerificationReport",
    "IDENTITIES",
    "verify_identity",
]


def _binom(a: int, b: int) -> int:
    return comb(a, b) if a >= 0 and b >= 0 else 0


@lru_cache(maxsize=None)
def _standard_tally(n: int) -> MappingProxyType:
    """Permutations of the ranks 0..n-1 by (descents, first rank, second rank).

    A rank the permutation is too short to have reads as n.  Replacing
    the letters of any window by their ranks (standardizing it) keeps
    every descent at gaps 1..n-1, so this one tally serves every kind;
    only gap 0 depends on which letters were signed or colored.  Past the
    first letter, a permutation standardizes to one of S_{n-1} whose first
    rank is second - (second > first), so one walk of S_{n-1}, counted by
    first rank and descents, fills the tally of S_n.
    """
    if n < 2:  # S_0 and S_1 have no pair of first ranks to walk by.
        return MappingProxyType({(0, 0, n): 1})
    tails = [[0] * (n - 1) for _ in range(n - 1)]
    for p in itertools.permutations(range(n - 1)):
        tails[p[0]][sum(map(gt, p, p[1:]))] += 1
    tally = {}
    for first, second in itertools.permutations(range(n), 2):
        for d, count in enumerate(tails[second - (second > first)]):
            if count:
                tally[d + (first > second), first, second] = count
    return MappingProxyType(tally)  # cached, so read-only


def _gap_zero_sum(n: int, total: int, down, step: int, size: int) -> tuple[int, ...]:
    """Counts by step * des(pi) + [gap 0 descends] over the tally of S_n.

    Each tallied permutation stands for ``total`` choices of the letters
    it arranges, and ``down(first, second)`` of them, read by its first two
    ranks, make the gap in front of its first letter a descent.
    """
    counts = [0] * size
    for (d, first, second), count in _standard_tally(n).items():
        drops = down(first, second)
        counts[step * d] += count * (total - drops)
        counts[step * d + 1] += count * drops
    return tuple(counts)


@lru_cache(maxsize=64)
def _descent_histogram(kind: str, n: int, m: int) -> tuple[int, ...]:
    if n == 0 or (kind == "D" and n == 1):  # the identity alone, no descents
        return (1,) + (0,) * n
    if kind == "A":
        # The first letter is rank j; the rest standardizes to S_{n-1},
        # and gap 1 descends iff the rest starts below j.
        return _gap_zero_sum(n - 1, n, lambda first, _: n - 1 - first, 1, n + 1)
    if kind == "D":
        # With an even signing L of 1..n sorted, gap 0 descends iff
        # L[pi_1] + L[pi_2] < 0.
        signings = [
            sorted(map(mul, signs, range(1, n + 1)))
            for signs in itertools.product((1, -1), repeat=n)
            if signs.count(-1) % 2 == 0
        ]
        drops = {
            (first, second): sum(L[first] + L[second] < 0 for L in signings)
            for first, second in itertools.permutations(range(n), 2)
        }
        return _gap_zero_sum(n, len(signings), lambda *pair: drops[pair], 1, n + 1)
    # j letters signed (colored nonzero) in C(n, j) (m - 1)^j ways; they
    # take the j lowest ranks, in the natural and the color order alike,
    # so gap 0 descends iff pi_1 is one of them.  Bstar is B with each
    # descent counted twice: fdes = 2 des + [negative first].
    weights = [comb(n, j) * (m - 1) ** j for j in range(n + 1)]
    above = [m**n - low for low in itertools.accumulate(weights)]
    step = 2 if kind == "Bstar" else 1  # the top statistic is step (n - 1) + 1
    return _gap_zero_sum(n, m**n, lambda first, _: above[first], step, step * (n - 1) + 2)


def descent_histogram(
    kind: str, n: int, m: int = 2, caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple[int, ...]:
    """Counts of elements by descent statistic, index 0..n.

    Kind A uses plain descents of S_n, B/D/G their flavored statistics
    over the corresponding groups, and Bstar the flag descents of B_n,
    index 0..max(2n - 1, 0).  Each element is a choice of signed (or
    colored) letters plus an arrangement, and the arrangement standardizes
    to a permutation with the same descents at gaps 1..n-1; so every
    histogram is a weighted sum over one cached tally of S_n (S_{n-1} for
    kind A, past its first letter), counted by descents and first two
    ranks, which one walk of S_{n-1} (S_{n-2}) fills.  Only gap 0 depends
    on the letters chosen.  The walks over whole groups are kept as test
    oracles in ``tests/oracles.py``.  The cap still bounds the group order,
    B's for Bstar.  Calls that differ only in ``caps``, or in ``m`` outside
    kind G, share one entry of a memo of the last 64 histograms.
    """
    _check_group_cap("B" if kind == "Bstar" else kind, n, m, caps)
    return _descent_histogram(kind, n, m if kind == "G" else 2)


def flag_histogram(
    n: int, order: str = "natural", caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple[int, ...]:
    """Counts of B_n elements by flag descents, index 0..max(2n-1, 0).

    Both orders put the negative letters lowest, so they give equal
    counts: either order is ``descent_histogram("Bstar", n)``, the same
    cached tuple.  ``fdes`` reads the natural order; the elementwise
    color-order statistic is the test oracle ``fdes_color``.
    """
    if order not in ("natural", "color"):
        raise UnknownKind(f"unknown fdes order {order!r}")
    return descent_histogram("Bstar", n, caps=caps)


flag_histogram.cache_info = descent_histogram.cache_info = _descent_histogram.cache_info
flag_histogram.cache_clear = descent_histogram.cache_clear = _descent_histogram.cache_clear


def eulerian(
    kind: str, n: int, k: int, m: int = 2, caps: EnumerationCaps = DEFAULT_CAPS
) -> int:
    """Eulerian number read from the standardized tally of S_n.

    The row is ``descent_histogram``, a weighted sum over that cached
    tally; no group is walked.  Kinds A and Bstar are one-based (k - 1
    descents, A(0,0) = 1); kinds B, D, G count elements whose statistic
    equals k.  An index outside the row gives 0.  Every row, n = 0
    included, meets the kind's cap.
    """
    hist = descent_histogram(kind, n, m, caps=caps)
    i = k - 1 if kind == "Bstar" or (kind == "A" and n > 0) else k
    return _entry(hist, i)


def eulerian_from_stirling(kind: str, n: int, k: int) -> int:
    """Eulerian numbers rebuilt from Stirling rows by binomial inversion.

    Kind A inverts r! S(n,r) = sum_k A(n,k) C(n-k, r-k); kinds B and D
    invert their 2^r r! analogues, D with the even-signed correction term
    subtracted.  The even-signed form is undefined at n = 1.
    """
    if kind not in ("A", "B", "D"):
        raise UnknownKind(f"no inversion formula for kind {kind!r}")
    if kind == "D" and n == 1:
        raise BadIndex("the even-signed inversion is undefined at n = 1")
    base, _ = _weights(kind)
    row = stirling_row(kind, max(n, 0))  # a negative n sums no terms
    total = sum(
        (-1) ** (k - r)
        * base**r
        * factorial(r)
        * row[r]
        * _binom(n - r, k - r)
        for r in range(min(k, n) + 1)
    )
    if kind == "D" and n >= 1 and k >= 1:
        total -= n * 2 ** (n - 1) * eulerian("A", n - 1, k - 1)
    return total


# ---------------------------------------------------------------------------
# verification plumbing


@dataclass(frozen=True)
class IdentityCheck:
    params: tuple[tuple[str, object], ...]
    lhs: object
    rhs: object
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def params_text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    instances: tuple[IdentityCheck, ...]
    skipped: tuple[str, ...] = ()
    asserted: bool = True

    @property
    def passed(self) -> bool:
        return all(inst.ok for inst in self.instances)


def _stirling_eulerian_report(kind, sizes, m, caps):
    base, _ = _weights(kind, m)
    instances = []
    for n in sizes:
        row = stirling_row(kind, n, m)
        euler = [eulerian(kind, n, k, m, caps=caps) for k in range(n + 1)]
        for r in range(n + 1):
            lhs = base**r * factorial(r) * row[r]
            rhs = sum(e * _binom(n - k, r - k) for k, e in enumerate(euler))
            if kind == "D":  # the ordered partitions d_procedure misses
                rhs += d_unreachable_count(n, r)
            params = [("n", n), ("r", r)] + ([("m", m)] if kind == "G" else [])
            instances.append(IdentityCheck(tuple(params), lhs, rhs))
    return instances


def _inversion_report(kind, sizes, m, caps):
    return [
        IdentityCheck((("n", n), ("k", k)), eulerian(kind, n, k, caps=caps),
                      eulerian_from_stirling(kind, n, k))
        for n in sizes for k in range(n + 1)
    ]


def _basis_report(kind, sizes, m, caps):
    """x^n against sum_k S(n, k) p_k, with p_k = falling_factorial(kind, k).

    The basis p_0..p_nmax, nmax the largest size, is built once over _roots
    before the walk (a basis grown with the sizes made the sweep about 5%
    slower), and each n adds its row into one plain coefficient list, whose
    top entry is S(n, n) = 1.  For D, the top member (p_{n-1} times the
    factor for _roots' top root) and the correction n ((x - 1)^(n-1) -
    p_{n-1}) come from the same basis and a running power of (x - 1).
    Size n costs (n + 1)(n + 2) / 2 coefficient products; their running sum
    meets the group cap as the lazy sizes are read, so a huge nmax stops.
    """
    listed, products, cap = [], 0, caps.signed_group
    for n in sizes:
        products += (n + 1) * (n + 2) // 2
        if products > cap:
            raise SizeOverflow(f"basis change of {products} coefficient products exceeds cap {cap}")
        listed.append(n)
    nmax = max(listed)
    roots = _roots(kind, nmax, n=nmax + 1, m=m)  # every D member below its top
    basis = list(itertools.accumulate(roots, _times_linear, initial=(1,)))
    power = (1,)  # a power of (x - 1) for D
    instances = []
    for n in listed:
        rhs = [0] * (n + 1)
        for k, coeff in enumerate(stirling_row(kind, n, m)):
            p = basis[k]
            if kind == "D" and k == n > 0:
                p = _times_linear(basis[n - 1], _roots("D", n, n)[-1])
            for i, c in enumerate(p):
                rhs[i] += coeff * c
        if kind == "D" and n >= 1:
            while len(power) < n:  # up to (x - 1)^(n - 1)
                power = _times_linear(power, 1)
            for i, (c, d) in enumerate(zip(power, basis[n - 1])):
                rhs[i] += n * (c - d)
        params = [("n", n)] + ([("m", m)] if kind == "G" else [])
        instances.append(IdentityCheck(tuple(params), (0,) * n + (1,), tuple(rhs)))
    return instances


def _flag_report(kind, sizes, m, caps):
    """Each (n, r) checked once, listed under the natural order, then
    again under the color order, whose counts are equal."""
    checks = []
    for n in sizes:
        row = flag_stirling_row(n)
        hist = descent_histogram(kind, n, caps=caps)
        for r in range(2 * n + 1):
            half = r // 2
            lhs = 2**half * factorial(half) * row[r]
            rhs = sum(
                hist[k - 1] * _binom(n - (k + 1) // 2, (r - k) // 2)
                for k in range(1, r + 1)
            )
            checks.append((n, r, lhs, rhs, "match" if lhs == rhs else "mismatch"))
    return [
        IdentityCheck((("order", order), ("n", n), ("r", r)), lhs, rhs, note)
        for order in ("natural", "color")
        for n, r, lhs, rhs, note in checks
    ]


# build(kind, sizes, m, caps) returns the instances for the sizes, in
# order; "skip" names a size left out, "asserted" a report only.
IDENTITIES: dict[str, dict] = {
    "thm-1.1": {"nmax": 6, "kind": "A", "build": _stirling_eulerian_report},
    "thm-1.2": {"nmax": 8, "kind": "A", "build": _basis_report},
    "thm-4.1": {"nmax": 6, "kind": "B", "build": _stirling_eulerian_report},
    # the even-signed forms are undefined at n = 1
    "thm-4.2": {"nmax": 6, "kind": "D", "build": _stirling_eulerian_report, "skip": 1},
    "cor-4.3": {"nmax": 6, "kind": "B", "build": _inversion_report},
    "cor-4.4": {"nmax": 6, "kind": "D", "build": _inversion_report, "skip": 1},
    "eq-4": {"nmax": 6, "kind": "A", "build": _inversion_report},
    "thm-5.1": {"nmax": 8, "kind": "B", "build": _basis_report},
    "thm-5.3": {"nmax": 8, "kind": "D", "build": _basis_report},
    "thm-6.9": {"nmax": 4, "kind": "G", "build": _stirling_eulerian_report},
    "thm-6.10": {"nmax": 5, "kind": "G", "build": _basis_report},
    "thm-6.11-report": {"nmax": 4, "kind": "Bstar", "build": _flag_report, "asserted": False},
}


def verify_identity(
    name: str,
    nmax: int | None = None,
    m: int = 2,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> VerificationReport:
    """Run one registered identity over 0..nmax and report every instance."""
    if name not in IDENTITIES:
        raise UnknownKind(f"unknown identity {name!r}")
    entry = IDENTITIES[name]
    nmax = _size(entry["nmax"] if nmax is None else nmax, "nmax")
    skip = entry.get("skip")
    sizes = (n for n in range(nmax + 1) if n != skip)  # lazy, so the cap stops a huge nmax
    instances = tuple(entry["build"](entry["kind"], sizes, m, caps))
    skipped = (f"n={skip}",) if skip is not None and skip <= nmax else ()
    return VerificationReport(name, instances, skipped, entry.get("asserted", True))
