"""Slow reference implementations used only to cross-check the library.

Everything here is written from first principles with a different
algorithmic route than the package modules: descent statistics read the
window directly, partition counts come from filtering raw set partitions
of the literal ground sets, and Stirling values come from the closed
binomial formula over classical numbers.  The descent histograms walk
every element of the group, twice over: as validated group elements
through the package's element-level statistics, and as raw int tuples
with the statistic counted inline (the tuple kernels); the package sums
one tally of S_n by standardization instead.  That tally is itself
checked against a walk of S_{n-2} for every pair of first two ranks, the
route its one shared walk of S_{n-1} replaced.  Censuses classify every
point on its own, the route the keyed tally replaced, and the census's
child keys find each magnitude's first spot by a backward dict build, the
route its forward scan replaced; partition objects
are validated block by block, the route the constructors' one-pass accept
check replaced; and the separation procedures' cut builds every block and
its mirror, the route the ordered partition's stored zero support and
class blocks replaced.  The basis-change reports rebuild every falling
factorial from its roots through the generic polynomial multiply, the
route the once-built basis replaced.
Keep these dumb on purpose.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, prod
from operator import add, gt, index, mul

from bdstirling.errors import (
    BadIndex,
    NotAPartition,
    SingletonZeroBlock,
    UnknownKind,
)
from bdstirling.geometry import CensusResult, classify_point
from bdstirling.groups import (
    colored_from_signed,
    des_stat,
    descent_set,
    enumerate_group,
    fdes,
)
from bdstirling.identities import IdentityCheck, VerificationReport
from bdstirling.partitions import BPartition, DPartition, stirling_row


# ---------------------------------------------------------------------------
# classical layer


@lru_cache(maxsize=None)
def classical_stirling(n, r):
    """Inclusion-exclusion formula, exact via Fraction."""
    if n == 0:
        return 1 if r == 0 else 0
    if r == 0 or r > n:
        return 0
    total = Fraction(0)
    for i in range(r + 1):
        total += Fraction((-1) ** i * comb(r, i) * (r - i) ** n, factorial(r))
    if total.denominator != 1:
        raise ArithmeticError(f"S({n},{r}) came out as {total}")
    return int(total)


def weighted_layer(s, m, r):
    """m-weighted block growth collapses to m^(s-r) * S(s,r)."""
    if r > s or r < 0:
        return 0
    return m ** (s - r) * classical_stirling(s, r)


def signed_stirling(n, r, m=2, skip_single=False):
    """Binomial sum over the zero-fiber size; skip_single drops j=1."""
    total = 0
    for j in range(n + 1):
        if skip_single and j == 1:
            continue
        total += comb(n, j) * weighted_layer(n - j, m, r)
    return total


# ---------------------------------------------------------------------------
# raw set partitions of explicit ground sets


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield [[head]] + part


def mirror_partitions(n, kind="B"):
    """Partitions of {-n..-1, 1..n} into a family closed under negation
    with at most one self-negating block; kind D also bans the block
    {-a, a} serving as that self-negating block."""
    ground = [v for a in range(1, n + 1) for v in (a, -a)]
    for part in set_partitions(ground):
        blocks = [frozenset(b) for b in part]
        family = set(blocks)
        if any(frozenset(-v for v in b) not in family for b in blocks):
            continue
        selfneg = [b for b in blocks if b == frozenset(-v for v in b)]
        if len(selfneg) > 1:
            continue
        if any(len(set(abs(v) for v in b)) != len(b) for b in blocks if b not in selfneg):
            continue
        if kind == "D" and selfneg and len(selfneg[0]) == 2:
            continue
        yield blocks


def mirror_partition_count(n, r, kind="B"):
    hits = 0
    for blocks in mirror_partitions(n, kind):
        selfneg = sum(1 for b in blocks if b == frozenset(-v for v in b))
        pairs = (len(blocks) - selfneg) // 2
        if pairs == r:
            hits += 1
    return hits


def colored_partition_count(n, m, r):
    """Strict colored partitions of {(a, c)} under the cyclic color shift:
    one optional block made of whole fibers, other blocks with distinct
    values and full shift orbits of size m."""
    ground = [(a, c) for a in range(1, n + 1) for c in range(m)]

    def shift(block):
        return frozenset((a, (c + 1) % m) for a, c in block)

    hits = 0
    for part in set_partitions(ground):
        blocks = [frozenset(b) for b in part]
        family = set(blocks)
        if any(shift(b) not in family for b in blocks):
            continue
        fixed = [b for b in blocks if shift(b) == b]
        if len(fixed) > 1:
            continue
        moving = [b for b in blocks if shift(b) != b]
        if any(len(set(a for a, _ in b)) != len(b) for b in moving):
            continue
        orbits = set()
        ok = True
        for b in moving:
            orbit = set()
            cur = b
            while cur not in orbit:
                orbit.add(cur)
                cur = shift(cur)
            if len(orbit) != m:
                ok = False
                break
            orbits.add(frozenset(orbit))
        if ok and len(orbits) == r:
            hits += 1
    return hits


def colored_literal_row_by_partitions(n, m):
    """Literal colored counts: walk every set partition of {0} and the mn
    colored points, keep the families the color shift permutes with no
    nonzero block fixed, and count shift orbits of the nonzero blocks."""
    points = [0] + [(a, z) for a in range(1, n + 1) for z in range(m)]

    def shift(p):
        if p == 0:
            return 0
        a, z = p
        return (a, (z + 1) % m)

    counts = [0] * (n + 1)
    for part in set_partitions(points):
        blocks = [frozenset(b) for b in part]
        family = set(blocks)
        ok = True
        for b in blocks:
            image = frozenset(shift(p) for p in b)
            if image not in family or (0 not in b and image == b):
                ok = False
                break
        if not ok:
            continue
        orbits = 0
        seen = set()
        for b in blocks:
            if 0 in b or b in seen:
                continue
            orbits += 1
            cur = b
            while cur not in seen:
                seen.add(cur)
                cur = frozenset(shift(p) for p in cur)
        counts[orbits] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# descent statistics straight from the window


def descents_signed(window, flavor):
    """flavor B pads with 0 on the left, flavor D with the negated second
    entry.  Returned as a set of gap positions."""
    n = len(window)
    out = set()
    if flavor == "B":
        left = 0
    else:
        left = -window[1] if n >= 2 else None
    if left is not None and window[0] < left:
        out.add(0)
    for i in range(1, n):
        if window[i - 1] > window[i]:
            out.add(i)
    return out


def descents_colored(entries, m):
    """Order colored letters by (m-1-color, value-1) blocks, count strict
    drops, and add one when the first letter is colored."""
    def key(e):
        value, color = e
        return (m - 1 - color) * 10**6 + (value - 1)

    n = len(entries)
    drops = sum(1 for i in range(1, n) if key(entries[i - 1]) > key(entries[i]))
    eps = 1 if n and entries[0][1] != 0 else 0
    return drops + eps


def signed_group(n):
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


def even_signed_group(n):
    for w in signed_group(n):
        if sum(1 for v in w if v < 0) % 2 == 0:
            yield w


def colored_group(n, m):
    for perm in permutations(range(1, n + 1)):
        for colors in product(range(m), repeat=n):
            yield tuple(zip(perm, colors))


# ---------------------------------------------------------------------------
# descent histograms by walking group elements


def descent_histogram_by_elements(kind, n, m=2):
    """Histogram of the descent statistic over validated group elements."""
    counts = [0] * (n + 1)
    if kind == "A":
        for w in permutations(range(1, n + 1)):
            counts[sum(1 for i in range(n - 1) if w[i] > w[i + 1])] += 1
        return tuple(counts)
    stat = {"B": "desB", "D": "desD", "G": "desG"}[kind]
    for g in enumerate_group(kind, n, m if kind == "G" else None):
        counts[des_stat(g, stat)] += 1
    return tuple(counts)


def fdes_color(beta):
    """Flag descents with the type A part read in the two-colored color
    order: the descents of beta viewed as 2-colored, doubled, plus one when
    the first entry is negative.  It disagrees with fdes elementwise."""
    des = descent_set(colored_from_signed(beta), "G")
    return 2 * len(des) + (1 if beta.n and beta.window[0] < 0 else 0)


def flag_histogram_by_elements(n, order="natural"):
    """Histogram of fdes over the validated elements of B_n, in either order."""
    stat = fdes if order == "natural" else fdes_color
    counts = [0] * max(2 * n, 1)
    for beta in enumerate_group("B", n):
        counts[stat(beta)] += 1
    return tuple(counts)


# ---------------------------------------------------------------------------
# descent histograms by walking raw int tuples


def _signed_sets(n, even=False):
    """Every signing of the letters 1..n, optionally with evenly many minuses.

    All orderings of all these sets walk B_n (or D_n) exactly once.
    """
    for signs in product((1, -1), repeat=n):
        if not even or signs.count(-1) % 2 == 0:
            yield tuple(map(mul, signs, range(1, n + 1)))


def _colored_sets(n, m):
    """Every coloring of the letters 1..n, as color-order keys.

    Value a with color z has key (m - 1 - z) * n + a, so a key of at most
    (m - 1) * n marks a nonzero color.  All orderings walk G_{m,n} once.
    """
    shifts = [(m - 1 - z) * n for z in range(m)]
    for shift in product(shifts, repeat=n):
        yield tuple(map(add, shift, range(1, n + 1)))


def descent_histogram_by_tuples(kind, n, m=2):
    """Histogram of the descent statistic over every window of the group."""
    counts = [0] * (n + 1)
    if n == 0 or (kind == "D" and n == 1):  # the identity alone, no descents
        counts[0] = 1
    elif kind == "A":
        for w in permutations(range(1, n + 1)):
            counts[sum(map(gt, w, w[1:]))] += 1
    elif kind == "B":
        for letters in _signed_sets(n):
            for w in permutations(letters):
                counts[sum(map(gt, w, w[1:])) + (w[0] < 0)] += 1
    elif kind == "D":
        for letters in _signed_sets(n, even=True):
            for w in permutations(letters):
                counts[sum(map(gt, w, w[1:])) + (w[0] + w[1] < 0)] += 1
    else:
        top = (m - 1) * n
        for letters in _colored_sets(n, m):
            for w in permutations(letters):
                counts[sum(map(gt, w, w[1:])) + (w[0] <= top)] += 1
    return tuple(counts)


def flag_histogram_by_tuples(n, order="natural"):
    """Histogram of fdes over every window of B_n, in either order."""
    counts = [0] * max(2 * n, 1)
    if n == 0:
        counts[0] = 1
        return tuple(counts)
    # The color order is the two-colored one, negatives carrying color 1;
    # either way the keys at most ``top`` are the negative letters.
    if order == "natural":
        sets, top = _signed_sets(n), -1
    else:
        sets, top = _colored_sets(n, 2), n
    for letters in sets:
        for w in permutations(letters):
            counts[2 * sum(map(gt, w, w[1:])) + (w[0] <= top)] += 1
    return tuple(counts)


def standard_tally_by_walk(n):
    """Permutations of the ranks 0..n-1 by (descents, first rank, second rank),
    with a rank the permutation is too short to have read as n.

    The route the package's tally replaced: for every pair of first two
    ranks, walk the permutations of the remaining ranks again.
    """
    tally = {(0, 0, n): 1} if n < 2 else {}
    for first, second in permutations(range(n), 2):
        rest = [r for r in range(n) if r != first and r != second]
        counts = [0] * n
        for p in permutations(rest):
            counts[sum(map(gt, (second, *p), p))] += 1
        for d, count in enumerate(counts):
            if count:
                tally[d + (first > second), first, second] = count
    return tally


# ---------------------------------------------------------------------------
# ordered mirror partitions checked value by value


def ordered_partition_reference(kind, n, blocks):
    """Validate an ordered mirror partition one value at a time.

    Returns the blocks as a tuple of frozensets, or raises the error, with
    the message, that bijections.OrderedPartition must raise on the same
    input.  The checks run in this order: kind, n and each value an integer
    (operator.index, so 1.0 is refused and True reads as 1), each block
    nonempty and inside +-1..+-n, an optional self-mirrored zero block,
    blocks pairing up, no repeated absolute value in a class block, each
    pair's second block the mirror of its first, the spots tiling 1..n
    (never for a negative n), and for kind D a zero support of any size
    but 1.
    """
    if kind not in ("B", "D"):
        raise UnknownKind(f"unknown ordered partition kind {kind!r}")
    n = index(n)
    blocks = tuple(frozenset(index(v) for v in b) for b in blocks)

    def mirror(block):
        return frozenset(-v for v in block)

    for b in blocks:
        if not b:
            raise NotAPartition("empty block")
        if any(v == 0 or abs(v) > n for v in b):
            raise NotAPartition(f"block {sorted(b)} outside +-1..+-{n}")
    start = 0
    support = []
    if blocks and blocks[0] == mirror(blocks[0]):
        support = sorted(v for v in blocks[0] if v > 0)
        start = 1
    pairs = blocks[start:]
    if len(pairs) % 2:
        raise NotAPartition("dangling block without its mirror")
    covered = list(support)
    for i in range(0, len(pairs), 2):
        c = pairs[i]
        if len({abs(v) for v in c}) != len(c):
            raise NotAPartition(
                f"block {sorted(c)} repeats an absolute value"
            )
        if pairs[i + 1] != mirror(c):
            raise NotAPartition(
                f"block {sorted(pairs[i + 1])} is not the mirror of {sorted(c)}"
            )
        covered.extend(abs(v) for v in c)
    if n < 0 or sorted(covered) != list(range(1, n + 1)):
        raise NotAPartition(
            f"spots covered {sorted(covered)} do not tile 1..{n}"
        )
    if kind == "D" and len(support) == 1:
        raise SingletonZeroBlock(f"zero support {support} has size 1")
    return blocks


# ---------------------------------------------------------------------------
# the separation procedures' cut, every block and its mirror built


def blocks_from_cut_window(window, separators):
    """Every block of the window cut at the separators: the zero block (the
    leading segment and its negatives), then each later segment and its
    mirror, all built.  This is the cut the procedures made before an
    ordered partition kept only its zero support and class blocks."""
    gaps = sorted(separators)
    blocks = []
    lead = window[: gaps[0]] if gaps else window
    if lead:
        blocks.append(frozenset((*lead, *(-v for v in lead))))
    for a, b in zip(gaps, gaps[1:] + [len(window)]):
        seg = frozenset(window[a:b])
        blocks += (seg, frozenset(-v for v in seg))
    return tuple(blocks)


def slid_blocks(window, separators):
    """Even-signed cut: an occupied gap 1 with gap 0 free slides to gap 0,
    flipping the first entry."""
    if 1 in separators and 0 not in separators:
        window = (-window[0],) + window[1:]
        separators = (separators - {1}) | {0}
    return blocks_from_cut_window(window, separators)


# ---------------------------------------------------------------------------
# the ordered partition's unordered view, which only tests read


def ordered_to_unordered(op):
    """The unordered partition of an ordered one: forget the pair order and
    the orientation of each pair."""
    maker = DPartition if op.kind == "D" else BPartition
    return maker(op.n, op.zero_support, op.class_blocks)


# ---------------------------------------------------------------------------
# unordered partitions checked block by block


def signed_partition_reference(kind, n, zero_support, pair_reps):
    """Validate and canonicalize a type B or D partition block by block.

    Returns (n, zero support, pair representatives), or raises the error,
    with the message, that partitions.BPartition (kind B) or DPartition
    (kind D) must raise on the same input.  The checks run in this order:
    n an integer (operator.index, so 2.0 is refused and True reads as 1),
    the zero support inside 1..n, then per block in the given order: its
    values integers, nonempty, inside +-1..+-n, no absolute value twice;
    the spots tiling 1..n; for kind D a zero support of any size but 1.
    Each block is flipped so its least absolute value is positive, and
    the blocks are sorted by that value.
    """
    n = index(n)
    zs = frozenset(index(v) for v in zero_support)
    for v in zs:
        if v < 1 or v > n:
            raise NotAPartition(f"zero support {sorted(zs)} outside 1..{n}")
    reps = []
    for block in pair_reps:
        rep = frozenset(index(v) for v in block)
        if not rep:
            raise NotAPartition("empty block")
        for v in rep:
            if v == 0 or abs(v) > n:
                raise NotAPartition(f"block {sorted(rep)} outside +-1..+-{n}")
        if len({abs(v) for v in rep}) != len(rep):
            raise NotAPartition(
                f"block {sorted(rep)} repeats an absolute value"
            )
        least = sorted(rep, key=abs)[0]
        if least < 0:
            rep = frozenset(-v for v in rep)
        reps.append((abs(least), rep))
    reps = [rep for _, rep in sorted(reps, key=lambda pair: pair[0])]
    covered = sorted([abs(v) for rep in reps for v in rep] + list(zs))
    if covered != list(range(1, n + 1)):
        raise NotAPartition(f"spots covered {covered} do not tile 1..{n}")
    if kind == "D" and len(zs) == 1:
        raise SingletonZeroBlock(f"zero support {sorted(zs)} has size 1")
    return n, zs, tuple(reps)


def colored_partition_reference(n, m, zero_support, orbit_reps):
    """Validate and canonicalize an m-colored partition block by block.

    Returns (n, m, zero support, orbit representatives), or raises the
    error, with the message, that partitions.GPartition must raise on the
    same input.  The checks run in this order: m an integer of at least 1,
    n an integer, the zero support inside 1..n, then per block in the given
    order: its (value, color) pairs integers with colors read mod m,
    nonempty, values inside 1..n, no value twice; the values tiling 1..n.
    Each block is recolored so its least value has color 0, and the blocks
    are sorted by that value.
    """
    m = index(m)
    if m < 1:
        raise BadIndex("m must be at least 1")
    n = index(n)
    zs = frozenset(index(v) for v in zero_support)
    for v in zs:
        if v < 1 or v > n:
            raise NotAPartition(f"zero support {sorted(zs)} outside 1..{n}")
    reps = []
    for block in orbit_reps:
        rep = frozenset((index(a), index(z) % m) for a, z in block)
        if not rep:
            raise NotAPartition("empty block")
        values = [a for a, _ in rep]
        for a in values:
            if a < 1 or a > n:
                raise NotAPartition(f"block values {sorted(values)} outside 1..{n}")
        if len(set(values)) != len(values):
            raise NotAPartition(f"block {sorted(rep)} repeats a value")
        least, anchor = sorted(rep)[0]
        reps.append((least, frozenset((a, (z - anchor) % m) for a, z in rep)))
    reps = [rep for _, rep in sorted(reps, key=lambda pair: pair[0])]
    covered = sorted([a for rep in reps for a, _ in rep] + list(zs))
    if covered != list(range(1, n + 1)):
        raise NotAPartition(f"values covered {covered} do not tile 1..{n}")
    return n, m, zs, tuple(reps)


# ---------------------------------------------------------------------------
# lattice-point censuses point by point


def census_by_points(kind, n, circle, m=None):
    """Census of circle^n that classifies every point on its own.

    circle is a cube axis range(-w, w + 1) for kind B or D (m None), or
    the torus circle [ZERO, (color, magnitude), ...] for kind G, m colors.
    """
    counts = {}
    missing = 0
    for point in product(circle, repeat=n):
        try:
            p = classify_point(kind, point, m=m)
        except SingletonZeroBlock:
            missing += 1
            continue
        counts[p] = counts.get(p, 0) + 1
    free = sum(c for p, c in counts.items() if p.r == n)
    return CensusResult(kind, n, len(circle), m, counts, free, missing)


def child_keys_backward(prefix, tag, magnitudes, relate):
    """The census keys of prefix + (v,) for each axis index v, as
    geometry._child_keys gives them, with each magnitude's first spot taken
    from a dict built over the prefix backward, so the first spot is
    written last."""
    last = len(prefix)
    firsts = {magnitudes[i]: (spot, i)
              for spot, i in reversed(tuple(enumerate(prefix)))}
    return [
        (tag, last, a == 0) if (f := firsts.get(a)) is None
        else (tag, f[0], relate(v, f[1]))
        for v, a in enumerate(magnitudes)
    ]


# ---------------------------------------------------------------------------
# basis-change identities, one falling factorial at a time


def falling_factorial_roots(kind, k, n=None, m=None):
    """Roots of the degree-k falling factorial, spelled out per kind.

    classical/A: 0, 1, ..., k-1.  B and D: 1, 3, ..., 2k-1, with D's top
    member (k = n > 0) ending at n - 1 instead.  G: 1, 1 + m, ..., 1 + (k-1)m.
    """
    if kind in ("classical", "A"):
        roots = list(range(k))
    elif kind in ("B", "D"):
        roots = list(range(1, 2 * k, 2))
    else:
        roots = [1 + m * i for i in range(k)]
    if kind == "D" and k == n > 0:
        roots[-1] = n - 1
    return roots


def falling_factorial_value(x, kind, k, n=None, m=None):
    """p_k(x) as the product of (x - root) over the roots spelled out above."""
    return prod(x - r for r in falling_factorial_roots(kind, k, n, m))


def value_of(coeffs, x):
    """An ascending coefficient tuple summed term by term at x."""
    return sum(c * x**i for i, c in enumerate(coeffs))


def _times(p, q):
    """Schoolbook product of two ascending coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _plus(p, q, scale=1):
    """p + scale * q over ascending coefficient lists."""
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] += scale * c
    return out


def _product(roots):
    result = [1]
    for c in roots:
        result = _times(result, [-c, 1])
    return result


def basis_report_by_products(name, kind, nmax, m):
    """x^n against sum_k S(n, k) p_k, every p_k rebuilt from its roots.

    For D the correction n ((x - 1)^(n-1) - p_{n-1}) is added, the power as
    a product of n - 1 roots 1.  Polynomials are plain coefficient lists
    with this module's own multiply and add, so nothing comes from the
    library's basis.  Instances match ``verify_identity(name, nmax, m)``.
    """
    instances = []
    for n in range(nmax + 1):
        rhs = []
        for k, coeff in enumerate(stirling_row(kind, n, m)):
            rhs = _plus(rhs, _product(falling_factorial_roots(kind, k, n, m)), coeff)
        if kind == "D" and n >= 1:
            correction = _plus(
                _product([1] * (n - 1)), _product(falling_factorial_roots("B", n - 1)), -1
            )
            rhs = _plus(rhs, correction, n)
        params = [("n", n)] + ([("m", m)] if kind == "G" else [])
        instances.append(IdentityCheck(tuple(params), (0,) * n + (1,), tuple(rhs)))
    return VerificationReport(name, tuple(instances))
