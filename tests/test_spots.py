"""Every one-pass tiling test compares with one cached spot set 1..n
(groups._spots); each must accept exactly what the test it replaced, kept
in tests/oracles.py, accepts.  The inputs are tilings of 1..n and their
near misses: a repeated absolute value, a 0, a spot past n, n off by one
and a negative zero support."""
from unittest import mock

from hypothesis import example, given
from hypothesis import strategies as st

from bdstirling import bijections, partitions
from bdstirling.bijections import OrderedPartition, b_procedure, d_procedure
from bdstirling.groups import ColoredPermutation, SignedPermutation
from bdstirling.partitions import BPartition, GPartition

from .oracles import (
    b_partition_accepts,
    colored_values_tile,
    forward_cut_accepts,
    g_partition_accepts,
    ordered_accepts,
    signed_window_tiles,
)

MISSES = ("none", "repeat", "zero", "past", "n_low", "n_high", "negative_support")


@st.composite
def near_tilings(draw, max_n=6):
    """(n, zero support, classes): a tiling of 1..n by a zero support of
    positive spots and classes of signed spots, each class led by its least
    magnitude as a positive spot and the classes in order of their leads,
    then at most one near miss: one spot repeats another's magnitude, or is
    0, or is n + 1; n is one less or one more; or a zero support spot is
    negated."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    k = draw(st.integers(0, n))
    support = list(perm[:k])
    rest = [s * v for s, v in zip(signs[k:], perm[k:])]
    cuts = sorted(draw(st.sets(st.integers(1, max(len(rest) - 1, 1)))) - {len(rest)})
    classes = [rest[a:b] for a, b in zip([0, *cuts], [*cuts, len(rest)])] if rest else []
    classes = sorted(
        (sorted(c, key=abs) for c in classes), key=lambda c: abs(c[0])
    )
    classes = [c if c[0] > 0 else [-v for v in c] for c in classes]
    miss = draw(st.sampled_from(MISSES))
    places = [(support, i) for i in range(len(support))]
    places += [(c, i) for c in classes for i in range(len(c))]
    if miss in ("repeat", "zero", "past") and places:
        block, i = draw(st.sampled_from(places))
        sign = draw(st.sampled_from((1, -1)))
        if miss == "repeat" and len(places) > 1:
            other, j = draw(st.sampled_from([p for p in places if p != (block, i)]))
            block[i] = sign * abs(other[j])
        elif miss == "zero":
            block[i] = 0
        elif miss == "past":
            block[i] = sign * (n + 1)
    elif miss == "n_low":
        n -= 1
    elif miss == "n_high":
        n += 1
    elif miss == "negative_support" and support:
        i = draw(st.integers(0, len(support) - 1))
        support[i] = -support[i]
    return n, support, classes


# a negative zero support; its zero block {-1, 1} is that of spot 1, so a
# test of the signed union of the blocks against +-1..+-n accepts it
NEGATIVE_SUPPORT = (2, [-1], [[2]])
NAMED = [
    NEGATIVE_SUPPORT,
    (3, [-1, 2], [[3]]),
    (2, [1], [[1]]),  # a repeated spot
    (2, [0, 1], [[2]]),
    (2, [1, 3], [[2]]),  # a spot past n
    (2, [], [[1, -1], [2]]),  # a class repeating a magnitude
    (3, [1], [[2]]),  # n one too many
    (1, [1], [[2]]),  # n one too few
]


def with_named(test):
    for case in NAMED:
        test = example(case)(test)
    return test


def spied(owner, name):
    """Patch owner.name with a wrapper that counts its calls and runs it."""
    real = getattr(owner, name)
    return mock.patch.object(owner, name, side_effect=real, autospec=True)


def outcome(call, *args):
    try:
        return call(*args)
    except (ValueError, TypeError) as e:
        return type(e), str(e)


def window_of(support, classes):
    return (*support, *(v for c in classes for v in c))


@given(near_tilings())
@with_named
def test_signed_window_test(case):
    window = window_of(*case[1:])
    if case[0] < len(window):  # n one too few: the window loses its last spot
        window = window[:-1]
    accepted = not isinstance(outcome(SignedPermutation, window), tuple)
    assert accepted == signed_window_tiles(window)


@given(near_tilings())
@with_named
def test_colored_value_test(case):
    window = window_of(*case[1:])
    entries = tuple((abs(v), int(v < 0)) for v in window)
    accepted = not isinstance(outcome(ColoredPermutation, 2, entries), tuple)
    assert accepted == colored_values_tile([a for a, _ in entries])


@given(near_tilings())
@with_named
def test_forward_cut_test(case):
    n, support, classes = case
    support = frozenset(support)
    classes = tuple(map(frozenset, classes))
    blocks = bijections._blocks_of(support, classes)
    element = SignedPermutation(tuple(range(1, max(n, 0) + 1)))
    for kind, procedure in (("B", b_procedure), ("D", d_procedure)):
        with mock.patch.object(bijections, "_cut", lambda window, separators: (support, classes)), \
                spied(OrderedPartition, "__init__") as constructor:
            got = outcome(procedure, element, ())
        accepted = not constructor.called
        assert accepted == forward_cut_accepts(kind, max(n, 0), support, classes)
        assert got == outcome(OrderedPartition, kind, max(n, 0), blocks)


@given(near_tilings())
@with_named
def test_ordered_accept_test(case):
    n, support, classes = case
    blocks = bijections._blocks_of(frozenset(support), tuple(map(frozenset, classes)))
    for kind in "BD":
        with spied(bijections, "_diagnosed_blocks") as diagnosed:
            outcome(OrderedPartition, kind, n, blocks)
        assert (not diagnosed.called) == ordered_accepts(kind, n, blocks)


@given(near_tilings())
@with_named
def test_b_partition_accept_test(case):
    n, support, classes = case
    zs, reps = frozenset(support), tuple(map(frozenset, classes))
    with spied(partitions, "_canonical_pairs") as canonical:
        outcome(BPartition, n, zs, reps)
    assert (not canonical.called) == b_partition_accepts(n, zs, reps)


@given(near_tilings())
@with_named
def test_g_partition_accept_test(case):
    n, support, classes = case
    zs = frozenset(support)
    reps = tuple(frozenset((abs(v), int(v < 0)) for v in c) for c in classes)
    with spied(partitions, "_canonical_orbits") as canonical:
        outcome(GPartition, n, 2, zs, reps)
    assert (not canonical.called) == g_partition_accepts(n, 2, zs, reps)


def test_a_negative_zero_support_has_a_signed_union_that_tiles():
    """Why NEGATIVE_SUPPORT is named: the union of its blocks is +-1..+-n,
    which the forward cut's test must not take for a tiling."""
    n, support, classes = NEGATIVE_SUPPORT
    support, classes = frozenset(support), tuple(map(frozenset, classes))
    blocks = bijections._blocks_of(support, classes)
    assert frozenset().union(*blocks) == frozenset({-2, -1, 1, 2})
    assert not forward_cut_accepts("B", n, support, classes)
