import operator
import re
import subprocess
import sys
from contextlib import contextmanager
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdstirling import geometry, partitions
from bdstirling.bijections import d_unreachable_count
from bdstirling.config import _weights
from bdstirling.errors import (
    BadIndex,
    NotAPartition,
    RepeatedValueInBlock,
    SingletonZeroBlock,
    UnknownKind,
)
from bdstirling.geometry import ZERO, census, classify_point, free_point_count, torus_census
from bdstirling.identities import eulerian, verify_identity
from bdstirling.partitions import (
    BPartition,
    DPartition,
    GPartition,
    classical_set_partitions,
    enumerate_partitions,
    flag_stirling_row,
    stirling,
    stirling_row,
)

from . import oracles

TABLE_B = [
    (1,),
    (1, 1),
    (1, 4, 1),
    (1, 13, 9, 1),
    (1, 40, 58, 16, 1),
    (1, 121, 330, 170, 25, 1),
    (1, 364, 1771, 1520, 395, 36, 1),
]
TABLE_D = [
    (1,),
    (0, 1),
    (1, 2, 1),
    (1, 7, 6, 1),
    (1, 24, 34, 12, 1),
    (1, 81, 190, 110, 20, 1),
    (1, 268, 1051, 920, 275, 30, 1),
]


class TestStirlingRows:
    @pytest.mark.parametrize("n", range(7))
    def test_signed_triangle(self, n):
        assert stirling_row("B", n) == TABLE_B[n]

    @pytest.mark.parametrize("n", range(7))
    def test_even_signed_triangle(self, n):
        assert stirling_row("D", n) == TABLE_D[n]

    @pytest.mark.parametrize("kind", ["A", "B", "D", "G"])
    @pytest.mark.parametrize("n", [*range(9), 30])
    def test_recurrence_agrees_with_binomial_form(self, kind, n):
        for m in ((2,) if kind in ("A", "B", "D") else (1, 2, 3, 4)):
            if kind == "A":
                expect = [oracles.classical_stirling(n, r) for r in range(n + 1)]
            else:
                expect = [
                    oracles.signed_stirling(n, r, m, skip_single=kind == "D")
                    for r in range(n + 1)
                ]
            assert stirling_row(kind, n, m) == tuple(expect)

    def test_classical_matches_oracle(self):
        for n in range(8):
            row = stirling_row("A", n)
            assert row == tuple(oracles.classical_stirling(n, r) for r in range(n + 1))

    @given(st.integers(0, 8), st.integers(1, 5))
    def test_colored_rows_match_binomial_oracle(self, n, m):
        row = stirling_row("G", n, m)
        assert row == tuple(oracles.signed_stirling(n, r, m) for r in range(n + 1))

    @given(st.integers(0, 8))
    def test_even_signed_rows_match_binomial_oracle(self, n):
        row = stirling_row("D", n)
        expect = tuple(oracles.signed_stirling(n, r, 2, skip_single=True) for r in range(n + 1))
        assert row == expect

    def test_two_colors_coincide_with_signed(self):
        for n in range(9):
            assert stirling_row("G", n, 2) == stirling_row("B", n)

    def test_difference_between_signed_triangles(self):
        # the two triangles differ by n * W_2(n-1, r)
        for n in range(1, 7):
            for r in range(n + 1):
                gap = TABLE_B[n][r] - TABLE_D[n][r]
                assert gap == n * oracles.weighted_layer(n - 1, 2, r)

    def test_flag_row_shape(self):
        assert flag_stirling_row(0) == (1,)
        assert flag_stirling_row(1) == (0, 1, 1)
        assert flag_stirling_row(2) == (0, 1, 2, 2, 1)

    def test_flag_row_splits_by_parity(self):
        for n in [*range(1, 6), 30]:
            row = flag_stirling_row(n)
            assert len(row) == 2 * n + 1
            for p in range(n + 1):
                assert row[2 * p] == oracles.weighted_layer(n, 2, p)
            for p in range(n):
                odd = sum(
                    oracles.classical_stirling(n - j, p) * 2 ** (n - j - p) * _comb(n, j)
                    for j in range(1, n - p + 1)
                )
                assert row[2 * p + 1] == odd

    def test_earlier_row_is_rebuilt_after_a_later_one(self):
        for kind in ("A", "B", "D", "G"):
            late = stirling_row(kind, 12, 3)
            early = stirling_row(kind, 5, 3)
            assert stirling_row(kind, 12, 3) == late
            assert stirling_row(kind, 5, 3) == early
        assert early == tuple(oracles.signed_stirling(5, r, 3) for r in range(6))
        assert flag_stirling_row(3) == (0, 1, 4, 9, 6, 3, 1)

    def test_rows_below_the_bound_are_built_once(self):
        def sweep():
            rows = {kind: [stirling_row(kind, n, 3) for n in range(101)]
                    for kind in ("A", "B", "D", "G")}
            rows["flag"] = [flag_stirling_row(n) for n in range(101)]
            return rows

        with mock.patch.dict(partitions._TRIANGLES, clear=True), \
                _counted_adds() as entries:
            first = sweep()
            # rows 1..100 of A, B, G at m = 3 and W_2, each built once
            assert len(entries) == 4 * sum(j + 1 for j in range(1, 101))
            entries.clear()
            second = sweep()
            for name in ("thm-1.2", "thm-5.1", "thm-5.3", "thm-6.10"):
                assert verify_identity(name, nmax=36, m=3).passed
            assert entries == []
        assert second == first
        for kind in ("A", "B", "G"):
            assert all(map(operator.is_, second[kind], first[kind]))
        for r in (0, 1, 2, 50, 99, 100):
            assert first["B"][100][r] == oracles.signed_stirling(100, r)

    @pytest.mark.parametrize("kept,s,steps", [
        ((140, 150), 155, range(151, 156)),  # extends the longer kept row
        ((140, 150), 145, range(141, 146)),  # extends the one not past it
        ((140, 150), 135, range(128, 136)),  # no kept row fits: the last prefix row
    ])
    def test_past_the_prefix_a_row_extends_the_longest_kept_row_not_past_it(
        self, kept, s, steps
    ):
        bound = partitions._KEPT_ROWS
        with mock.patch.dict(partitions._TRIANGLES, clear=True):
            for k in kept:
                partitions._triangle_row(2, 1, k)
            with _counted_adds() as entries:
                row = partitions._triangle_row(2, 1, s)
            # building row j from row j - 1 adds j + 1 entries
            assert len(entries) == sum(j + 1 for j in steps)
            lengths = [len(r) for r in partitions._TRIANGLES[2, 1]]
            assert lengths == [*range(1, bound + 1), kept[-1] + 1, s + 1]
        with mock.patch.dict(partitions._TRIANGLES, clear=True):
            assert row == partitions._triangle_row(2, 1, s)
        assert len(row) == s + 1
        for r in (0, 1, 2, s // 2, s - 1, s):
            assert row[r] == oracles.signed_stirling(s, r)

    def test_alternating_rows_past_the_prefix_are_kept(self):
        # D row 400 reads W_2 row 399, the flag row 400 reads W_2 row 400
        with mock.patch.dict(partitions._TRIANGLES, clear=True):
            d, flag = stirling_row("D", 400), flag_stirling_row(400)
            with _counted_adds() as entries:
                for _ in range(3):
                    assert stirling_row("D", 400) == d
                    assert flag_stirling_row(400) == flag
            assert entries == []
            past = partitions._TRIANGLES[2, 0][partitions._KEPT_ROWS:]
            assert [len(r) for r in past] == [400, 401]

    def test_cold_thousandth_row_keeps_memory_small(self):
        # VmHWM is the child's own peak; its ru_maxrss starts at the peak of
        # the test process that spawned it, so it depends on earlier tests.
        code = (
            "from bdstirling.partitions import stirling_row\n"
            "assert len(stirling_row('D', 1000)) == 1001\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert int(res.stdout) < 100 * 1024  # KiB on Linux

    def test_sweep_past_the_prefix_keeps_memory_small(self):
        # B, D and flag rows 0..600 keep at most the prefix plus two rows of
        # each triangle, so the peak stays far below keeping every row
        code = (
            "from bdstirling.partitions import _TRIANGLES, flag_stirling_row, stirling_row\n"
            "for n in range(601):\n"
            "    stirling_row('B', n), stirling_row('D', n), flag_stirling_row(n)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n"
            "for key in ((2, 1), (2, 0)):\n"
            "    print(*(len(r) for r in _TRIANGLES[key]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        peak, *triangles = res.stdout.splitlines()
        assert int(peak) < 40 * 1024  # KiB on Linux
        for line in triangles:
            lengths = list(map(int, line.split()))
            assert len([k for k in lengths if k > 128]) <= 2
            assert [k for k in lengths if k <= 128] == list(range(1, 129))

    def test_sweep_over_many_colors_keeps_few_triangles(self):
        # row 127 of G for m = 1..200 builds 200 triangle prefixes; only the
        # last _KEPT_TRIANGLES stay, in the order they were first built
        code = (
            "from bdstirling.partitions import _KEPT_TRIANGLES, _TRIANGLES, stirling_row\n"
            "for m in range(1, 201):\n"
            "    stirling_row('G', 127, m)\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))\n"
            "print(_KEPT_TRIANGLES, *(a for a, b in _TRIANGLES))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        peak, triangles = res.stdout.splitlines()
        assert int(peak) < 60 * 1024  # KiB on Linux; keeping all 200 takes ~190 MB
        kept, *colors = map(int, triangles.split())
        assert 4 <= kept == len(colors)
        assert colors == list(range(201 - kept, 201))

    def test_a_new_triangle_drops_the_one_built_first(self):
        bound = partitions._KEPT_TRIANGLES
        with mock.patch.dict(partitions._TRIANGLES, clear=True):
            rows = [stirling_row("G", 3, m) for m in range(1, bound + 1)]
            assert list(partitions._TRIANGLES) == [(m, 1) for m in range(1, bound + 1)]
            # a kept triangle asked again keeps its place and its rows
            assert stirling_row("G", 3, 1) is rows[0]
            stirling_row("G", 3, bound + 1)
            assert list(partitions._TRIANGLES) == [(m, 1) for m in range(2, bound + 2)]
            assert stirling_row("G", 3, 1) == rows[0]
            assert list(partitions._TRIANGLES) == [
                *((m, 1) for m in range(3, bound + 2)), (1, 1)]

    def test_flag_row_total_counts_all_signed_partitions(self):
        # every signed partition lands at exactly one flag index
        for n in range(6):
            assert sum(flag_stirling_row(n)) == sum(stirling_row("B", n))


@contextmanager
def _counted_adds():
    """Count the triangle entries built while the block runs."""
    entries = []

    def counting_add(x, y):
        entries.append(1)
        return operator.add(x, y)

    with mock.patch.object(partitions, "add", counting_add):
        yield entries


def _comb(n, j):
    from math import comb

    return comb(n, j)


class TestPartitionObjects:
    def test_canonical_representatives(self):
        p = BPartition(3, frozenset({2}), (frozenset({-1, 3}),))
        assert p.pair_reps == (frozenset({1, -3}),)
        assert p.zero_block() == frozenset({2, 0, -2})
        assert p.r == 1

    def test_rep_order_is_by_smallest_value(self):
        p = BPartition(3, frozenset(), (frozenset({3}), frozenset({1, 2})))
        assert p.pair_reps == (frozenset({1, 2}), frozenset({3}))

    def test_coverage_checked(self):
        with pytest.raises(NotAPartition):
            BPartition(3, frozenset({1}), (frozenset({2}),))
        with pytest.raises(NotAPartition):
            BPartition(2, frozenset({1}), (frozenset({1}),))

    @pytest.mark.parametrize("zeros, reps, message", [
        ({3}, (), r"zero support \[3\] outside 1..2"),
        ({0}, ({1, 2},), r"zero support \[0\] outside 1..2"),
        ((), ({1, -3},), r"block \[-3, 1\] outside \+-1..\+-2"),
        ((), ({0, 1}, {2}), r"block \[0, 1\] outside"),
        ((), (set(), {1, 2}), "empty block"),
        ({1}, (), r"spots covered \[1\] do not tile 1..2"),
        ((), ({1}, {-1, 2}), r"spots covered \[1, 1, 2\] do not tile"),
    ])
    def test_signed_raise_sites(self, zeros, reps, message):
        with pytest.raises(NotAPartition, match=message):
            BPartition(2, frozenset(zeros), tuple(map(frozenset, reps)))

    @pytest.mark.parametrize("m, zeros, reps, error, message", [
        (0, (), ({(1, 0), (2, 0)},), BadIndex, "m must be at least 1"),
        (3, {3}, (), NotAPartition, r"zero support \[3\] outside 1..2"),
        (3, (), ({(0, 1)}, {(1, 0), (2, 0)}), NotAPartition,
         r"block values \[0\] outside 1..2"),
        (3, (), (set(), {(1, 0), (2, 0)}), NotAPartition, "empty block"),
        (3, {2}, (), NotAPartition, r"values covered \[2\] do not tile 1..2"),
    ])
    def test_colored_raise_sites(self, m, zeros, reps, error, message):
        with pytest.raises(error, match=message):
            GPartition(2, m, frozenset(zeros), tuple(map(frozenset, reps)))

    def test_float_values_rejected(self):
        with pytest.raises(TypeError):
            BPartition(2, frozenset({1.5}), (frozenset({2}),))
        with pytest.raises(TypeError):
            BPartition(2, frozenset(), (frozenset({1.0, 2}),))
        with pytest.raises(TypeError):
            GPartition(2, 3, frozenset(), (frozenset({(1, 0), (2.0, 1)}),))

    def test_repeated_absolute_value_rejected(self):
        with pytest.raises(RepeatedValueInBlock):
            BPartition(2, frozenset(), (frozenset({1, -1}), frozenset({2}),))

    def test_even_signed_rejects_single_zero_value(self):
        with pytest.raises(SingletonZeroBlock):
            DPartition(2, frozenset({1}), (frozenset({2}),))
        DPartition(2, frozenset({1, 2}), ())
        DPartition(2, frozenset(), (frozenset({1}), frozenset({2})))

    def test_text_rendering(self):
        p = BPartition(3, frozenset({2}), (frozenset({1, -3}),))
        assert p.text() == "{-2,0,2} {-3,1} {-1,3}"
        assert BPartition(1, frozenset({1}), ()).text() == "{-1,0,1}"

    def test_colored_partition_anchoring(self):
        p = GPartition(2, 3, frozenset(), (frozenset({(1, 1), (2, 2)}),))
        # anchor shifts the minimum value to color 0
        assert p.orbit_reps == (frozenset({(1, 0), (2, 1)}),)
        assert p.r == 1

    def test_colored_partition_value_injectivity(self):
        with pytest.raises(RepeatedValueInBlock):
            GPartition(1, 4, frozenset(), (frozenset({(1, 0), (1, 2)}),))

    def test_colored_text(self):
        p = GPartition(2, 3, frozenset({2}), (frozenset({(1, 0)}),))
        assert p.text() == "{0,2^0,2^1,2^2} {1^0}"


class TestEnumeration:
    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", range(5))
    def test_signed_counts_match_rows(self, kind, n):
        row = stirling_row(kind, n)
        for r in range(n + 1):
            parts = enumerate_partitions(kind, n, r)
            assert len(parts) == row[r]
            assert len(set(parts)) == len(parts)

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", range(5))
    def test_signed_enumeration_matches_raw_filter(self, kind, n):
        for r in range(n + 1):
            assert len(enumerate_partitions(kind, n, r)) == oracles.mirror_partition_count(
                n, r, kind
            )
        # the same block families, each once, with the marker 0 left out
        families = [frozenset({b - {0} for b in p.blocks()} - {frozenset()})
                    for p in enumerate_partitions(kind, n)]
        assert len(set(families)) == len(families)
        assert set(families) == set(map(frozenset, oracles.mirror_partitions(n, kind)))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
    def test_colored_counts_match_rows(self, n, m):
        row = stirling_row("G", n, m)
        for r in range(n + 1):
            parts = enumerate_partitions("G", n, r, m)
            assert len(parts) == row[r]

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 4)])
    def test_colored_enumeration_matches_raw_filter(self, n, m):
        for r in range(n + 1):
            assert len(enumerate_partitions("G", n, r, m)) == oracles.colored_partition_count(
                n, m, r
            )

    def test_all_ranks_when_r_omitted(self):
        parts = enumerate_partitions("B", 3)
        assert len(parts) == sum(stirling_row("B", 3))
        keys = [p.sort_key() for p in parts]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_blocks_tile_the_ground_set_under_negation(self, kind):
        ground = frozenset(range(-4, 5))
        for p in enumerate_partitions(kind, 4):
            blocks = p.blocks()
            assert 0 in blocks[0] and sum(map(len, blocks)) == len(ground)
            assert frozenset().union(*blocks) == ground
            assert {frozenset(-v for v in b) for b in blocks} == set(blocks)

    def test_classical_set_partitions_counts(self):
        for n in range(7):
            parts = list(classical_set_partitions(range(1, n + 1)))
            assert len(parts) == sum(stirling_row("A", n))

    def test_classical_set_partitions_sequence(self):
        # restricted growth strings in lexicographic order: each item joins
        # the earlier blocks in turn, then opens a block of its own
        assert list(classical_set_partitions("abc")) == [
            (frozenset("abc"),),
            (frozenset("ab"), frozenset("c")),
            (frozenset("ac"), frozenset("b")),
            (frozenset("a"), frozenset("bc")),
            (frozenset("a"), frozenset("b"), frozenset("c")),
        ]
        for k in range(7):
            items = "abcdef"[:k]
            growth = [
                g for g in product(range(k), repeat=k)
                if all(g[i] <= max(g[:i], default=-1) + 1 for i in range(k))
            ]
            expect = [
                tuple(
                    frozenset(a for a, j in zip(items, g) if j == block)
                    for block in range(max(g, default=-1) + 1)
                )
                for g in growth
            ]
            assert list(classical_set_partitions(items)) == expect


@pytest.mark.parametrize("call, error, message", [
    (lambda: stirling_row("B", -1), BadIndex, "n must be nonnegative"),
    (lambda: flag_stirling_row(-1), BadIndex, "n must be nonnegative"),
    (lambda: GPartition(1, 0, frozenset(), (frozenset({(1, 0)}),)), BadIndex,
     "m must be at least 1"),
    (lambda: enumerate_partitions("A", 2), UnknownKind,
     "unknown partition kind 'A'"),
    (lambda: enumerate_partitions("B", -1), BadIndex, "n must be nonnegative"),
    (lambda: free_point_count("B", -1, 3), BadIndex, "n must be nonnegative"),
    (lambda: _weights("C"), UnknownKind, "unknown kind 'C'"),
    # off the row too, not only inside it
    (lambda: stirling("C", 3, 5), UnknownKind, "unknown kind 'C'"),
    (lambda: stirling("G", 3, 5, 0), BadIndex, "kind G needs m >= 1"),
    # and below row 0
    (lambda: stirling("Z", -1, 0), UnknownKind, "unknown kind 'Z'"),
    (lambda: stirling("G", -1, 0, m=0), BadIndex, "kind G needs m >= 1"),
], ids=["stirling_row", "flag_stirling_row", "colors", "enumerate", "enumerate_size",
        "free_point_count", "weights", "stirling_kind", "stirling_colors",
        "stirling_negative_kind", "stirling_negative_colors"])
def test_bad_arguments_raise_typed_errors(call, error, message):
    # both classes are ValueErrors, so the CLI exit codes stay as they were
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error and issubclass(error, ValueError)


def test_non_integer_sizes_are_refused_and_bools_stored_as_int():
    for call in (
        lambda: stirling_row("D", 3.0),
        lambda: stirling("B", 2.0, 1),
        lambda: stirling("B", 3, 4.5),
        lambda: stirling("B", -1, 0.5),
        lambda: eulerian("B", 3, 10.5),
        lambda: eulerian("B", 3, 2.0),
        lambda: d_unreachable_count(0.5, 2),
        lambda: d_unreachable_count(3, 0.5),
        lambda: enumerate_partitions("B", 3, 2.5),
        lambda: enumerate_partitions("B", 2, 1.0),
    ):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            call()
    assert stirling_row("D", True) == stirling_row("D", 1) == (0, 1)
    assert stirling("B", 3, True) == stirling("B", 3, 1) == 13
    assert eulerian("B", 3, True) == eulerian("B", 3, 1) == 23
    assert enumerate_partitions("B", 2, True) == enumerate_partitions("B", 2, 1)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        BPartition(2.0, frozenset({1, 2}), ())
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        GPartition(1.0, 2, frozenset({1}), ())
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        GPartition(1, 2.0, frozenset({1}), ())
    p = BPartition(True, frozenset(), (frozenset({1}),))
    assert p == BPartition(1, frozenset(), (frozenset({1}),))
    assert type(p.n) is int and p.text() == "{0} {1} {-1}"
    g = GPartition(True, True, frozenset({1}), ())
    assert (type(g.n), type(g.m)) == (int, int)


# ---------------------------------------------------------------------------
# the accept pass against the block-by-block reference


MAKERS = {"B": BPartition, "D": DPartition, "G": GPartition}


def _reference(kind, args):
    if kind == "G":
        return oracles.colored_partition_reference(*args)
    return oracles.signed_partition_reference(kind, *args)


def _fields(p):
    if isinstance(p, GPartition):
        return p.n, p.m, p.zero_support, p.orbit_reps
    return p.n, p.zero_support, p.pair_reps


def assert_constructs_like_reference(kind, args):
    """The constructor gives the reference's fields, with exact types, or
    raises the reference's error class with its message."""
    try:
        expected = _reference(kind, args)
    except (ValueError, TypeError) as err:
        with pytest.raises(type(err)) as got:
            MAKERS[kind](*args)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        return
    fields = _fields(MAKERS[kind](*args))
    assert fields == expected
    *sizes, zs, reps = fields
    assert all(type(v) is int for v in sizes)
    assert type(zs) is frozenset and type(reps) is tuple
    assert all(type(b) is frozenset for b in reps)


def _flip(block, kind, m):
    """The block read from its other sign, or shifted one color."""
    if kind == "G":
        return [(a, (z + 1) % m) for a, z in block]
    return [-v for v in block]


@st.composite
def block_families(draw):
    """(kind, args) from a canonical partition, each block a list, then up
    to two mutations: some keep the partition and only break canonical form
    (a block flipped or recolored, a color past m, two blocks swapped, lists
    or sets for frozensets, a list for the tuple); the rest may break a rule
    (an empty block, a 0 added or put for a spot, a zero support spot put
    below 1, a value out of range, a block dropped or doubled,
    a repeated magnitude, a spot in both the zero support and a block, True
    for 1, a float for an int, n off by one, n or m a bool or a float, m 0).
    A zero support of one spot makes kind D invalid."""
    kind = draw(st.sampled_from("BDG"))
    n = draw(st.integers(0, 5))
    m = colors = draw(st.integers(1, 4)) if kind == "G" else 2
    labels = draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
    zs = [a for a, c in zip(range(1, n + 1), labels) if c < 0]
    classes: dict = {}
    for a, c in zip(range(1, n + 1), labels):
        if c >= 0:
            classes.setdefault(c, []).append(a)
    blocks = []
    for c in sorted(classes.values()):
        tints = [0] + draw(st.lists(st.integers(0, m - 1), min_size=len(c) - 1,
                                    max_size=len(c) - 1))
        if kind == "G":
            blocks.append(list(zip(c, tints)))
        else:
            blocks.append([-a if z else a for a, z in zip(c, tints)])
    container = frozenset
    reps_type = tuple
    for _ in range(draw(st.integers(0, 2))):
        rule = draw(st.sampled_from((
            "flip", "color_past_m", "swap", "set_blocks", "list_blocks",
            "list_reps", "set_zeros", "empty", "zero", "zero_for_spot",
            "zero_support_off", "out_of_range", "drop",
            "double", "repeat", "overlap", "bool", "float", "n_off", "n_bool",
            "n_float", "m_zero", "m_bool", "m_float",
        )))
        i = draw(st.integers(0, max(len(blocks) - 1, 0)))
        if rule == "flip" and blocks:
            blocks[i] = _flip(blocks[i], kind, colors)
        elif rule == "color_past_m" and blocks and blocks[i] and kind == "G":
            a, z = blocks[i][0]
            blocks[i][0] = (a, z + colors)
        elif rule == "swap" and len(blocks) > 1:
            blocks[0], blocks[-1] = blocks[-1], blocks[0]
        elif rule == "set_blocks":
            container = set
        elif rule == "list_blocks":
            container = list
        elif rule == "list_reps":
            reps_type = list
        elif rule == "set_zeros":
            zs = set(zs)
        elif rule == "empty":
            blocks.insert(i, [])
        elif rule == "zero":
            blocks.append([(0, 0)] if kind == "G" else [0])
        elif rule == "zero_for_spot" and blocks and blocks[i]:
            a = blocks[i][-1]
            blocks[i][-1] = (0, a[1]) if kind == "G" else 0
        elif rule == "zero_support_off" and zs:
            zs = type(zs)([draw(st.sampled_from((0, -1))), *sorted(zs)[1:]])
        elif rule == "out_of_range":
            blocks.append([(n + 1, 0)] if kind == "G" else [-n - 1])
        elif rule == "drop" and blocks:
            del blocks[i]
        elif rule == "double" and blocks:
            blocks.append(_flip(blocks[i], kind, colors))
        elif rule == "repeat" and blocks and blocks[i]:
            blocks[i] = blocks[i] + [_flip(blocks[i], kind, colors)[0]]
        elif rule == "overlap" and blocks and blocks[i]:
            v = blocks[i][0]
            zs = [*zs, v[0] if kind == "G" else abs(v)]
        elif rule == "bool" and blocks and blocks[i]:
            a = blocks[i][0]
            blocks[i][0] = (True, a[1]) if kind == "G" else True
        elif rule == "float" and blocks and blocks[i]:
            a = blocks[i][-1]
            blocks[i][-1] = (a[0], a[1] + 0.0) if kind == "G" else a + 0.0
        elif rule == "n_off":
            n += draw(st.sampled_from((-1, 1)))
        elif rule == "n_bool" and n in (0, 1):
            n = bool(n)
        elif rule == "n_float":
            n = float(n)
        elif rule == "m_zero" and kind == "G":
            m = 0
        elif rule == "m_bool" and kind == "G" and m == 1:
            m = True
        elif rule == "m_float" and kind == "G":
            m = float(m)
    zero_support = zs if isinstance(zs, set) else frozenset(zs)
    reps = reps_type(map(container, blocks))
    if kind == "G":
        return kind, (n, m, zero_support, reps)
    return kind, (n, zero_support, reps)


class TestAcceptPassAgainstReference:
    @pytest.mark.parametrize("kind, args", [
        ("B", (0, frozenset(), ())),
        ("B", (2, frozenset({1, 2}), ())),
        ("D", (2, frozenset({1}), (frozenset({2}),))),
        ("D", (2, frozenset(), (frozenset({1}), frozenset({2})))),
        ("B", (3, frozenset({2}), (frozenset({-1, 3}),))),
        ("B", (3, frozenset(), (frozenset({3}), frozenset({1, 2})))),
        ("B", (2, frozenset({1}), (frozenset({True}),))),
        ("B", (2, frozenset({True}), (frozenset({2}),))),
        ("B", (1, frozenset(), (frozenset({1.0}),))),
        ("B", (2, frozenset({2}), (frozenset({-2}),))),
        ("B", (3, frozenset(), (frozenset({1, -2}), frozenset({2, 3})))),
        ("B", (2, frozenset(), (frozenset({1, 2}), frozenset({1, 2})))),
        ("B", (-1, frozenset(), ())),
        ("B", (1, frozenset(), (frozenset({0}),))),
        ("B", (1, frozenset({-1}), ())),
        ("G", (1, 2, frozenset({0}), ())),
        ("G", (1, 2, frozenset(), (frozenset({(0, 0)}),))),
        ("G", (2, 3, frozenset(), (frozenset({(1, 1), (2, 2)}),))),
        ("G", (2, 3, frozenset(), (frozenset({(1, 0), (2, 5)}),))),
        ("G", (2, 3, frozenset(), (frozenset({(1, 0)}), frozenset({(1, 1)})))),
        ("G", (1, 3, frozenset(), (frozenset({(1, 0), (1, 1)}),))),
        ("G", (2, 2, frozenset({1}), (frozenset({(1, 0), (2, 0)}),))),
        ("G", (1, 2, frozenset(), (frozenset({(1, 0, 0)}),))),
        ("G", (1, 2, frozenset(), (frozenset({(1, -1)}),))),
        ("G", (0, 1, frozenset(), ())),
        # one union of the zero support and the blocks: the zero support
        # holding a block's spot, its negative, 0 or a negative spot; a
        # lead found only in the zero support; sizes that add up while a
        # magnitude or value repeats
        ("B", (2, frozenset({1}), (frozenset({1}),))),
        ("B", (2, frozenset({1}), (frozenset({-1}),))),
        ("B", (1, frozenset({0}), ())),
        ("B", (2, frozenset({0}), (frozenset({2}),))),
        ("B", (2, frozenset({-1}), (frozenset({2}),))),
        ("B", (3, frozenset({1}), (frozenset({-1, 3}),))),
        ("B", (3, frozenset({2}), (frozenset({3}), frozenset({-2, 1})))),
        ("B", (2, frozenset(), (frozenset({1, -1}),))),
        ("B", (2, frozenset(), (frozenset({1}), frozenset({-1})))),
        ("B", (3, frozenset({1, 2}), (frozenset({-2}),))),
        ("G", (2, 2, frozenset({1}), (frozenset({(1, 0)}),))),
        ("G", (2, 2, frozenset({0}), (frozenset({(2, 0)}),))),
        ("G", (2, 2, frozenset({-1}), (frozenset({(2, 0)}),))),
        ("G", (2, 2, frozenset(), (frozenset({(1, 0), (1, 1)}),))),
        ("G", (3, 2, frozenset({3}), (frozenset({(1, 0)}), frozenset({(1, 1)})))),
    ])
    def test_each_rule(self, kind, args):
        assert_constructs_like_reference(kind, args)

    @settings(max_examples=400)
    @given(block_families())
    def test_same_fields_or_same_error(self, case):
        assert_constructs_like_reference(*case)


def _refuse_slow_paths(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"per-block checks ran on {args}")

    monkeypatch.setattr(partitions, "_canonical_pairs", refuse)
    monkeypatch.setattr(partitions, "_canonical_orbits", refuse)


class TestAcceptingPass:
    """The partitions the library builds never reach the per-block checks:
    those only canonicalize foreign input or name its fault."""

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n, m", [(0, 1), (1, 2), (2, 2), (3, 2), (4, 2), (2, 4)])
    def test_cube_classes(self, kind, n, m, monkeypatch):
        _refuse_slow_paths(monkeypatch)
        built = 0
        for point in product(range(-m, m + 1), repeat=n):
            try:
                classify_point(kind, point)
            except SingletonZeroBlock:
                continue
            built += 1
        assert built > 0

    @pytest.mark.parametrize("n, m, t", [(0, 2, 1), (2, 1, 3), (3, 2, 2), (3, 3, 2), (2, 4, 2)])
    def test_torus_classes(self, n, m, t, monkeypatch):
        circle = [ZERO] + [(z, i) for z in range(-1, m + 1) for i in range(1, t + 1)]
        _refuse_slow_paths(monkeypatch)
        for point in product(circle, repeat=n):
            classify_point("G", point, m=m)

    @pytest.mark.parametrize("call", [
        lambda: census("B", 5, 2), lambda: census("D", 4, 3),
        lambda: torus_census(4, 3, 2), lambda: torus_census(3, 4, 3),
    ], ids=["B-5-2", "D-4-3", "G-4-3-2", "G-3-4-3"])
    def test_census_readings(self, call, monkeypatch):
        # a key's classes grown from its parent's are canonical as they are
        geometry._reading.cache_clear()
        _refuse_slow_paths(monkeypatch)
        assert call().counts

    @pytest.mark.parametrize("kind, n, m", [
        ("B", 5, 2), ("D", 5, 2), ("G", 4, 1), ("G", 4, 2), ("G", 3, 4),
    ])
    def test_enumerated_partitions(self, kind, n, m, monkeypatch):
        _refuse_slow_paths(monkeypatch)
        assert len(enumerate_partitions(kind, n, m=m)) == sum(stirling_row(kind, n, m))

    def test_slow_path_still_canonicalizes(self, monkeypatch):
        _refuse_slow_paths(monkeypatch)
        with pytest.raises(AssertionError, match="per-block checks ran"):
            BPartition(1, frozenset(), (frozenset({-1}),))
        with pytest.raises(AssertionError, match="per-block checks ran"):
            GPartition(1, 2, frozenset(), (frozenset({(1, 1)}),))

