import copy
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from itertools import chain, combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdstirling import bijections
from bdstirling.bijections import (
    OrderedPartition,
    b_procedure,
    b_procedure_inverse,
    d_procedure,
    d_procedure_inverse,
    d_unreachable,
    d_unreachable_count,
    free_gaps,
)
from bdstirling.errors import (
    BadIndex,
    InvalidOrderedPartition,
    InvariantViolation,
    MalformedDocument,
    NotAPartition,
    NotAPermutation,
    NotTypeD,
    RepeatedValueInBlock,
    SpotCollision,
    TooManySeparators,
    UnknownKind,
    UnreachableForm,
)
from bdstirling.groups import SignedPermutation, descent_set, enumerate_group
from bdstirling.partitions import enumerate_partitions, stirling

from .oracles import (
    blocks_from_cut_window,
    ordered_partition_reference,
    ordered_to_unordered,
    slid_blocks,
)
from .strategies import signed_perms

S = SignedPermutation.from_text


def fs(*values):
    return frozenset(values)


def ordered_forms(kind, n, r):
    """All ordered shapes of the rank-r partitions: choose a pair order and
    a leading representative per pair."""
    for part in enumerate_partitions(kind, n, r):
        for order in permutations(part.pair_reps):
            for signs in product((1, -1), repeat=len(order)):
                blocks = []
                if part.zero_support:
                    blocks.append(
                        frozenset(part.zero_support)
                        | frozenset(-v for v in part.zero_support)
                    )
                for rep, s in zip(order, signs):
                    first = frozenset(s * v for v in rep)
                    blocks.append(first)
                    blocks.append(frozenset(-v for v in first))
                yield OrderedPartition(kind, n, tuple(blocks))


class TestOrderedPartition:
    def test_blocks_pair_up(self):
        op = OrderedPartition("B", 2, (fs(1, -1), fs(2), fs(-2)))
        assert op.zero_support == fs(1)
        assert op.class_blocks == (fs(2),)
        assert op.r == 1

    def test_mirror_must_be_adjacent(self):
        with pytest.raises(InvalidOrderedPartition):
            OrderedPartition("B", 2, (fs(1), fs(2), fs(-1), fs(-2)))

    def test_dangling_class(self):
        with pytest.raises(InvalidOrderedPartition):
            OrderedPartition("B", 1, (fs(1),))

    def test_float_values_rejected(self):
        with pytest.raises(TypeError):
            OrderedPartition("B", 2, ({1.5, 2.2}, {-1.5, -2.2}))

    def test_single_zero_value_fails_kind_d(self):
        OrderedPartition("B", 1, (fs(1, -1),))
        with pytest.raises(NotTypeD):
            OrderedPartition("D", 1, (fs(1, -1),))

    def test_doc_round_trip(self):
        op = OrderedPartition("B", 3, (fs(2, -2), fs(1, -3), fs(-1, 3)))
        doc = op.to_doc()
        assert doc == {"kind": "B", "n": 3, "blocks": [[-2, 2], [-3, 1], [-1, 3]]}
        assert OrderedPartition.from_doc(doc) == op

    def test_doc_shape_errors(self):
        with pytest.raises(TypeError):
            OrderedPartition.from_doc({"kind": "B", "blocks": []})
        with pytest.raises(TypeError):
            OrderedPartition.from_doc({"kind": "B", "n": "2", "blocks": [[1], [-1]]})
        with pytest.raises(TypeError):
            OrderedPartition.from_doc({"kind": "B", "n": 2, "blocks": "nope"})

    def test_unordered_projection(self):
        op = OrderedPartition("B", 2, (fs(2), fs(-2), fs(1), fs(-1)))
        part = ordered_to_unordered(op)
        assert part.r == 2 and part.zero_support == frozenset()

    def test_immutable_and_picklable(self):
        op = d_procedure(S("-1,3,4,-2,-6,-5"), {1})
        for name in ("kind", "n", "zero_support", "class_blocks", "blocks", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(op, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(op, name)
        again = pickle.loads(pickle.dumps(op))
        assert again == op and again.to_doc() == op.to_doc()
        assert copy.deepcopy(op) == op

    @pytest.mark.parametrize("kind, n", [("B", -1), ("D", -2)])
    def test_negative_size_never_tiles(self, kind, n):
        with pytest.raises(NotAPartition, match=rf"spots covered \[\] do not tile 1\.\.{n}$"):
            OrderedPartition(kind, n, ())

    def test_huge_size_is_refused_without_building_its_spots(self):
        # VmHWM: the child's own peak, not the one ru_maxrss inherits
        code = (
            "from bdstirling.bijections import OrderedPartition\n"
            "from bdstirling.errors import NotAPartition\n"
            "try:\n"
            "    OrderedPartition('B', 10**7, ())\n"
            "except NotAPartition:\n"
            "    print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "               if line.startswith('VmHWM:')))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert int(res.stdout) < 100 * 1024  # KiB on Linux

    def test_derived_support_stays_out_of_identity(self):
        op = OrderedPartition("B", 2, (fs(1, -1), fs(2), fs(-2)))
        cut = b_procedure(S("1,2"), {1})
        assert cut == op and hash(cut) == hash(op)
        assert repr(op) == f"OrderedPartition(kind='B', n=2, blocks={op.blocks!r})"
        assert repr(cut) == repr(op)
        bare = OrderedPartition("B", 2, (fs(1), fs(-1), fs(2), fs(-2)))
        assert bare.zero_support == frozenset()
        assert bare.class_blocks == (fs(1), fs(2))


def ordered_docs(kind, n):
    """Every ordered partition of the kind as a document: each unordered
    partition in every pair order and every pair orientation, each block a
    sorted list."""
    docs = []
    for part in enumerate_partitions(kind, n):
        zero = sorted(part.zero_support | {-v for v in part.zero_support})
        for order in permutations(part.pair_reps):
            for signs in product((1, -1), repeat=len(order)):
                blocks = [zero] if zero else []
                for s, c in zip(signs, order):
                    blocks += [sorted(s * v for v in c), sorted(-s * v for v in c)]
                docs.append({"kind": kind, "n": n, "blocks": blocks})
    return docs


class TestOrderedPartitionPins:
    """What every B and D ordered partition with n <= 5 shows of itself:
    equality, hashing, repr, its document and its derived parts."""

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_every_ordered_partition(self, kind, n):
        docs = ordered_docs(kind, n)
        assert len(docs) == sum(
            2**r * factorial(r) * stirling(kind, n, r) for r in range(n + 1))
        seen = set()
        for doc in docs:
            blocks = tuple(map(frozenset, doc["blocks"]))
            op = OrderedPartition.from_doc(doc)
            assert repr(op) == f"OrderedPartition(kind={kind!r}, n={n}, blocks={blocks!r})"
            assert op.to_doc() == doc
            assert OrderedPartition.from_doc(op.to_doc()) == op
            # the same sets built in another order
            twin = OrderedPartition(
                kind, n, tuple(frozenset(sorted(b, reverse=True)) for b in blocks))
            assert twin == op and hash(twin) == hash(op) and not twin != op
            lead = blocks[0] if blocks else frozenset()
            zero = bool(lead) and lead == frozenset(-v for v in lead)
            assert bool(op.zero_support) is zero
            assert op.zero_support == frozenset(v for v in lead if zero and v > 0)
            assert type(op.zero_support) is frozenset
            assert op.class_blocks == blocks[zero::2]
            assert type(op.class_blocks) is tuple
            assert op.r == len(blocks[zero::2])
            seen.add(op)
        assert len(seen) == len(docs)

    def test_kind_and_size_take_part_in_equality(self):
        blocks = (fs(1), fs(-1), fs(2), fs(-2))
        op = OrderedPartition("B", 2, blocks)
        assert op != OrderedPartition("D", 2, blocks)
        assert op != OrderedPartition("B", 2, (fs(1, -1), fs(2), fs(-2)))
        assert op != OrderedPartition("B", 2, (fs(2), fs(-2), fs(1), fs(-1)))
        assert op != ("B", 2, blocks)

    def test_single_spot_window_is_not_type_d(self):
        with pytest.raises(NotTypeD) as info:
            d_procedure(S("1"))
        assert type(info.value) is NotTypeD
        assert str(info.value) == "zero support [1] has size 1"


MUTATIONS = ("empty", "zero", "range", "drop", "lose", "double", "flip",
             "repeat", "swap", "true", "float", "to_zero", "below")


@st.composite
def ordered_block_lists(draw):
    """(kind, n, blocks) from a valid ordered partition, each block a list,
    then up to two mutations that may break a rule: an empty block, a 0, a
    value out of range, a dropped block or pair, a doubled pair, one sign
    flipped, a repeated absolute value, two blocks swapped, True for 1, a
    float for an int, or a value replaced by 0 or by -n-1 (so 2n values
    remain).  A drawn zero support of one spot makes kind D invalid."""
    kind = draw(st.sampled_from(("B", "D")))
    n = draw(st.integers(0, 5))
    spots = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n))
    zero, rest = spots[:k], spots[k:]
    blocks = [sorted([*zero, *(-v for v in zero)])] if zero else []
    i = 0
    while i < len(rest):
        size = draw(st.integers(1, len(rest) - i))
        c = [v * draw(st.sampled_from((1, -1))) for v in rest[i : i + size]]
        blocks += [c, [-v for v in c]]
        i += size
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        at = draw(st.integers(0, len(blocks)))
        if mutation == "empty":
            blocks.insert(at, [])
            continue
        if not blocks:
            continue
        j = at % len(blocks)
        if mutation == "zero":
            blocks[j] = blocks[j] + [0]
        elif mutation == "range":
            blocks[j] = blocks[j] + [draw(st.sampled_from((n + 1, -n - 1)))]
        elif mutation == "drop":
            del blocks[j]
        elif mutation == "lose":
            del blocks[j : j + 2]
        elif mutation == "double":
            blocks += blocks[j : j + 2]
        elif mutation == "flip":
            blocks[j] = [-blocks[j][0]] + blocks[j][1:] if blocks[j] else [1]
        elif mutation == "repeat":
            blocks[j] = blocks[j] + [-blocks[j][0]] if blocks[j] else [1, -1]
        elif mutation == "swap":
            blocks[j], blocks[-1] = blocks[-1], blocks[j]
        elif not blocks[j]:
            continue
        elif mutation == "true":
            blocks[j] = [True if v == 1 else v for v in blocks[j]]
        elif mutation == "float":
            blocks[j] = [float(blocks[j][0])] + blocks[j][1:]
        elif mutation == "to_zero":
            blocks[j] = [0] + blocks[j][1:]
        else:
            blocks[j] = [-n - 1] + blocks[j][1:]
    return kind, n, blocks


raw_block_lists = st.tuples(
    st.sampled_from(("B", "D", "C")),
    st.integers(-1, 4),
    st.lists(
        st.lists(
            st.one_of(st.integers(-5, 5), st.sampled_from((True, 1.0))),
            max_size=4,
        ),
        max_size=6,
    ),
)


def assert_validates_like_reference(kind, n, blocks):
    """The blocks as a tuple of lists, of sets and of frozensets, and as a
    list of frozensets, all validate as the reference does: only a tuple of
    frozensets can pass the accepting pass, so the other forms always reach
    the ordered checks."""
    for given in (
        tuple(blocks),
        tuple(map(set, blocks)),
        tuple(map(frozenset, blocks)),
        list(map(frozenset, blocks)),
    ):
        try:
            expected = ordered_partition_reference(kind, n, given)
        except (ValueError, TypeError) as err:
            expected = err
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as got:
                OrderedPartition(kind, n, given)
            assert type(got.value) is type(expected)
            assert str(got.value) == str(expected)
        else:
            op = OrderedPartition(kind, n, given)
            got = op.blocks
            assert got == expected and type(got) is tuple
            assert all(type(b) is frozenset for b in got)
            assert op.n == n and type(op.n) is int


class TestValidatorAgainstReference:
    @pytest.mark.parametrize("kind, n, blocks", [
        ("C", 1, [[1], [-1]]),
        ("B", 1, [[], [1], [-1]]),
        ("B", 1, [[1, 0], [-1]]),
        ("B", 1, [[2], [-2]]),
        ("B", 1, [[-2], [2]]),
        ("B", 2, [[1], [-1], [2]]),
        ("B", 2, [[1, -1], [2, -2, 1], [-2, 2, -1]]),
        ("B", 2, [[1], [1], [2], [-2]]),
        ("B", 3, [[1], [-1], [1], [-1], [2], [-2]]),
        ("B", 2, [[1], [-1], [1], [-1], [2], [-2]]),
        ("B", 3, [[1], [-1]]),
        ("D", 2, [[1, -1], [2], [-2]]),
        ("D", 3, [[3, -3, 1, -1], [2], [-2]]),
        ("B", 0, []),
        ("B", -1, []),
        ("D", 3, [[-3, 1], [3, -1], [2], [-2]]),
        ("D", -2, []),
        ("B", 1, [[True], [-1]]),
        ("B", 2, [[True, -2], [-1, 2]]),
        ("B", 1, [[1.0], [-1]]),
        ("D", 2, [[2, -2, 1.0, -1]]),
        ("D", 0, []),
        ("B", 2, [[0, 1], [-1, 2]]),
        ("B", 2, [[1], [-1], [0], [2]]),
        ("B", 2, [[-3, 1], [3, -1]]),
        ("D", 2, [[2, -2], [-3], [1]]),
        ("D", 2, [[2, -2], [1], [-1]]),
        ("D", 3, [[3, -3], [1, -2], [-1, 2]]),
        ("B", 2, [[1], [-1], [2, -2]]),
        ("B", 2.0, [[1], [-1], [2], [-2]]),
        ("D", 2.0, []),
        ("B", True, [[1], [-1]]),
        ("D", False, []),
    ])
    def test_each_rule(self, kind, n, blocks):
        assert_validates_like_reference(kind, n, blocks)

    @settings(max_examples=400)
    @given(st.one_of(ordered_block_lists(), raw_block_lists))
    def test_same_blocks_or_same_error(self, case):
        assert_validates_like_reference(*case)

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_forward_outputs_rebuild_equal(self, kind, n):
        procedure = b_procedure if kind == "B" else d_procedure
        for g in enumerate_group(kind, n):
            gaps = sorted(free_gaps(g, kind))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    try:
                        op = procedure(g, art)
                    except NotTypeD:
                        assert kind == "D" and n == 1 and art == ()
                        continue
                    rebuilt = OrderedPartition(op.kind, op.n, op.blocks)
                    assert rebuilt == op and hash(rebuilt) == hash(op)
                    lead = op.blocks[0] if op.blocks else frozenset()
                    leads = bool(lead) and lead == frozenset(-v for v in lead)
                    assert bool(rebuilt.zero_support) == leads
                    assert rebuilt.zero_support == frozenset(
                        v for v in lead if leads and v > 0)
                    assert rebuilt.class_blocks == op.blocks[leads::2]
                    assert ordered_partition_reference(
                        op.kind, op.n, op.blocks) == op.blocks


def test_non_integer_n_is_refused_and_a_bool_is_stored_as_int():
    blocks = tuple(map(frozenset, ([1], [-1], [2], [-2])))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        OrderedPartition("B", 2.0, blocks)
    op = OrderedPartition("B", True, blocks[:2])
    assert op == OrderedPartition("B", 1, blocks[:2])
    assert type(op.n) is int and op.to_doc()["n"] == 1
    assert OrderedPartition.from_doc(op.to_doc()) == op
    with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
        d_unreachable_count(2.0, 1)


def _refuse_diagnosis(monkeypatch):
    def diagnosed(kind, n, blocks):
        raise AssertionError(f"ordered checks ran on {kind} {n} {blocks}")

    monkeypatch.setattr(bijections, "_diagnosed_blocks", diagnosed)


class TestAcceptingPass:
    """Valid input never reaches the ordered checks: they only name faults.

    n = 0 is left out: its empty partition is accepted by the ordered
    checks, as are blocks that are not a tuple of frozensets of ints.
    """

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_forward_outputs(self, kind, n, monkeypatch):
        procedure = b_procedure if kind == "B" else d_procedure
        elements = list(enumerate_group(kind, n))
        _refuse_diagnosis(monkeypatch)
        for g in elements:
            gaps = sorted(free_gaps(g, kind))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    if kind == "D" and n == 1 and not art:
                        continue  # zero support of size 1: not type D
                    procedure(g, art)

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ordered_documents(self, kind, n, monkeypatch):
        docs = [op.to_doc() for r in range(n + 1) for op in ordered_forms(kind, n, r)]
        assert len(docs) == sum(
            2**r * factorial(r) * stirling(kind, n, r) for r in range(n + 1))
        _refuse_diagnosis(monkeypatch)
        for doc in docs:
            assert OrderedPartition.from_doc(doc).to_doc() == doc


@pytest.mark.parametrize("call, error, message", [
    (lambda: OrderedPartition("C", 1, ()), UnknownKind,
     "unknown ordered partition kind 'C'"),
    (lambda: OrderedPartition.from_doc([]), MalformedDocument,
     "document must be an object"),
    (lambda: OrderedPartition.from_doc({"kind": "B", "blocks": []}),
     MalformedDocument, "document misses key 'n'"),
    (lambda: OrderedPartition.from_doc({"kind": 2, "n": 1, "blocks": []}),
     MalformedDocument, "kind must be a string"),
    (lambda: OrderedPartition.from_doc({"kind": "B", "n": "2", "blocks": []}),
     MalformedDocument, "n must be an integer"),
    (lambda: OrderedPartition.from_doc({"kind": "B", "n": 1, "blocks": [[1.0]]}),
     MalformedDocument, "blocks must be lists of integers"),
], ids=["kind", "not_object", "missing_key", "kind_type", "n_type", "blocks_type"])
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error


def test_typed_errors_keep_their_builtin_base():
    # cli._ERRORS maps TypeError to exit 2 and ValueError to exit 1
    assert issubclass(MalformedDocument, TypeError)
    for error in (UnknownKind, NotAPermutation, BadIndex):
        assert issubclass(error, ValueError)


class TestForward:
    def test_descents_only(self):
        op = b_procedure(S("-2,3,5,1,-4"))
        assert [sorted(b) for b in op.blocks] == [
            [-2, 3, 5], [-5, -3, 2], [1], [-1], [-4], [4]]

    def test_leading_segment_becomes_zero_block(self):
        op = b_procedure(S("2,3,5,-1,-4"))
        assert op.zero_support == fs(2, 3, 5)
        assert [sorted(b) for b in op.blocks[1:]] == [[-1], [1], [-4], [4]]

    def test_artificial_separator_added(self):
        op = b_procedure(S("1,4,-5,-3,2"), {0, 3})
        assert [sorted(b) for b in op.blocks] == [
            [1, 4], [-4, -1], [-5], [5], [-3, 2], [-2, 3]]

    def test_artificial_on_descent_collides(self):
        with pytest.raises(SpotCollision):
            b_procedure(S("2,1"), {1})

    @pytest.mark.parametrize("proc", [b_procedure, d_procedure])
    def test_float_separator_rejected(self, proc):
        with pytest.raises(TypeError):
            proc(S("1,2"), (1.9,))

    def test_separator_out_of_range(self):
        with pytest.raises(TooManySeparators):
            b_procedure(S("2,1"), {2})
        with pytest.raises(TooManySeparators):
            b_procedure(S("2,1"), {-1})

    def test_even_signed_switch(self):
        op = d_procedure(S("-1,3,4,-2,-6,-5"), {1})
        assert [sorted(b) for b in op.blocks] == [
            [1, 3, 4], [-4, -3, -1], [-2], [2], [-6, -5], [5, 6]]

    def test_even_signed_full_separation(self):
        op = d_procedure(S("1,2"), {0, 1})
        assert [sorted(b) for b in op.blocks] == [[1], [-1], [2], [-2]]

    def test_single_spot_rank_zero_is_not_type_d(self):
        with pytest.raises(NotTypeD):
            d_procedure(S("1"), set())

    def test_free_gaps_complement_descents(self):
        beta = S("1,4,-5,-3,2")
        assert free_gaps(beta, "B") == fs(0, 1, 3, 4)
        gamma = S("-1,3,4,-2,-6,-5")
        assert free_gaps(gamma, "D") == fs(0, 1, 2, 5)


class TestCutAgainstOracle:
    """The procedures' blocks equal those of the cut that builds every block
    and its mirror, for every element and every free-gap subset."""

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_blocks_match_oracle(self, kind, n):
        procedure, cut = {
            "B": (b_procedure, blocks_from_cut_window),
            "D": (d_procedure, slid_blocks),
        }[kind]
        for g in enumerate_group(kind, n):
            descents = descent_set(g, kind)
            gaps = sorted(free_gaps(g, kind))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    expected = cut(g.window, descents | frozenset(art))
                    try:
                        op = procedure(g, art)
                    except NotTypeD:
                        assert kind == "D" and n == 1 and not art
                        continue
                    assert op.blocks == expected and type(op.blocks) is tuple

    @pytest.mark.parametrize("cut, oracle", [
        (bijections._cut, blocks_from_cut_window),
        (bijections._slid_cut, slid_blocks),
    ], ids=["cut", "slid_cut"])
    def test_cut_matches_slicing_oracle_past_the_window(self, cut, oracle):
        # every separator set over gaps 0..n+1, so gaps n and n+1 lie past
        # the window; each separator gives one class, empty past the window
        rng = random.Random(27)
        windows = [g.window for n in range(1, 5) for g in enumerate_group("B", n)]
        for n in (5, 5, 5, 6, 6, 6):
            spots = rng.sample(range(1, n + 1), n)
            windows.append(tuple(v if rng.random() < 0.5 else -v for v in spots))
        for window in windows:
            gaps = range(len(window) + 2)
            for k in range(len(gaps) + 1):
                for separators in map(frozenset, combinations(gaps, k)):
                    support, classes = cut(window, separators)
                    expected = oracle(window, separators)
                    lead = len(expected) - 2 * len(separators)
                    zero = frozenset(v for v in chain(*expected[:lead]) if v > 0)
                    assert type(classes) is tuple
                    assert (support, classes) == (zero, expected[lead::2])

    def test_failed_cut_checks_raise_under_optimize(self):
        code = (
            "from bdstirling import bijections\n"
            "from bdstirling.bijections import b_procedure, d_procedure\n"
            "from bdstirling.groups import SignedPermutation\n"
            "assert False, 'asserts must be off'\n"
            "cut = bijections._cut\n"
            "patches = {\n"
            "    'lost': lambda w, s: (cut(w, s)[0], cut(w, s)[1][:-1]),\n"
            "    'repeated': lambda w, s: (frozenset(), (frozenset({2}), frozenset({1, -1}))),\n"
            "}\n"
            "for name, patch in patches.items():\n"
            "    bijections._cut = patch\n"
            "    for procedure in (b_procedure, d_procedure):\n"
            "        try:\n"
            "            procedure(SignedPermutation((1, 2)), {0, 1})\n"
            "        except ValueError as e:\n"
            "            print(name, type(e).__name__, e)\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == 2 * [
            "lost NotAPartition spots covered [1] do not tile 1..2"
        ] + 2 * [
            "repeated RepeatedValueInBlock block [-1, 1] repeats an absolute value"
        ]

    @pytest.mark.parametrize("classes, error", [
        ((fs(1),), NotAPartition),
        ((fs(2), fs(1, -1)), RepeatedValueInBlock),
        ((fs(2), frozenset()), NotAPartition),
        ((fs(2), fs(1, 3)), NotAPartition),
        ((fs(2), fs(-1)), None),
    ])
    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_failed_cut_raises_what_the_constructor_raises(
        self, kind, classes, error, monkeypatch
    ):
        monkeypatch.setattr(bijections, "_cut", lambda window, separators: (frozenset(), classes))
        blocks = tuple(chain.from_iterable((c, frozenset(-v for v in c)) for c in classes))
        procedure = b_procedure if kind == "B" else d_procedure
        if error is None:
            assert procedure(S("1,2"), {0, 1}) == OrderedPartition(kind, 2, blocks)
            return
        with pytest.raises(error) as got:
            procedure(S("1,2"), {0, 1})
        with pytest.raises(error) as expected:
            OrderedPartition(kind, 2, blocks)
        assert type(got.value) is type(expected.value) is error
        assert str(got.value) == str(expected.value)


class TestInverse:
    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_failed_round_trip_raises(self, kind, monkeypatch):
        op = OrderedPartition(kind, 2, (fs(1, -1, 2, -2),))
        other = (frozenset(), (fs(1), fs(2)))
        monkeypatch.setattr(bijections, "_cut", lambda window, separators: other)
        inverse = b_procedure_inverse if kind == "B" else d_procedure_inverse
        with pytest.raises(InvariantViolation, match="preimage maps to"):
            inverse(op)

    def test_failed_round_trip_raises_under_optimize(self):
        code = (
            "from bdstirling import bijections\n"
            "from bdstirling.bijections import (\n"
            "    OrderedPartition, b_procedure_inverse, d_procedure_inverse)\n"
            "from bdstirling.errors import InvariantViolation\n"
            "assert False, 'asserts must be off'\n"
            "bijections._cut = lambda window, separators: (frozenset(), ())\n"
            "for kind, inverse in (('B', b_procedure_inverse), ('D', d_procedure_inverse)):\n"
            "    try:\n"
            "        inverse(OrderedPartition(kind, 2, (frozenset({1, -1, 2, -2}),)))\n"
            "    except InvariantViolation as e:\n"
            "        print(kind, 'raised:', e)\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "".join(
            f"{kind} raised: preimage maps to {{'kind': '{kind}', 'n': 2, "
            f"'blocks': []}} instead of {{'kind': '{kind}', 'n': 2, "
            f"'blocks': [[-2, -1, 1, 2]]}}\n"
            for kind in "BD"
        )

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_preimage_equals_the_validated_window(self, kind, n):
        """The inverse builds its preimage without validating it; the
        validating constructor is the oracle."""
        inverse = b_procedure_inverse if kind == "B" else d_procedure_inverse
        for r in range(n + 1):
            for op in ordered_forms(kind, n, r):
                if kind == "D" and d_unreachable(op):
                    continue
                back, _ = inverse(op)
                checked = SignedPermutation(back.window)
                assert type(back) is SignedPermutation and type(back.window) is tuple
                assert back == checked and hash(back) == hash(checked)
                assert repr(back) == repr(checked)

    def test_recovers_window_and_artificial_spots(self):
        op = OrderedPartition(
            "B", 5, (fs(1, 4, -1, -4), fs(5), fs(-5), fs(-3, 2), fs(3, -2)))
        beta, spots = b_procedure_inverse(op)
        assert beta.to_text() == "1,4,5,-3,2"
        assert spots == fs(2)

    def test_even_signed_zero_block_case(self):
        op = OrderedPartition(
            "D", 5, (fs(1, 4, -1, -4), fs(3), fs(-3), fs(-5, 2), fs(5, -2)))
        gamma, spots = d_procedure_inverse(op)
        assert gamma.to_text() == "-1,4,3,-5,2"
        assert spots == frozenset()

    def test_even_signed_switch_case(self):
        op = OrderedPartition(
            "D", 5, (fs(-4, 3), fs(4, -3), fs(2), fs(-2), fs(-5, -1), fs(5, 1)))
        gamma, spots = d_procedure_inverse(op)
        assert gamma.to_text() == "4,3,2,-5,-1"
        assert spots == frozenset()

    def test_unreachable_form_raises_with_witness(self):
        op = OrderedPartition("D", 2, (fs(-1), fs(1), fs(2), fs(-2)))
        assert d_unreachable(op)
        with pytest.raises(UnreachableForm) as err:
            d_procedure_inverse(op)
        assert err.value.witness["blocks"] == [[-1], [1], [2], [-2]]

    def test_reachable_sibling_inverts(self):
        op = OrderedPartition("D", 2, (fs(1), fs(-1), fs(2), fs(-2)))
        gamma, spots = d_procedure_inverse(op)
        assert gamma.to_text() == "1,2" and spots == fs(0, 1)


class TestSweeps:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_procedure_is_bijective(self, n):
        seen = set()
        for beta in enumerate_group("B", n):
            gaps = sorted(free_gaps(beta, "B"))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    op = b_procedure(beta, art)
                    assert op not in seen
                    seen.add(op)
                    back, spots = b_procedure_inverse(op)
                    assert back == beta and spots == frozenset(art)
        per_r = {}
        for op in seen:
            per_r[op.r] = per_r.get(op.r, 0) + 1
        for r in range(n + 1):
            assert per_r.get(r, 0) == 2**r * factorial(r) * stirling("B", n, r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_images_cover_all_ordered_forms(self, n):
        seen = set()
        for beta in enumerate_group("B", n):
            gaps = sorted(free_gaps(beta, "B"))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    seen.add(b_procedure(beta, art))
        for r in range(n + 1):
            forms = set(ordered_forms("B", n, r))
            assert forms == {op for op in seen if op.r == r}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_even_signed_procedure_hits_reachable_forms_once(self, n):
        seen = set()
        for gamma in enumerate_group("D", n):
            gaps = sorted(free_gaps(gamma, "D"))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    try:
                        op = d_procedure(gamma, art)
                    except NotTypeD:
                        # the whole window as zero support only collides
                        # with the rank 0 ban at n = 1
                        assert n == 1 and art == ()
                        continue
                    assert op not in seen
                    seen.add(op)
                    back, spots = d_procedure_inverse(op)
                    assert back == gamma and spots == frozenset(art)
        for r in range(n + 1):
            miss = 0
            for form in ordered_forms("D", n, r):
                if form in seen:
                    assert not d_unreachable(form)
                else:
                    assert d_unreachable(form)
                    miss += 1
            assert miss == d_unreachable_count(n, r)
            total = 2**r * factorial(r) * stirling("D", n, r)
            assert sum(1 for op in seen if op.r == r) == total - miss

    def test_unreachable_count_formula(self):
        assert d_unreachable_count(1, 1) == 1
        assert d_unreachable_count(2, 1) == 0
        assert d_unreachable_count(2, 2) == 4
        assert d_unreachable_count(3, 2) == 12
        assert d_unreachable_count(3, 0) == 0
        assert d_unreachable_count(0, 1) == 0


@given(signed_perms(max_n=5), st.data())
def test_round_trip_property_signed(beta, data):
    gaps = sorted(free_gaps(beta, "B"))
    art = data.draw(st.sets(st.sampled_from(gaps)) if gaps else st.just(set()))
    op = b_procedure(beta, art)
    back, spots = b_procedure_inverse(op)
    assert back == beta and spots == frozenset(art)
    assert op.r == len(descent_set(beta, "B")) + len(art)


@given(signed_perms(min_n=2, max_n=5, even=True), st.data())
def test_round_trip_property_even_signed(gamma, data):
    gaps = sorted(free_gaps(gamma, "D"))
    art = data.draw(st.sets(st.sampled_from(gaps)) if gaps else st.just(set()))
    op = d_procedure(gamma, art)
    back, spots = d_procedure_inverse(op)
    assert back == gamma and spots == frozenset(art)
    assert op.r == len(descent_set(gamma, "D")) + len(art)
