from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdstirling import geometry

from bdstirling.config import EnumerationCaps
from bdstirling.errors import (
    BadIndex,
    InvariantViolation,
    SingletonZeroBlock,
    SizeOverflow,
    UnknownKind,
)
from bdstirling.geometry import (
    ZERO,
    CensusResult,
    census,
    classify_point,
    free_point_count,
    missing_point_count,
    torus_census,
)
from bdstirling.partitions import BPartition, DPartition, stirling_row

from .children import run_child
from .oracles import census_by_points, child_keys_backward, falling_factorial_value


def _torus_circle(m, t):
    """The torus axis values in the census's index order: ZERO, then
    (color, magnitude) color-major."""
    return [ZERO] + [(z, i) for z in range(m) for i in range(1, t + 1)]


@pytest.fixture(autouse=True)
def cold_readings():
    """Each test starts with no shape read, whatever ran before it."""
    geometry._reading.cache_clear()
    yield
    geometry._reading.cache_clear()


class TestClassification:
    def test_zeros_become_support(self):
        p = classify_point("B", (0, 3, -3))
        assert p.zero_support == frozenset({1})
        assert p.pair_reps == (frozenset({2, -3}),)

    def test_sign_pattern_lands_in_spot_classes(self):
        p = classify_point("B", (2, -2, 1))
        assert p.zero_support == frozenset()
        # coordinates with equal magnitude share a class, signs carried over
        assert p.pair_reps == (frozenset({1, -2}), frozenset({3}))

    @pytest.mark.parametrize("kind, coords, m", [
        ("B", (1.5, -1.5), None),
        ("D", (0, 0, 2.0), None),
        ("G", ((1, "a"), (0, "a")), 2),
        ("G", (ZERO, (1, 1.5)), 3),
    ])
    def test_non_lattice_points_refused(self, kind, coords, m):
        with pytest.raises(TypeError):
            classify_point(kind, coords, m=m)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownKind, match="unknown classification kind 'C'"):
            classify_point("C", (1, 2))

    @pytest.mark.parametrize("m", [None, 0])
    def test_colored_needs_m(self, m):
        with pytest.raises(BadIndex, match="kind G needs m >= 1"):
            classify_point("G", (ZERO, (1, 1)), m=m)

    def test_torus_magnitude_zero_is_an_ordinary_class(self):
        p = classify_point("G", ((1, 0), ZERO, (2, 0), (0, 4)), m=3)
        assert p.zero_support == frozenset({2})
        assert p.orbit_reps == (frozenset({(1, 0), (3, 1)}), frozenset({(4, 0)}))

    def test_even_signed_single_zero_with_repeat_is_missing(self):
        with pytest.raises(SingletonZeroBlock):
            classify_point("D", (0, 3, 3))

    def test_even_signed_single_zero_all_distinct_classifies(self):
        p = classify_point("D", (0, 3, -1))
        assert p.zero_support == frozenset()
        assert p.r == 3

    def test_even_signed_two_zeros_form_support(self):
        p = classify_point("D", (0, 0, 5))
        assert p.zero_support == frozenset({1, 2})
        assert p.r == 1

    def test_colored_classification(self):
        p = classify_point("G", (ZERO, (2, 5), (1, 5)), m=3)
        assert p.zero_support == frozenset({1})
        assert p.r == 1
        q = classify_point("G", ((0, 1), (2, 4)), m=3)
        assert q.r == 2


class TestCubeCensus:
    def test_signed_counts_follow_rank(self):
        res = census("B", 2, 3)
        assert res.x == 7
        by_r = {}
        for part, cnt in res.counts.items():
            assert cnt == res.expected(part)
            by_r.setdefault(part.r, set()).add(cnt)
        assert by_r == {0: {1}, 1: {6}, 2: {24}}
        assert sum(res.counts.values()) == 49
        assert res.free == 24 and res.missing == 0

    def test_count_depends_only_on_rank(self):
        res = census("B", 3, 2)
        by_r = {}
        for part, cnt in res.counts.items():
            by_r.setdefault(part.r, set()).add(cnt)
        assert all(len(v) == 1 for v in by_r.values())

    def test_partition_multiplicities_match_rows(self):
        res = census("B", 3, 3)
        per_r = {}
        for part in res.counts:
            per_r[part.r] = per_r.get(part.r, 0) + 1
        assert tuple(per_r.get(r, 0) for r in range(4)) == stirling_row("B", 3)

    def test_even_signed_missing_points(self):
        res = census("D", 3, 3)
        assert res.missing == 36
        assert res.missing == missing_point_count(3, 7)
        assert sum(res.counts.values()) + res.missing == 343
        per_r = {}
        for part in res.counts:
            per_r[part.r] = per_r.get(part.r, 0) + 1
        assert tuple(per_r.get(r, 0) for r in range(4)) == stirling_row("D", 3)

    def test_even_signed_low_dimensions_lose_nothing(self):
        for n in (0, 1, 2):
            res = census("D", n, 2)
            assert res.missing == missing_point_count(n, 5) == 0
            assert sum(res.counts.values()) == 5**n

    def test_free_points(self):
        assert free_point_count("B", 2, 7) == 24
        assert free_point_count("D", 2, 7) == 36
        assert free_point_count("B", 1, 3) == 2
        assert free_point_count("B", 0, 1) == 1
        assert census("D", 2, 3).free == 36

    def test_unknown_kinds_rejected(self):
        with pytest.raises(UnknownKind, match="cube census kind must be B or D, got 'G'"):
            census("G", 2, 1)
        with pytest.raises(UnknownKind, match="unknown census kind 'A'"):
            free_point_count("A", 2, 3)
        # still a ValueError, so the CLI's exit code for them is unchanged
        assert issubclass(UnknownKind, ValueError)

    def test_free_point_parity_guard(self):
        with pytest.raises(BadIndex):
            free_point_count("B", 2, 6)

    def test_expected_uses_falling_factorials(self):
        res = census("B", 2, 3)
        for part, cnt in res.counts.items():
            assert cnt == falling_factorial_value(7, "B", part.r)

    def test_cap_enforced(self):
        tiny = EnumerationCaps(signed_group=10**6, census_points=10)
        with pytest.raises(SizeOverflow):
            census("B", 2, 3, caps=tiny)

    def test_cap_counts_two_values_on_the_one_value_axis(self):
        # m = 0 has one point, but it has n coordinates: 2**3 fits under
        # 10, 2**4 does not
        tiny = EnumerationCaps(signed_group=10**6, census_points=10)
        assert sum(census("B", 3, 0, caps=tiny).counts.values()) == 1
        with pytest.raises(SizeOverflow, match=r"1\*\*4 points exceeds cap 10"):
            census("D", 4, 0, caps=tiny)

    @pytest.mark.parametrize("args", [(2.0, 1), (2, 1.0)])
    def test_float_sizes_refused_even_when_cached(self, args):
        census("B", 2, 1)
        for kind in "BD":
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                census(kind, *args)

    def test_bool_sizes_stored_as_int(self):
        res = census("B", True, True)
        assert (type(res.n), res.n, res.x) == (int, 1, 3)
        _same_result(res, census("B", 1, 1))

    def test_negative_dimension_is_a_bad_index(self):
        with pytest.raises(BadIndex, match="n must be nonnegative"):
            census("B", -1, 2)
        # n is checked before the cap, which a negative n would pass
        tiny = EnumerationCaps(signed_group=1, census_points=1)
        with pytest.raises(BadIndex, match="n must be nonnegative"):
            census("D", -3, 2, caps=tiny)


class TestTorusCensus:
    def test_one_dimensional_circle(self):
        res = torus_census(1, 3, 5)
        assert res.x == 16
        assert sum(res.counts.values()) == 16
        assert res.free == 15
        zero_rank = [p for p in res.counts if p.r == 0]
        assert len(zero_rank) == 1 and res.counts[zero_rank[0]] == 1

    def test_two_dimensional_counts(self):
        res = torus_census(2, 3, 5)
        assert sum(res.counts.values()) == 256
        assert res.free == 180
        for part, cnt in res.counts.items():
            assert cnt == res.expected(part)
            assert cnt == falling_factorial_value(16, "G", part.r, m=3)

    def test_free_points_on_torus(self):
        assert free_point_count("G", 2, 16, m=3) == 180
        assert free_point_count("G", 1, 16, m=3) == 15
        with pytest.raises(BadIndex):
            free_point_count("G", 1, 17, m=3)

    def test_partition_multiplicities_match_rows(self):
        res = torus_census(2, 3, 2)
        per_r = {}
        for part in res.counts:
            per_r[part.r] = per_r.get(part.r, 0) + 1
        assert tuple(per_r.get(r, 0) for r in range(3)) == stirling_row("G", 2, 3)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(BadIndex):
            torus_census(1, 1, 5)
        with pytest.raises(BadIndex):
            torus_census(1, 3, 0)

    def test_cap_enforced(self):
        tiny = EnumerationCaps(signed_group=10**6, census_points=10)
        with pytest.raises(SizeOverflow):
            torus_census(2, 3, 5, caps=tiny)

    def test_negative_dimension_is_a_bad_index(self):
        with pytest.raises(BadIndex, match="n must be nonnegative"):
            torus_census(-2, 2, 1)

    @pytest.mark.parametrize("args", [(2.0, 2, 1), (2, 2.0, 1), (2, 2, 1.0)])
    def test_float_sizes_refused_even_when_cached(self, args):
        torus_census(2, 2, 1)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            torus_census(*args)

    def test_bool_sizes_stored_as_int(self):
        res = torus_census(True, 2, True)
        assert (type(res.n), res.n, res.x) == (int, 1, 3)
        _same_result(res, torus_census(1, 2, 1))


class TestBasisIdentitiesOnPoints:
    def test_signed_total_is_power(self):
        for n in range(4):
            for m in (1, 2):
                res = census("B", n, m)
                assert sum(res.counts.values()) == res.x**n

    def test_even_signed_missing_formula(self):
        for n in range(4):
            for m in (1, 2):
                res = census("D", n, m)
                assert res.missing == missing_point_count(n, res.x)

    def test_missing_value_at_frozen_size(self):
        assert missing_point_count(3, 7) == 3 * (6**2 - 6 * 4)
        assert missing_point_count(2, 7) == 0
        assert missing_point_count(0, 7) == 0

    def test_missing_count_refuses_a_negative_n(self):
        with pytest.raises(BadIndex, match=r"^n must be nonnegative$"):
            missing_point_count(-1, 5)


class TestClosedFormsTakeIntegers:
    """The closed-form counts read n and x as the censuses read their sizes:
    a float is refused, a bool counts as an int, the result is an int."""

    @pytest.mark.parametrize("call", [
        lambda: free_point_count("B", 2, 5.0),
        lambda: free_point_count("D", 2.0, 5),
        lambda: free_point_count("G", 2, 16.0, m=3),
        lambda: missing_point_count(3, 5.0),
        lambda: missing_point_count(3.0, 5),
    ])
    def test_a_float_is_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_a_bool_counts_as_an_int(self):
        assert type(free_point_count("B", True, 3)) is int
        assert free_point_count("B", True, 3) == free_point_count("B", 1, 3) == 2
        assert free_point_count("B", False, True) == free_point_count("B", 0, 1) == 1
        assert type(missing_point_count(True, 5)) is int
        assert missing_point_count(True, 5) == missing_point_count(1, 5) == 0


def _same_result(fast, slow):
    assert (fast.kind, fast.n, fast.x, fast.m) == (slow.kind, slow.n, slow.x, slow.m)
    assert fast.counts == slow.counts
    assert (fast.free, fast.missing) == (slow.free, slow.missing)


class TestKeyedTallyAgainstPointOracle:
    """The keyed tally equals classifying every point on its own."""

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(6))
    def test_cube(self, kind, n, m):
        _same_result(census(kind, n, m), census_by_points(kind, n, range(-m, m + 1)))

    @pytest.mark.parametrize("t", range(1, 4))
    @pytest.mark.parametrize("m", range(2, 5))
    @pytest.mark.parametrize("n", range(5))
    def test_torus(self, n, m, t):
        _same_result(torus_census(n, m, t), census_by_points("G", n, _torus_circle(m, t), m))

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n, m", [(2, 12), (3, 6)])
    def test_cube_with_a_wide_last_axis(self, kind, n, m):
        _same_result(census(kind, n, m), census_by_points(kind, n, range(-m, m + 1)))

    def test_torus_with_a_wide_last_axis(self):
        n, m, t = 3, 4, 3
        _same_result(torus_census(n, m, t), census_by_points("G", n, _torus_circle(m, t), m))

    def test_classifies_once_per_key_and_walks_every_point(self):
        calls = mock.patch.object(geometry, "_classes", wraps=geometry._classes)
        with calls as spy:
            res = census("B", 4, 5)
        # each key's reading grows from its parent's, and no point is read
        assert spy.call_count == 0
        # B keys are exactly the classes, one reading each, for 11**4 points
        kept, lone = geometry._reading(4, 5)
        assert len(kept) + len(lone) == len(res.counts) == 116
        assert sum(res.counts.values()) == 11**4

    @settings(max_examples=25)
    @given(st.one_of(
        st.tuples(st.sampled_from("BD"), st.integers(0, 5), st.integers(0, 4), st.none()),
        st.tuples(st.just("G"), st.integers(0, 4), st.integers(2, 4), st.integers(1, 3)),
    ))
    def test_small_shapes(self, shape):
        # each shape read cold and then warm: B then D and D then B on the
        # cube, twice on the torus
        _, n, m, t = shape
        if t is not None:
            runs = [[lambda: torus_census(n, m, t)] * 2]
            slow = {"G": census_by_points("G", n, _torus_circle(m, t), m)}
        else:
            runs = [[lambda k=k: census(k, n, m) for k in order]
                    for order in ("BD", "DB")]
            slow = {k: census_by_points(k, n, range(-m, m + 1)) for k in "BD"}
        for run in runs:
            geometry._reading.cache_clear()
            for call in run:
                fast = call()
                _same_result(fast, slow[fast.kind])

    @pytest.mark.parametrize("call", [
        lambda caps: census("B", 3, 2, caps=caps),
        lambda caps: census("D", 3, 2, caps=caps),
        lambda caps: torus_census(3, 2, 2, caps=caps),
    ])
    def test_cached_shape_still_meets_the_cap(self, call):
        call(EnumerationCaps())
        tiny = EnumerationCaps(signed_group=10**6, census_points=10)
        with pytest.raises(SizeOverflow, match=r"^census of 5\*\*3 points exceeds cap 10$"):
            call(tiny)

    def test_results_do_not_share_counts(self):
        first = census("B", 2, 1)
        expected = dict(first.counts)
        first.counts.clear()
        first.counts["stray"] = 9
        assert census("B", 2, 1).counts == expected
        assert census("D", 2, 1).counts is not census("D", 2, 1).counts

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3, 2)])
    def test_a_reading_keeps_each_distinct_class_once(self, shape):
        partitions, lone = geometry._reading(*shape)
        reps = "pair_reps" if len(shape) == 2 else "orbit_reps"
        readings = [(p.zero_support, getattr(p, reps)) for _, p in partitions]
        readings += [(zeros, classes) for _, zeros, classes in lone]
        kept = [c for zeros, classes in readings for c in (zeros, *classes)]
        assert len({id(c) for c in kept}) == len(set(kept)) < len(kept)

    def test_d_reuses_the_reading_of_b(self):
        calls = mock.patch.object(geometry, "_classes", wraps=geometry._classes)
        with calls as cold:
            census("B", 4, 3)
        assert cold.call_count == 0
        spies = [
            mock.patch.object(geometry, name, wraps=getattr(geometry, name))
            for name in ("_child_keys", "_classes")
        ]
        with spies[0] as child_keys, spies[1] as classes:
            res = census("D", 4, 3)
        assert (child_keys.call_count, classes.call_count) == (0, 0)
        _same_result(res, census_by_points("D", 4, range(-3, 4)))

    def test_walks_signatures_not_points(self):
        keys = mock.patch.object(geometry, "_child_keys", wraps=geometry._child_keys)
        with keys as child_keys:
            res = census("B", 4, 49)
        assert sum(res.counts.values()) == 99**4
        # one or two calls per state (62 here), not one per prefix or point
        assert child_keys.call_count < 100

    @pytest.mark.parametrize("n, m, t", [(4, 3, 2), (3, 2, 5), (3, 4, 3), (4, 4, 2)])
    def test_torus_classifies_once_per_class(self, n, m, t):
        calls = mock.patch.object(geometry, "_classes", wraps=geometry._classes)
        with calls as spy:
            res = torus_census(n, m, t)
        assert spy.call_count == 0
        # colors relate mod m, as the partitions read them: one key per class
        kept, lone = geometry._reading(n, m, t)
        assert (len(kept), lone) == (len(res.counts), ())
        assert sum(res.counts.values()) == (m * t + 1) ** n


class TestSharedPartitions:
    """A D census on a kept cube takes its plain keys' partitions from the
    B partitions the reading checked, and checks only lone-zero keys."""

    @pytest.mark.parametrize("order", ["BD", "DB", "D"])
    @pytest.mark.parametrize("n, m", [(3, 2), (4, 1), (4, 3), (5, 2)])
    def test_d_partitions_equal_constructed_ones(self, n, m, order):
        slow = {k: census_by_points(k, n, range(-m, m + 1)) for k in order}
        for kind in order:
            res = census(kind, n, m)
            _same_result(res, slow[kind])
            if kind == "D":
                for p in res.counts:
                    assert type(p) is DPartition
                    assert p == DPartition(n, p.zero_support, p.pair_reps)

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 3)])
    def test_d_after_b_checks_only_the_lone_zero_keys_that_fit(self, n, m):
        census("B", n, m)
        _, lone = geometry._reading(n, m)
        fits = sum(len(classes) == n - 1 for _, _, classes in lone)
        assert 0 < fits < len(lone)
        check = BPartition.__post_init__
        with mock.patch.object(BPartition, "__post_init__", autospec=True,
                               side_effect=check) as spy:
            res = census("D", n, m)
        assert spy.call_count == fits
        assert res.missing == missing_point_count(n, 2 * m + 1) > 0

    def test_cold_d_census_raises_no_singleton_zero_block(self):
        raised = []

        def spy(self, *args):
            raised.append(args)
            ValueError.__init__(self, *args)

        with mock.patch.object(SingletonZeroBlock, "__init__", spy):
            res = census("D", 4, 2)
            assert res.missing == missing_point_count(4, 5) > 0
            assert raised == []
            # classify_point reads the same rule and still raises
            with pytest.raises(SingletonZeroBlock, match="fits no even-signed"):
                classify_point("D", (0, 1, 1, 2))
        assert len(raised) == 1


class TestCensusNearTheCap:
    """The largest censuses the default cap allows, against the closed forms."""

    @pytest.mark.parametrize("result", [
        lambda: census("B", 4, 49),
        lambda: census("D", 6, 10),
        lambda: torus_census(5, 3, 12),
    ], ids=["B-4-49", "D-6-10", "G-5-3-12"])
    def test_counts_match_the_falling_factorials(self, result):
        res = result()
        assert res.x**res.n > 6 * 10**7
        for part, count in res.counts.items():
            assert count == res.expected(part)
        assert res.free == free_point_count(res.kind, res.n, res.x, res.m)
        missing = missing_point_count(res.n, res.x) if res.kind == "D" else 0
        assert res.missing == missing
        assert sum(res.counts.values()) + res.missing == res.x**res.n


def _census_key(point, magnitudes, relate):
    """The census key of a point (indices into the axis values): the key of
    the empty prefix, (), extended by each spot in turn."""
    key = ()
    for spot, v in enumerate(point):
        key = geometry._child_keys(point[:spot], key, magnitudes, relate)[v]
    return key


@lru_cache(maxsize=None)
def _points_by_key(kind, n, m, t):
    """The points of a small cube or torus (n >= 1) grouped by their census
    key, each group a tuple of points."""
    if kind == "G":
        circle, tables = _torus_circle(m, t), geometry._torus_axis(m, t)
    else:
        circle, tables = range(-m, m + 1), geometry._cube_axis(m)
    groups = {}
    for point in product(range(len(circle)), repeat=n):
        key = _census_key(point, *tables)
        groups.setdefault(key, []).append(tuple(circle[i] for i in point))
    return tuple(map(tuple, groups.values()))


def _classify_or_missing(kind, point, m):
    try:
        return classify_point(kind, point, m=m)
    except SingletonZeroBlock:
        return "missing"


@st.composite
def same_key_pairs(draw):
    kind = draw(st.sampled_from("BDG"))
    n = draw(st.integers(1, 4))
    if kind == "G":
        m, t = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    else:
        m, t = draw(st.integers(0, 3)), None
    group = draw(st.sampled_from(_points_by_key(kind, n, m, t)))
    colors = m if kind == "G" else None
    return kind, colors, draw(st.sampled_from(group)), draw(st.sampled_from(group))


class TestSignatureRefinesClassification:
    @given(same_key_pairs())
    def test_points_with_one_key_classify_alike(self, pair):
        kind, m, p, q = pair
        assert _classify_or_missing(kind, p, m) == _classify_or_missing(kind, q, m)

    @pytest.mark.parametrize("n, m, t", [(3, 2, None), (4, 1, None), (3, 2, 2), (2, 3, 3)])
    def test_each_key_reads_as_its_first_point(self, n, m, t):
        # the walk meets keys in the order their first points come in, so
        # each key's reading, grown from its parent's, is the classification
        # of its first point, signs and colors included, and not only a
        # partition of the same rank with the same count
        kind, colors = ("B", None) if t is None else ("G", m)
        firsts = [classify_point(kind, group[0], m=colors)
                  for group in _points_by_key(kind, n, m, t)]
        kept, lone = geometry._reading(n, m) if t is None else geometry._reading(n, m, t)
        apart = [kind == "B" and len(p.zero_support) == 1 for p in firsts]
        assert [p for _, p in kept] == [p for p, a in zip(firsts, apart) if not a]
        assert [(zeros, classes) for _, zeros, classes in lone] == [
            (p.zero_support, p.pair_reps) for p, a in zip(firsts, apart) if a]

    @pytest.mark.parametrize("n, m, t", [
        (4, 0, None), (4, 1, None), (4, 2, None), (4, 3, None), (3, 2, 2), (3, 3, 2),
    ])
    def test_child_keys_match_the_backward_oracle(self, n, m, t):
        # every prefix the walk keys the children of, up to n - 1 spots,
        # which holds every prefix of the smaller cubes
        tables = geometry._cube_axis(m) if t is None else geometry._torus_axis(m, t)
        width = len(tables[0])
        checked = 0
        for length in range(n):
            for prefix in product(range(width), repeat=length):
                assert geometry._child_keys(prefix, prefix, *tables) == \
                    child_keys_backward(prefix, prefix, *tables)
                checked += 1
        assert checked == sum(width**k for k in range(n))

    def test_no_zero_and_zero_at_first_spot_differ(self):
        # (1, 2) and (0, 1) share every magnitude class and sign; only the
        # zero flag of the class the first spot opens tells them apart
        circle, tables = range(-2, 3), geometry._cube_axis(2)
        no_zero, zero_first = (1, 2), (0, 1)
        keys = [_census_key(tuple(map(circle.index, p)), *tables)
                for p in (no_zero, zero_first)]
        assert keys[0][1:] == keys[1][1:]
        assert keys[0] != keys[1]
        assert classify_point("B", no_zero) != classify_point("B", zero_first)

    def test_no_zero_and_zero_at_last_spot_differ(self):
        # (1, 2) and (1, 0): the last value opens a class either way, and
        # only whether it vanishes tells them apart
        circle, tables = range(-2, 3), geometry._cube_axis(2)
        no_zero, zero_last = (1, 2), (1, 0)
        keys = [_census_key(tuple(map(circle.index, p)), *tables)
                for p in (no_zero, zero_last)]
        assert keys[0][:2] == keys[1][:2]
        assert keys[0] != keys[1]
        assert classify_point("B", no_zero) != classify_point("B", zero_last)


    def test_torus_colors_relate_mod_m(self):
        # colors 0 then 2 and colors 1 then 0 differ by 2 and by -1, one
        # relative color mod 3, so the two points share a key and a class
        circle, tables = _torus_circle(3, 1), geometry._torus_axis(3, 1)
        wrapped, rotated = ((0, 1), (2, 1)), ((1, 1), (0, 1))
        keys = [_census_key(tuple(map(circle.index, p)), *tables)
                for p in (wrapped, rotated)]
        assert keys[0] == keys[1]
        assert classify_point("G", wrapped, m=3) == classify_point("G", rotated, m=3)


class TestCensusInvariant:
    LOSSY = "CensusResult('B', 2, 3, None, {'p': 8}, free=0)"
    # children that depend on more than a prefix's key, on the census of
    # B n = 3, m = 1: the keys of a last-axis prefix (length 2) differ on
    # every call, or a prefix starting with the axis's last value (1 on the
    # cube {-1, 0, 1}) hides its children's keys at every level, or every
    # key differs on every call, so that no two prefixes share a state; each
    # key drifts in its parent tag, and keeps the spot and relation the walk
    # grows a reading by
    DRIFTING = {
        "last-axis": (
            "import itertools\n"
            "from bdstirling import geometry\n"
            "calls = itertools.count()\n"
            "real = geometry._child_keys\n"
            "geometry._child_keys = lambda prefix, *args: [\n"
            "    ((tag, next(calls)), spot, relation)\n"
            "    for tag, spot, relation in real(prefix, *args)\n"
            "] if len(prefix) == 2 else real(prefix, *args)\n"
        ),
        "last-value": (
            "from bdstirling import geometry\n"
            "real = geometry._child_keys\n"
            "geometry._child_keys = lambda prefix, *args: [\n"
            "    ((tag, prefix[:1] == (2,)), spot, relation)\n"
            "    for tag, spot, relation in real(prefix, *args)]\n"
        ),
        "every-key": (
            "import itertools\n"
            "from bdstirling import geometry\n"
            "calls = itertools.count()\n"
            "real = geometry._child_keys\n"
            "geometry._child_keys = lambda *args: [\n"
            "    ((tag, next(calls)), spot, relation)\n"
            "    for tag, spot, relation in real(*args)]\n"
        ),
    }

    # the first state two prefixes reach whose children drift: the last
    # level's (-1, -1) and (1, 1), or the first level's (-1) and (1); with
    # no shared state, the walk reads a key per point, and points whose
    # partitions coincide are lost to the total check
    RAISED = {
        "last-axis": "census prefixes (0, 0) and (2, 2) share a signature but not its children",
        "last-value": "census prefixes (0,) and (2,) share a signature but not its children",
        "every-key": "census lost points: 20 != 3**3",
    }

    def _census_with(self, patched, optimize=False):
        # under -O this assert shows that asserts are off
        asserts_off = "assert False, 'asserts must be off'\n" if optimize else ""
        code = self.DRIFTING[patched] + asserts_off + (
            "from bdstirling.errors import InvariantViolation\n"
            "try:\n"
            "    geometry.census('B', 3, 1)\n"
            "except InvariantViolation as e:\n"
            "    print('raised:', e)\n"
        )
        res = run_child(code, optimize=optimize)
        assert res.returncode == 0, res.stderr
        assert res.stdout == f"raised: {self.RAISED[patched]}\n"

    @pytest.mark.parametrize("patched", sorted(DRIFTING))
    def test_drifting_children_raise(self, patched):
        self._census_with(patched)

    @pytest.mark.parametrize("patched", sorted(DRIFTING))
    def test_drifting_children_raise_under_optimize(self, patched):
        self._census_with(patched, optimize=True)

    def test_lost_point_raises(self):
        with pytest.raises(InvariantViolation):
            CensusResult("B", 2, 3, None, {"p": 8}, free=0)

    def test_lost_point_raises_under_optimize(self):
        code = (
            "from bdstirling.errors import InvariantViolation\n"
            "from bdstirling.geometry import CensusResult\n"
            "assert False, 'asserts must be off'\n"
            "try:\n"
            f"    {self.LOSSY}\n"
            "except InvariantViolation as e:\n"
            "    print('raised:', e)\n"
        )
        res = run_child(code, optimize=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "raised: census lost points: 8 != 3**2\n"
