import subprocess
import sys

import pytest

from bdstirling.config import EnumerationCaps
from bdstirling.errors import (
    BadIndex,
    DimensionMismatch,
    InvariantViolation,
    SingletonZeroBlock,
    SizeOverflow,
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
from bdstirling.partitions import stirling_row
from bdstirling.polynomials import falling_factorial


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

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            classify_point("B", (1, 2), n=3)

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
        p = classify_point("G", (ZERO, (2, 5), (1, 5)), m=3, n=3)
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

    def test_free_point_parity_guard(self):
        with pytest.raises(BadIndex):
            free_point_count("B", 2, 6)

    def test_expected_uses_falling_factorials(self):
        res = census("B", 2, 3)
        for part, cnt in res.counts.items():
            assert cnt == falling_factorial("B", part.r)(7)

    def test_cap_enforced(self):
        tiny = EnumerationCaps(signed_group=10**6, colored_group=10**6, census_points=10)
        with pytest.raises(SizeOverflow):
            census("B", 2, 3, caps=tiny)


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
            assert cnt == falling_factorial("G", part.r, m=3)(16)

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
        tiny = EnumerationCaps(signed_group=10**6, colored_group=10**6, census_points=10)
        with pytest.raises(SizeOverflow):
            torus_census(2, 3, 5, caps=tiny)


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


class TestCensusInvariant:
    LOSSY = "CensusResult('B', 2, 3, None, {'p': 8}, free=0)"

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
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == "raised: census lost points: 8 != 3**2\n"
