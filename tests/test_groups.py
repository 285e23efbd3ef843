import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdstirling.config import EnumerationCaps
from bdstirling.errors import (
    BadIndex,
    FlavorMismatch,
    NotAPermutation,
    OddNegativeCount,
    SizeOverflow,
    UnknownKind,
)
from bdstirling.groups import (
    ColoredPermutation,
    SignedPermutation,
    colored_from_signed,
    des_stat,
    descent_set,
    enumerate_group,
    fdes,
    group_order,
)

from . import oracles
from .strategies import colored_perms, signed_perms, signed_windows

S = SignedPermutation.from_text


class TestSignedPermutation:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SignedPermutation((2, 2))
        with pytest.raises(ValueError):
            SignedPermutation((1, 3))
        with pytest.raises(ValueError):
            SignedPermutation((0, 1))
        with pytest.raises(ValueError):
            SignedPermutation((1, -1))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            SignedPermutation((1.9, -2.7))
        with pytest.raises(TypeError):
            SignedPermutation((1.0, 2))

    def test_text_round_trip(self):
        beta = S("-2,3,5,1,-4")
        assert beta.window == (-2, 3, 5, 1, -4)
        assert beta.to_text() == "-2,3,5,1,-4"
        assert S(beta.to_text()) == beta

    def test_unicode_minus_normalized(self):
        assert S("−2,1").window == (-2, 1)

    def test_empty_window(self):
        assert S("").n == 0
        assert SignedPermutation(()).to_text() == ""

    @given(signed_perms())
    def test_round_trip_property(self, beta):
        assert S(beta.to_text()) == beta

    def test_even_signed_flag(self):
        assert S("-1,-2").is_even_signed()
        assert not S("-1,2").is_even_signed()
        assert SignedPermutation(()).is_even_signed()


class TestColoredPermutation:
    def test_color_range_checked(self):
        with pytest.raises(ValueError):
            ColoredPermutation(2, ((1, 2),))
        with pytest.raises(ValueError):
            ColoredPermutation(2, ((1, 0), (1, 1)))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            ColoredPermutation(3, ((1.2, 2.9),))
        with pytest.raises(TypeError):
            ColoredPermutation(3, ((1, 2.0),))
        with pytest.raises(TypeError):
            ColoredPermutation(2.5, ((1, 2),))
        g = ColoredPermutation(True, ((1, 0),))
        assert type(g.m) is int and g == ColoredPermutation(1, ((1, 0),))

    def test_order_key_sorts_high_colors_first(self):
        g = ColoredPermutation(3, ((1, 0), (2, 0)))
        keys = [g.order_key(a, z) for a in (1, 2) for z in (0, 1, 2)]
        # color 2 letters sort below color 1 below color 0
        assert g.order_key(1, 2) < g.order_key(2, 2) < g.order_key(1, 1)
        assert g.order_key(2, 1) < g.order_key(1, 0) < g.order_key(2, 0)
        assert len(set(keys)) == len(keys)

    def test_signed_view_uses_color_one_for_negatives(self):
        g = colored_from_signed(S("-2,1"))
        assert g.m == 2 and g.entries == ((2, 1), (1, 0))


class TestDescentSets:
    def test_flavor_b_examples(self):
        assert descent_set(S("-2,3,5,1,-4"), "B") == frozenset({0, 3, 4})
        assert descent_set(S("1,4,-5,-3,2"), "B") == frozenset({2})
        assert descent_set(S("1,-3,4,-5,-2,-6"), "B") == frozenset({1, 3, 5})

    def test_flavor_d_examples(self):
        assert descent_set(S("-1,3,4,-2,-6,-5"), "D") == frozenset({3, 4})
        assert descent_set(S("1,-3,4,-5,-2,-6"), "D") == frozenset({0, 1, 3, 5})

    def test_flavor_d_rejects_odd_signs(self):
        with pytest.raises(OddNegativeCount):
            descent_set(S("-1,2"), "D")

    def test_flavor_d_refusal_keeps_its_message(self):
        with pytest.raises(OddNegativeCount) as err:
            descent_set(S("3,-1,2,-5,-4,6"), "D")
        assert str(err.value) == "'3,-1,2,-5,-4,6' has an odd number of negative entries"

    def test_flavor_d_small_windows_have_no_gap_zero(self):
        assert descent_set(S("1"), "D") == frozenset()
        assert descent_set(SignedPermutation(()), "D") == frozenset()
        assert descent_set(S("-2,-1"), "D") == frozenset({0})

    def test_flavor_mismatch(self):
        g = ColoredPermutation(2, ((1, 0),))
        with pytest.raises(FlavorMismatch):
            descent_set(g, "B")
        with pytest.raises(FlavorMismatch):
            descent_set(S("1"), "G")

    @given(signed_perms())
    def test_flavor_a_vs_b_differ_only_at_gap_zero(self, beta):
        des_a = descent_set(beta, "A")
        des_b = descent_set(beta, "B")
        assert des_b - {0} == des_a
        assert (0 in des_b) == (beta.window[0] < 0)

    @given(signed_perms(min_n=2, even=True))
    def test_flavor_d_differs_from_b_only_at_gap_zero(self, gamma):
        delta = descent_set(gamma, "D") ^ descent_set(gamma, "B")
        assert delta <= {0}

    @given(signed_perms())
    def test_signed_descents_match_oracle(self, beta):
        assert descent_set(beta, "B") == oracles.descents_signed(beta.window, "B")

    @given(signed_perms(min_n=1, even=True))
    def test_even_signed_descents_match_oracle(self, gamma):
        assert descent_set(gamma, "D") == oracles.descents_signed(gamma.window, "D")

    @given(colored_perms())
    def test_colored_descents_match_oracle(self, g):
        assert des_stat(g, "desG") == oracles.descents_colored(g.entries, g.m)


class TestFlagStatistic:
    def test_small_values(self):
        assert fdes(S("1,2")) == 0
        assert fdes(S("-1,2")) == 1
        assert fdes(S("2,1")) == 2
        assert fdes(S("2,-1")) == 2
        assert fdes(S("-2,1")) == 1
        assert fdes(S("-2,-1"), order="color") == 3

    def test_natural_and_color_orders_disagree_pointwise(self):
        beta = S("-2,-1")
        assert fdes(beta, order="natural") == 1
        assert fdes(beta, order="color") == 3

    def test_orders_agree_in_distribution(self):
        for n in range(1, 5):
            hist_nat = {}
            hist_col = {}
            for beta in enumerate_group("B", n):
                hist_nat[fdes(beta)] = hist_nat.get(fdes(beta), 0) + 1
                k = fdes(beta, order="color")
                hist_col[k] = hist_col.get(k, 0) + 1
            assert hist_nat == hist_col

    def test_distribution_over_b2(self):
        hist = [0] * 4
        for beta in enumerate_group("B", 2):
            hist[fdes(beta)] += 1
        assert hist == [1, 3, 3, 1]

    @pytest.mark.parametrize("n", range(5))
    def test_des_stat_names_fdes(self, n):
        for beta in enumerate_group("B", n):
            assert des_stat(beta, "fdes") == fdes(beta)

    def test_two_colored_statistic_differs_from_signed_descents(self):
        beta = S("-2,-1")
        assert des_stat(beta, "desB") == 1
        assert des_stat(colored_from_signed(beta), "desG") == 2


class TestEnumeration:
    @pytest.mark.parametrize("kind,n", [("B", n) for n in range(5)] + [("D", n) for n in range(5)])
    def test_signed_groups_complete_and_duplicate_free(self, kind, n):
        seen = set(enumerate_group(kind, n))
        assert len(seen) == group_order(kind, n)
        oracle = oracles.signed_group(n) if kind == "B" else oracles.even_signed_group(n)
        assert {w for w in (b.window for b in seen)} == set(oracle)

    @pytest.mark.parametrize("n", range(7))
    def test_even_signed_group_is_b_filtered_by_a_counted_parity(self, n):
        even = [b for b in enumerate_group("B", n) if sum(1 for v in b.window if v < 0) % 2 == 0]
        assert list(enumerate_group("D", n)) == even
        assert all(type(b.negative_count) is int for b in even)

    @pytest.mark.parametrize("n,m", [(0, 2), (1, 3), (2, 3), (3, 2), (2, 4)])
    def test_colored_groups_complete_and_duplicate_free(self, n, m):
        seen = set(enumerate_group("G", n, m))
        assert len(seen) == group_order("G", n, m)
        assert {g.entries for g in seen} == set(oracles.colored_group(n, m))

    @pytest.mark.parametrize("kind, n, m", [
        ("B", 3, None), ("B", 5, None), ("D", 5, None), ("G", 2, 3), ("G", 3, 3), ("G", 4, 2),
    ])
    def test_streams_are_lexicographic(self, kind, n, m):
        # the docstring promises this order, and the roundtrip digest reads it
        windows = [g.entries if kind == "G" else g.window for g in enumerate_group(kind, n, m)]
        assert windows == sorted(windows)

    def test_cap_enforced(self):
        caps = EnumerationCaps(signed_group=10, colored_group=10, census_points=10)
        with pytest.raises(SizeOverflow):
            enumerate_group("B", 3, caps=caps)
        with pytest.raises(SizeOverflow):
            enumerate_group("G", 2, 4, caps=caps)
        assert len(list(enumerate_group("B", 1, caps=caps))) == 2

    def test_group_orders(self):
        assert [group_order("B", n) for n in range(5)] == [1, 2, 8, 48, 384]
        assert [group_order("D", n) for n in range(5)] == [1, 1, 4, 24, 192]
        assert group_order("G", 3, 3) == 162
        with pytest.raises(ValueError):
            group_order("G", 2)


@given(signed_windows(min_n=2, max_n=6))
def test_gap_zero_membership_tracks_leading_sign(window):
    beta = SignedPermutation(window)
    assert (0 in descent_set(beta, "B")) == (window[0] < 0)
    if beta.is_even_signed():
        assert (0 in descent_set(beta, "D")) == (window[0] + window[1] < 0)


@given(st.integers(0, 6))
def test_descent_statistic_total_is_group_order(n):
    total = sum(1 for _ in enumerate_group("B", n))
    assert total == group_order("B", n)


@pytest.mark.parametrize("call, error, message", [
    (lambda: descent_set(S("1,2"), "Q"), UnknownKind, "unknown descent flavor 'Q'"),
    (lambda: fdes(S("1,2"), "reverse"), UnknownKind, "unknown fdes order 'reverse'"),
    (lambda: des_stat(S("1,2"), "desQ"), UnknownKind, "unknown statistic 'desQ'"),
    (lambda: group_order("B", -1), BadIndex, "n must be nonnegative"),
    (lambda: enumerate_group("A", 2), UnknownKind, "unknown group kind 'A'"),
    (lambda: SignedPermutation((1, 3)), NotAPermutation,
     "window (1, 3) is not a signed permutation"),
    (lambda: S("1,x"), NotAPermutation, "cannot parse window text '1,x'"),
    (lambda: ColoredPermutation(0, ()), BadIndex, "m must be at least 1"),
    (lambda: ColoredPermutation(2, ((1, 0), (1, 1))), NotAPermutation,
     "values must form a permutation of 1..n"),
    (lambda: ColoredPermutation(2, ((1, 2),)), BadIndex,
     "colors must lie in 0..m-1"),
], ids=["descent_set", "fdes", "des_stat", "group_order", "enumerate_group",
        "window", "window_text", "colors_m", "values", "color_range"])
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
