import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdstirling import identities, polynomials
from bdstirling.errors import BadIndex
from bdstirling.geometry import census, free_point_count
from bdstirling.identities import verify_identity
from bdstirling.polynomials import falling_factorial

from . import oracles
from .oracles import falling_factorial_value, value_of

ints = st.integers(-30, 30)


class TestFallingFactorials:
    def test_classical(self):
        assert falling_factorial("classical", 0) == (1,)
        assert falling_factorial("classical", 3) == (0, 2, -3, 1)
        assert value_of(falling_factorial("classical", 3), 5) == 5 * 4 * 3

    def test_coefficients_are_a_plain_int_tuple(self):
        p = falling_factorial("G", 4, m=3)
        assert type(p) is tuple and all(type(c) is int for c in p)
        assert len(p) == 5 and p[-1] == 1

    def test_signed_steps_through_odd_numbers(self):
        p = falling_factorial("B", 3)
        assert p == (-15, 23, -9, 1)
        assert value_of(p, 7) == 6 * 4 * 2
        assert value_of(p, 1) == 0
        assert falling_factorial("B", 0) == (1,)

    def test_even_signed_needs_n(self):
        with pytest.raises(BadIndex, match="kind D needs n"):
            falling_factorial("D", 1)
        with pytest.raises(BadIndex, match="only defined for k <= n, got k=3 n=2"):
            falling_factorial("D", 3, n=2)

    def test_even_signed_final_step_shrinks(self):
        # below the top the factors match the signed kind
        assert falling_factorial("D", 2, n=3) == falling_factorial("B", 2)
        # at the top the last factor is x - n + 1 instead of x - 2n + 1
        p = falling_factorial("D", 3, n=3)
        assert p == (-6, 11, -6, 1)
        assert value_of(p, 7) == 6 * 4 * 5
        assert falling_factorial("D", 1, n=1) == (0, 1)

    def test_even_signed_empty_product(self):
        assert falling_factorial("D", 0, n=0) == (1,)
        assert falling_factorial("D", 0, n=2) == (1,)

    def test_colored_steps_by_m(self):
        p = falling_factorial("G", 2, m=3)
        assert value_of(p, 16) == 15 * 12
        assert falling_factorial("G", 1, m=5) == (-1, 1)
        with pytest.raises(BadIndex, match="kind G needs m >= 1"):
            falling_factorial("G", 2)

    def test_two_colors_match_signed(self):
        for k in range(5):
            assert falling_factorial("G", k, m=2) == falling_factorial("B", k)

    @given(
        st.sampled_from(["classical", "A", "B", "D", "G"]),
        st.integers(0, 12), st.integers(0, 2), st.integers(1, 5), ints,
    )
    def test_value_is_the_product_over_the_roots(self, kind, k, extra, m, x):
        n = k + extra  # extra = 0 is D's top member, the swapped factor
        expected = falling_factorial_value(x, kind, k, n, m)
        assert value_of(falling_factorial(kind, k, n=n, m=m), x) == expected
        assert polynomials._value_at(x, kind, k, n, m) == expected

    @given(
        st.sampled_from(["classical", "A", "B", "D", "G"]),
        st.integers(0, 12), st.integers(0, 2), st.integers(1, 5),
    )
    def test_roots_are_the_spelled_out_roots(self, kind, k, extra, m):
        n = k + extra
        roots = polynomials._roots(kind, k, n, m)
        assert roots == oracles.falling_factorial_roots(kind, k, n, m)
        assert all(value_of(falling_factorial(kind, k, n, m), r) == 0 for r in roots)

    def test_negative_index_rejected(self):
        with pytest.raises(BadIndex, match="negative falling factorial index"):
            falling_factorial("classical", -1)
        with pytest.raises(BadIndex, match="negative falling factorial index"):
            polynomials._value_at(3, "B", -1)


class TestOneRootRule:
    """D's top root is read from _roots alone: move it, and the basis
    identity, the free-point count and a census's expected count all move.
    The cube is {-2..2}^3, so x = 5 and a top partition has rank n = 3."""

    @pytest.fixture
    def moved_top_root(self, monkeypatch):
        real = polynomials._roots

        def moved(kind, k, n=None, m=None):
            roots = real(kind, k, n, m)
            if kind == "D" and k == n > 0:
                roots[-1] = 2 * n - 1
            return roots

        # where each consumer reads the rule: polynomials for the values,
        # identities for the basis reports
        monkeypatch.setattr(polynomials, "_roots", moved)
        monkeypatch.setattr(identities, "_roots", moved)

    def test_the_unpatched_rule_agrees(self):
        res = census("D", 3, 2)
        top = next(p for p in res.counts if p.r == 3)
        assert verify_identity("thm-5.3", nmax=5).passed
        assert free_point_count("D", 3, 5) == falling_factorial_value(5, "D", 3, 3)
        assert res.expected(top) == falling_factorial_value(5, "D", 3, 3)

    def test_moving_the_top_root_moves_every_consumer(self, moved_top_root):
        assert not verify_identity("thm-5.3", nmax=5).passed
        assert free_point_count("D", 3, 5) != falling_factorial_value(5, "D", 3, 3)
        res = census("D", 3, 2)
        top = next(p for p in res.counts if p.r == 3)
        assert res.expected(top) != falling_factorial_value(5, "D", 3, 3)
