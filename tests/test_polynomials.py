from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bdstirling.errors import BadIndex
from bdstirling.polynomials import ONE, ZERO, IntPolynomial, falling_factorial, monomial

from . import oracles
from .strategies import small_polys

ints = st.integers(-30, 30)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0,)).coeffs == ()
        assert IntPolynomial(()).degree == -1

    def test_basic_arithmetic(self):
        p = IntPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p) == ZERO
        assert (p + ONE).coeffs == (2, 1)
        assert (3 * p).coeffs == (3, 3)
        assert (p ** 3).coeffs == (1, 3, 3, 1)
        assert IntPolynomial((0, 1))(5) == 5 and ONE(12) == 1 and ZERO(7) == 0

    def test_monomial(self):
        assert monomial(0) == ONE
        assert monomial(3).coeffs == (0, 0, 0, 1)

    def test_rendering(self):
        assert str(IntPolynomial((-1, 0, 2))) == "2x^2 - 1"
        assert str(ZERO) == "0"

    @given(small_polys, small_polys, ints)
    def test_addition_commutes_with_evaluation(self, a, b, x):
        pa, pb = IntPolynomial(a), IntPolynomial(b)
        assert (pa + pb)(x) == pa(x) + pb(x)

    @given(small_polys, small_polys, ints)
    def test_multiplication_commutes_with_evaluation(self, a, b, x):
        pa, pb = IntPolynomial(a), IntPolynomial(b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    @given(small_polys, ints)
    def test_horner_matches_naive_evaluation(self, a, x):
        p = IntPolynomial(a)
        assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))

    @pytest.mark.parametrize("coeffs", [(0.5, 1.5), (1, 2.0), ("1",)])
    def test_inexact_coefficients_rejected(self, coeffs):
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)


class TestFallingFactorials:
    def test_classical(self):
        assert falling_factorial("classical", 0) == ONE
        assert falling_factorial("classical", 3).coeffs == (0, 2, -3, 1)
        assert falling_factorial("classical", 3)(5) == 5 * 4 * 3

    def test_signed_steps_through_odd_numbers(self):
        p = falling_factorial("B", 3)
        assert p(7) == 6 * 4 * 2
        assert p(1) == 0
        assert falling_factorial("B", 0) == ONE

    def test_even_signed_needs_n(self):
        with pytest.raises(BadIndex):
            falling_factorial("D", 1)
        with pytest.raises(BadIndex):
            falling_factorial("D", 3, n=2)

    def test_even_signed_final_step_shrinks(self):
        # below the top the factors match the signed kind
        assert falling_factorial("D", 2, n=3) == falling_factorial("B", 2)
        # at the top the last factor is x - n + 1 instead of x - 2n + 1
        p = falling_factorial("D", 3, n=3)
        assert p(7) == 6 * 4 * 5
        assert falling_factorial("D", 1, n=1)(7) == 7

    def test_even_signed_empty_product(self):
        assert falling_factorial("D", 0, n=0) == ONE
        assert falling_factorial("D", 0, n=2) == ONE

    def test_colored_steps_by_m(self):
        p = falling_factorial("G", 2, m=3)
        assert p(16) == 15 * 12
        assert falling_factorial("G", 1, m=5)(11) == 10
        with pytest.raises(BadIndex):
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
        roots = oracles.falling_factorial_roots(kind, k, n, m)
        assert falling_factorial(kind, k, n=n, m=m)(x) == prod(x - r for r in roots)

    def test_negative_index_rejected(self):
        with pytest.raises(BadIndex):
            falling_factorial("classical", -1)
