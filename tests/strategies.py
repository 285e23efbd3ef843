"""Hypothesis strategies shared across the suite."""

from hypothesis import strategies as st

from bdstirling.groups import ColoredPermutation, SignedPermutation


@st.composite
def signed_windows(draw, min_n=1, max_n=6, even=False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    if even and sum(1 for s in signs if s < 0) % 2 == 1:
        signs[0] = -signs[0]
    return tuple(s * v for s, v in zip(signs, perm))


@st.composite
def signed_perms(draw, min_n=1, max_n=6, even=False):
    return SignedPermutation(draw(signed_windows(min_n, max_n, even)))


@st.composite
def colored_perms(draw, min_n=1, max_n=5, max_m=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    perm = draw(st.permutations(list(range(1, n + 1))))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return ColoredPermutation(m, tuple(zip(perm, colors)))

