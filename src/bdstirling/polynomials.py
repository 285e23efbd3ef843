"""The falling-factorial bases, each given by its roots.

_roots is the one rule for the roots of a kind's degree-k member p_k.
falling_factorial multiplies the factors (x - root) out into ascending
integer coefficients, a plain tuple, one at a time (_times_linear), so a
whole basis p_0..p_kmax costs O(kmax^2) integer steps; _value_at takes
p_k(x) as the product itself, with no coefficients built.
"""
from __future__ import annotations

from functools import reduce
from math import prod
from operator import index, sub

from .config import _weights
from .errors import BadIndex

__all__ = ["falling_factorial"]


def _roots(kind: str, k: int, n: int | None = None, m: int | None = None) -> list[int]:
    """Roots of the degree-k basis member for the requested kind.

    The roots step by the kind's weights (a, b): b, b + a, ..., b + (k-1)a.
    classical: 0, 1, ..., k-1.  B: 1, 3, ..., 2k-1.  D: as B for k < n,
    while k = n > 0 swaps the last root 2n-1 for n-1; needs n and
    0 <= k <= n.  G: 1, 1+m, ..., 1+(k-1)m; needs m >= 1.  k = 0 has none.
    """
    if k < 0:
        raise BadIndex("negative falling factorial index")
    a, b = _weights("A" if kind == "classical" else kind, m)
    roots = [b + a * i for i in range(k)]
    if kind == "D":
        if n is None:
            raise BadIndex("kind D needs n")
        n = index(n)
        if k > n:
            raise BadIndex(f"kind D is only defined for k <= n, got k={k} n={n}")
        if k == n > 0:
            roots[-1] = n - 1
    return roots


def _times_linear(coeffs: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Ascending coefficients of coeffs(x) * (x - c), in one pass."""
    return tuple(map(sub, (0, *coeffs), (*(c * v for v in coeffs), 0)))


def falling_factorial(
    kind: str, k: int, n: int | None = None, m: int | None = None
) -> tuple[int, ...]:
    """Ascending coefficients of the product of (x - root) over _roots; (1,) at k = 0."""
    return reduce(_times_linear, _roots(kind, k, n, m), (1,))


def _value_at(x: int, kind: str, k: int, n: int | None = None, m: int | None = None) -> int:
    """p_k(x) for the requested kind, as the product of (x - root)."""
    return prod(x - root for root in _roots(kind, k, n, m))
