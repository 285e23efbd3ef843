"""Exact integer polynomials and the falling-factorial bases.

A polynomial is its coefficients and its value at x, nothing more.
Coefficients are stored ascending by degree with trailing zeros stripped,
so the zero polynomial is the empty tuple and equality is structural.
Every coefficient must be an exact integer (``operator.index``); a float
raises ``TypeError`` instead of being truncated.

A falling-factorial basis is built one linear factor at a time: the
degree-(k + 1) member is the degree-k member times (x - root_k), one
pass over plain coefficient tuples (``_times_linear``).  So a whole basis
p_0..p_kmax costs O(kmax^2) integer steps, and the identity reports build
each basis once.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index, sub

from .config import _weights
from .errors import BadIndex

__all__ = ["IntPolynomial", "monomial", "falling_factorial"]


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(map(index, self.coeffs))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value


def monomial(k: int) -> IntPolynomial:
    if k < 0:
        raise BadIndex("negative monomial degree")
    return IntPolynomial((0,) * k + (1,))


def _times_linear(coeffs: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Ascending coefficients of coeffs(x) * (x - c), in one pass."""
    return tuple(map(sub, (0, *coeffs), (*(c * v for v in coeffs), 0)))


def falling_factorial(
    kind: str, k: int, n: int | None = None, m: int | None = None
) -> IntPolynomial:
    """Degree-k basis polynomial for the requested kind.

    The roots step by the kind's weights (a, b): b, b + a, ..., b + (k-1)a.
    classical: x(x-1)...(x-k+1).  B: (x-1)(x-3)...(x-2k+1).  D: as B for
    k < n, while k = n swaps the last factor (x-2n+1) for (x-n+1); needs
    n and 0 <= k <= n.  G: (x-1)(x-1-m)...(x-1-(k-1)m); needs m >= 1.
    Every kind gives 1 at k = 0.
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
    coeffs = (1,)
    for root in roots:
        coeffs = _times_linear(coeffs, root)
    return IntPolynomial(coeffs)
