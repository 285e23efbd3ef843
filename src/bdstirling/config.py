"""Caps on the exhaustive enumerations, the size rule, and each kind's weights."""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from operator import index

from .errors import BadIndex, SizeOverflow, UnknownKind

__all__ = ["DEFAULT_CAPS", "EnumerationCaps", "group_order"]


@dataclass(frozen=True)
class EnumerationCaps:
    """Hard limits on how many objects a single call may walk.

    signed_group bounds three units: the order of every group walked, S_n,
    B_n, D_n and G_{m,n} alike (default |B_8| = |G_{2,8}|); the coefficient
    products of a basis change, sum of (n + 1)(n + 2) / 2 over n <= nmax
    (nmax 393 at the default); and, at its default, the (n + 1)(n + 2) / 2
    Stirling triangle entries of rows 0..n that `tables stirling` builds
    (n 4542 at most).  It keeps its name because benchmark probes read it.
    census_points bounds the x^n points a census counts, x read as at least
    2 (it walks keys, not points).
    """

    signed_group: int = 2**8 * 40320
    census_points: int = 10**8


DEFAULT_CAPS = EnumerationCaps()


def _size(n, name: str = "n") -> int:
    """A size read as an int (a bool becomes one, a float is refused), and
    refused as a BadIndex when negative."""
    n = index(n)
    if n < 0:
        raise BadIndex(f"{name} must be nonnegative")
    return n


def _weights(kind: str, m: int | None = None) -> tuple[int, int]:
    """The weights (a, b) every count of a kind is built from.

    A new largest spot joins one of the r classes in any of a colors, or
    (b = 1) the zero block.  So Stirling rows grow by a r + b, falling
    factorials step through the roots b, b + a, b + 2a, ..., group orders
    are a^n n! (halved for D), and the Stirling-Eulerian identities weigh
    r classes by a^r r!.  Classical A is (1, 0), types B and D are (2, 1),
    m-colored G is (m, 1); type B is G at m = 2.  G's m is read as an int
    (a bool becomes one, a float is refused), so every count stays exact.
    """
    if kind == "A":
        return 1, 0
    if kind in ("B", "D"):
        return 2, 1
    if kind != "G":
        raise UnknownKind(f"unknown kind {kind!r}")
    if m is None or (m := index(m)) < 1:
        raise BadIndex("kind G needs m >= 1")
    return m, 1


def group_order(kind: str, n: int, m: int | None = None) -> int:
    """Order a^n n! of the group of a kind with weights (a, b), halved for D."""
    n = _size(n)
    a, _ = _weights(kind, m)
    order = a**n * factorial(n)
    return order // 2 if kind == "D" and n >= 1 else order


def _check_group_cap(kind: str, n: int, m: int | None, caps: EnumerationCaps) -> None:
    """Refuse to walk the group of a kind, n and m when its order passes the
    group cap.

    Every order a^n n! (halved for D) is at least n!, as a >= 1 and D's
    half is paid by a = 2, and n! >= 2^(n-1), as each of 2..n is at least
    2.  A cap of bit length L is below 2^L, so every n > L passes it: such
    an n is refused, once the kind and m are checked, without computing
    its order.
    """
    cap = caps.signed_group
    if (size := index(n)) > cap.bit_length():
        _weights(kind, m)
        raise SizeOverflow(f"group of order at least 2**{size - 1} exceeds cap {cap}")
    if (order := group_order(kind, n, m)) > cap:
        raise SizeOverflow(f"group of order {order} exceeds cap {cap}")
