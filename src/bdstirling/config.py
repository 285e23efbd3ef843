"""Caps on the exhaustive enumerations, the size rule, and each kind's weights."""
from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import BadIndex, SizeOverflow, UnknownKind


@dataclass(frozen=True)
class EnumerationCaps:
    """Hard limits on how many objects a single call may walk.

    signed_group bounds |B_n|, |D_n| and |S_n| streams (default |B_8|),
    colored_group bounds |G_{m,n}| streams, census_points bounds the x^n
    points a census counts, x read as at least 2 (it walks keys, not points).
    """

    signed_group: int = 2**8 * 40320
    colored_group: int = 10**7
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


def _check_group_cap(kind: str, order: int, caps: EnumerationCaps) -> None:
    """Refuse to walk a group of this order when it passes the kind's cap.

    Colored groups answer to colored_group; S_n, B_n and D_n to signed_group.
    """
    cap = caps.colored_group if kind == "G" else caps.signed_group
    if order > cap:
        raise SizeOverflow(f"group of order {order} exceeds cap {cap}")
