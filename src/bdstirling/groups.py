"""Signed and colored permutations with their descent statistics.

Windows are 1-indexed: ``window[i - 1]`` is the image of ``i``.  Position 0
never appears in a window; it enters the type B and type D descent rules
only through the virtual values ``beta(0) = 0`` and ``gamma(0) = -gamma(2)``.

Colored entries are (value, color) pairs with colors taken mod m.  The
color order ranks ``a^[z]`` by ``(m - 1 - z) * n + (a - 1)``, so every
entry of color m-1 precedes every entry of color m-2 and so on, with
color 0 last and values increasing inside each color class.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import index, itemgetter
from typing import Callable, Iterator, Sequence

from .config import DEFAULT_CAPS, EnumerationCaps, _check_group_cap, group_order
from .errors import (
    BadIndex,
    FlavorMismatch,
    NotAPermutation,
    OddNegativeCount,
    UnknownKind,
)

__all__ = [
    "SignedPermutation",
    "ColoredPermutation",
    "colored_from_signed",
    "descent_set",
    "des_stat",
    "fdes",
    "enumerate_group",
]


_INT = frozenset({int})


@lru_cache(maxsize=16)
def _spots(n: int) -> frozenset[int]:
    """The spots 1..n, the one set every tiling test compares with, kept
    for the last 16 sizes asked for.  Each caller first ties n to the size
    of what it tests, so no huge n is ever built."""
    return frozenset(range(1, n + 1))


def _read_ints(text: str, fault: Callable[[str], Exception]) -> tuple[int, ...]:
    """Comma-separated ints, with U+2212 read as a minus sign; a blank text
    gives ().  A token that is no int raises fault(the stripped text)."""
    text = text.replace("−", "-").strip()
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise fault(text) from None


@dataclass(frozen=True)
class SignedPermutation:
    """Element of B_n in window notation.

    A window of length n is accepted when the set of its absolute values is
    the spot set 1..n (_spots): n entries with n distinct absolute values,
    none 0 and none past n.
    """

    window: tuple[int, ...]

    def __post_init__(self):
        window = self.window
        if type(window) is not tuple or not _INT.issuperset(map(type, window)):
            vars(self)["window"] = window = tuple(map(index, window))
        if set(map(abs, window)) != _spots(len(window)):
            raise NotAPermutation(f"window {window!r} is not a signed permutation")

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def negative_count(self) -> int:
        return sum(map((0).__gt__, self.window))

    def is_even_signed(self) -> bool:
        """True when the element lies in D_n."""
        return _even_signed(self.window)

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        return cls(_read_ints(
            text, lambda bad: NotAPermutation(f"cannot parse window text {bad!r}")
        ))

    def to_text(self) -> str:
        return ",".join(map(str, self.window))

    def __str__(self) -> str:
        return f"[{self.to_text()}]"


@dataclass(frozen=True)
class ColoredPermutation:
    """Element of G_{m,n}: a value permutation with a color mod m per spot.

    m and the entries are read as ints (a bool becomes one, a float is
    refused).
    """

    m: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # fields set one by one stay inline; vars() would add a dict to each
        object.__setattr__(self, "m", index(self.m))
        object.__setattr__(
            self, "entries", tuple((index(a), index(z)) for a, z in self.entries)
        )
        if self.m < 1:
            raise BadIndex("m must be at least 1")
        n = len(self.entries)
        if set(map(itemgetter(0), self.entries)) != _spots(n):
            raise NotAPermutation("values must form a permutation of 1..n")
        if any(not 0 <= z < self.m for _, z in self.entries):
            raise BadIndex("colors must lie in 0..m-1")

    @property
    def n(self) -> int:
        return len(self.entries)

    def order_key(self, value: int, color: int) -> int:
        """Rank of value^[color] in the color order (smaller comes first)."""
        return (self.m - 1 - color) * self.n + (value - 1)


def colored_from_signed(beta: SignedPermutation) -> ColoredPermutation:
    """View a signed permutation as 2-colored: negatives get color 1."""
    return ColoredPermutation(
        2, tuple((abs(v), 1 if v < 0 else 0) for v in beta.window)
    )


def descent_set(element, flavor: str) -> frozenset[int]:
    """Gap positions where the element descends under the given flavor.

    Flavor A compares window neighbors at gaps 1..n-1.  Flavor B adds gap 0
    with beta(0) = 0, so 0 is a descent exactly when beta(1) < 0.  Flavor D
    adds gap 0 with gamma(0) = -gamma(2), so 0 is a descent exactly when
    gamma(1) + gamma(2) < 0; it needs an even-signed input and, for n < 2,
    contributes no gap 0 descent.  Flavor G compares colored entries in the
    color order at gaps 1..n-1; the color-of-first-entry correction is the
    business of des_stat, not of the set.
    """
    if flavor == "G":
        if not isinstance(element, ColoredPermutation):
            raise FlavorMismatch("flavor G needs a ColoredPermutation")
        keys = [element.order_key(a, z) for a, z in element.entries]
        return frozenset(i for i in range(1, len(keys)) if keys[i - 1] > keys[i])
    if not isinstance(element, SignedPermutation):
        raise FlavorMismatch(f"flavor {flavor!r} needs a SignedPermutation")
    return _signed_descents(element.window, flavor)


@lru_cache(maxsize=8)
def _signed_descents(w: tuple[int, ...], flavor: str) -> frozenset[int]:
    """descent_set of a signed window, kept for the last 8 asked; a fault
    is raised on every call, as lru_cache stores no exception."""
    n = len(w)
    des = {i for i in range(1, n) if w[i - 1] > w[i]}
    if flavor == "B":
        if n and w[0] < 0:
            des.add(0)
    elif flavor == "D":
        if sum(map((0).__gt__, w)) % 2:
            raise OddNegativeCount(
                f"{','.join(map(str, w))!r} has an odd number of negative entries"
            )
        if n >= 2 and w[0] + w[1] < 0:
            des.add(0)
    elif flavor != "A":
        raise UnknownKind(f"unknown descent flavor {flavor!r}")
    return frozenset(des)


def fdes(beta: SignedPermutation) -> int:
    """Flag descents 2 * desA + eps, eps = 1 when the first entry is negative."""
    if not isinstance(beta, SignedPermutation):
        raise FlavorMismatch("fdes needs a SignedPermutation")
    eps = 1 if beta.n and beta.window[0] < 0 else 0
    return 2 * len(descent_set(beta, "A")) + eps


def des_stat(element, stat: str) -> int:
    """Descent statistic of a group element.

    desB and desD count the flavor B / D descent set of a signed
    permutation.  desG counts the flavor G set of a colored permutation
    plus 1 when the first entry has nonzero color.  fdes is the flag
    statistic of a signed permutation in the natural order.
    """
    if stat == "desB":
        return len(descent_set(element, "B"))
    if stat == "desD":
        return len(descent_set(element, "D"))
    if stat == "desG":
        if not isinstance(element, ColoredPermutation):
            raise FlavorMismatch("desG needs a ColoredPermutation")
        eps = 1 if element.entries and element.entries[0][1] != 0 else 0
        return len(descent_set(element, "G")) + eps
    if stat == "fdes":
        return fdes(element)
    raise UnknownKind(f"unknown statistic {stat!r}")


def enumerate_group(
    kind: str,
    n: int,
    m: int | None = None,
    caps: EnumerationCaps = DEFAULT_CAPS,
) -> Iterator:
    """Stream the whole group in lexicographic window order.

    Signed windows compare as integer tuples, colored windows as tuples of
    (value, color) pairs.  Raises SizeOverflow when the group order exceeds
    the configured cap.
    """
    if kind not in ("B", "D", "G"):
        raise UnknownKind(f"unknown group kind {kind!r}")
    _check_group_cap(kind, n, m, caps)
    if kind == "G":
        letters = [(a, z) for a in range(1, n + 1) for z in range(m)]
        return map(partial(ColoredPermutation, m), _windows(n, letters, itemgetter(0)))
    windows = _windows(n, [*range(-n, 0), *range(1, n + 1)], abs)
    if kind == "D":  # parity read on the raw window, before any is built
        windows = filter(_even_signed, windows)
    return map(SignedPermutation, windows)


def _even_signed(window: tuple[int, ...]) -> bool:
    return not sum(map((0).__gt__, window)) % 2


def _windows(n: int, letters: Sequence, value: Callable) -> Iterator[tuple]:
    """Every window of n letters whose values are 1..n, each once, in
    lexicographic order: letters is sorted, and each prefix takes every
    letter in turn whose value it does not hold yet."""
    return _extend((), frozenset(range(1, n + 1)), letters, value) if n else iter([()])


def _extend(prefix: tuple, remaining: frozenset[int], letters, value):
    """The windows of _windows that start with prefix, remaining the values
    still to place (at least one); the last letter is yielded here, one
    generator level short of the window.  A module-level generator, so it
    leaves no cycle."""
    last = len(remaining) == 1
    for letter in letters:
        if (v := value(letter)) in remaining:
            if last:
                yield prefix + (letter,)
            else:
                yield from _extend(prefix + (letter,), remaining - {v}, letters, value)
