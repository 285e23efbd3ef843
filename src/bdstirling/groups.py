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
from functools import partial
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
    "group_order",
    "enumerate_group",
]


_INT = frozenset({int})


@dataclass(frozen=True)
class SignedPermutation:
    """Element of B_n in window notation."""

    window: tuple[int, ...]

    def __post_init__(self):
        window = self.window
        if type(window) is not tuple or not _INT.issuperset(map(type, window)):
            window = tuple(map(index, window))
            object.__setattr__(self, "window", window)
        if sorted(map(abs, window)) != list(range(1, len(window) + 1)):
            raise NotAPermutation(f"window {window!r} is not a signed permutation")

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def negative_count(self) -> int:
        return sum(map((0).__gt__, self.window))

    def is_even_signed(self) -> bool:
        """True when the element lies in D_n."""
        return self.negative_count % 2 == 0

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        text = text.replace("−", "-").strip()
        if not text:
            return cls(())
        try:
            window = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise NotAPermutation(f"cannot parse window text {text!r}") from None
        return cls(window)

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
        object.__setattr__(self, "m", index(self.m))
        object.__setattr__(
            self, "entries", tuple((index(a), index(z)) for a, z in self.entries)
        )
        if self.m < 1:
            raise BadIndex("m must be at least 1")
        n = len(self.entries)
        if sorted(a for a, _ in self.entries) != list(range(1, n + 1)):
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
    w = element.window
    n = len(w)
    des = {i for i in range(1, n) if w[i - 1] > w[i]}
    if flavor == "B":
        if n and w[0] < 0:
            des.add(0)
    elif flavor == "D":
        if not element.is_even_signed():
            raise OddNegativeCount(
                f"{element.to_text()!r} has an odd number of negative entries"
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
        return _windows(n, letters, itemgetter(0), partial(ColoredPermutation, m))
    signed = _windows(n, [*range(-n, 0), *range(1, n + 1)], abs, SignedPermutation)
    return signed if kind == "B" else (b for b in signed if b.is_even_signed())


def _windows(n: int, letters: Sequence, value: Callable, make: Callable) -> Iterator:
    """make(window) for every window of n letters whose values are 1..n,
    each once, in lexicographic order: letters is sorted, and each prefix
    takes every letter in turn whose value it does not hold yet."""
    return _extend((), frozenset(range(1, n + 1)), letters, value, make)


def _extend(prefix: tuple, remaining: frozenset[int], letters, value, make):
    """The windows of _windows that start with prefix, remaining the values
    still to place; a module-level generator, so it leaves no cycle."""
    if not remaining:
        yield make(prefix)
        return
    for letter in letters:
        if (v := value(letter)) in remaining:
            yield from _extend(prefix + (letter,), remaining - {v}, letters, value, make)
