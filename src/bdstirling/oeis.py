"""Cross-checks of the Stirling triangles against OEIS b-files.

The triangles linearize row by row: entry (n, r) sits at flat index
n(n+1)/2 + r.  Packaged fixtures carry the first seven rows, so the check
runs offline; any other b-file is read from a path.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from math import isqrt

from .errors import MalformedBFile, UnknownKind
from .partitions import stirling_row

__all__ = [
    "SEQUENCES",
    "triangle_terms",
    "parse_bfile",
    "load_fixture",
    "compare",
    "OeisReport",
]

SEQUENCES = {
    "A039755": {"kind": "B", "fixture": "b039755.txt"},
    "A039760": {"kind": "D", "fixture": "b039760.txt"},
}


def triangle_terms(seq: str, rows: int) -> list[int]:
    """Flat prefix of the sequence covering triangle rows 0..rows."""
    kind = _entry(seq)["kind"]
    terms: list[int] = []
    for n in range(rows + 1):
        terms.extend(stirling_row(kind, n))
    return terms


def _entry(seq: str) -> dict:
    if seq not in SEQUENCES:
        raise UnknownKind(
            f"unknown sequence {seq!r}; known: {', '.join(sorted(SEQUENCES))}"
        )
    return SEQUENCES[seq]


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """(index, value) pairs from b-file text; '#' comments and blanks skipped."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedBFile(f"b-file line {lineno} is not 'index value': {line!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise MalformedBFile(
                f"b-file line {lineno} holds non-integers: {line!r}"
            ) from None
    return pairs


def load_fixture(seq: str, path: str | None = None) -> list[tuple[int, int]]:
    """Packaged fixture for seq, or the b-file at an explicit path."""
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return parse_bfile(fh.read())
    name = _entry(seq)["fixture"]
    text = (resources.files("bdstirling") / "data" / name).read_text("utf-8")
    return parse_bfile(text)


@dataclass(frozen=True)
class OeisReport:
    seq: str
    checked: int
    first_mismatch: tuple[int, int, int] | None  # (index, ours, reference)

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.first_mismatch is None


def compare(seq: str, reference: list[tuple[int, int]], rows: int = 12) -> OeisReport:
    """Compare our triangle prefix against reference (index, value) pairs.

    Only indices both sides cover are checked, so no row past the one that
    holds the reference's largest index is built; the report records the
    first disagreement by b-file index.
    """
    top = max((idx for idx, _ in reference if idx >= 0), default=-1)
    last = min(rows, (isqrt(8 * top + 1) - 1) // 2) if top >= 0 else -1
    ours = triangle_terms(seq, last)
    checked = 0
    first = None
    for idx, value in sorted(reference):
        if 0 <= idx < len(ours):
            checked += 1
            if ours[idx] != value and first is None:
                first = (idx, ours[idx], value)
    return OeisReport(seq, checked, first)
