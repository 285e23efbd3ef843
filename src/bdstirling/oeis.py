"""Cross-checks of the Stirling triangles against OEIS b-files.

The triangles linearize row by row: entry (n, r) sits at flat index
n(n+1)/2 + r.  Packaged fixtures carry the first seven rows so the check
runs offline; fetch mode pulls the live b-file, with the URL template
overridable through the BDSTIRLING_OEIS_URL environment variable for
hermetic tests (file:// URLs work).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources

from .errors import MalformedBFile, MalformedTemplate, UnknownSequence
from .partitions import stirling_row

__all__ = [
    "SEQUENCES",
    "triangle_terms",
    "parse_bfile",
    "load_fixture",
    "fetch_bfile",
    "compare",
    "OeisReport",
]

SEQUENCES = {
    "A039755": {"kind": "B", "fixture": "b039755.txt"},
    "A039760": {"kind": "D", "fixture": "b039760.txt"},
}

DEFAULT_URL_TEMPLATE = "https://oeis.org/{seq}/b{num}.txt"
URL_ENV_VAR = "BDSTIRLING_OEIS_URL"


def triangle_terms(seq: str, rows: int) -> list[int]:
    """Flat prefix of the sequence covering triangle rows 0..rows."""
    kind = _entry(seq)["kind"]
    terms: list[int] = []
    for n in range(rows + 1):
        terms.extend(stirling_row(kind, n))
    return terms


def _entry(seq: str) -> dict:
    if seq not in SEQUENCES:
        raise UnknownSequence(
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


def fetch_bfile(seq: str, timeout: float = 30.0) -> list[tuple[int, int]]:
    """Fetch and parse the live b-file; raises OSError on transport failure
    and MalformedTemplate (a TypeError) when the URL template is malformed."""
    _entry(seq)
    template = os.environ.get(URL_ENV_VAR, DEFAULT_URL_TEMPLATE)
    try:
        url = template.format(seq=seq, num=seq[1:])
    except (LookupError, AttributeError, ValueError) as e:
        raise MalformedTemplate(
            f"{URL_ENV_VAR} {template!r} takes only {{seq}} and {{num}}: {e!r}"
        ) from None
    import urllib.request  # only --fetch needs it; at top level every start pays
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
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

    Only indices both sides cover are checked; the report records the
    first disagreement by b-file index.
    """
    ours = triangle_terms(seq, rows)
    checked = 0
    first = None
    for idx, value in sorted(reference):
        if 0 <= idx < len(ours):
            checked += 1
            if ours[idx] != value and first is None:
                first = (idx, ours[idx], value)
    return OeisReport(seq, checked, first)
