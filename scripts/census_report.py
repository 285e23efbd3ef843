#!/usr/bin/env python3
"""Print small lattice point censuses (the signed cube for n = 0..2 and the
even-signed cube for n = 3, half-width 3 by default; the three-colored torus
for n = 1, 2, t = 5 by default), then two side notes that are easy to get
wrong: the literal-versus-strict count of colored partitions for a composite
color count, and an element where the two-colored descent statistic
disagrees with the signed one even though the histograms agree.
"""

import argparse

from bdstirling.cli import _at_least
from bdstirling.geometry import census, torus_census
from bdstirling.groups import SignedPermutation, colored_from_signed, des_stat
from bdstirling.partitions import colored_literal_row, stirling_row


def show(res, label):
    print(f"== {label}: x = {res.x}, {res.x}^{res.n} = {res.x ** res.n}")
    for part in sorted(res.counts, key=lambda p: (p.r, p.sort_key())):
        print(f"  {part.text():40s} r={part.r}  count={res.counts[part]}")
    print(f"  free={res.free} missing={res.missing}")
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=_at_least(0), default=3,
                    help="m for the centered cube [-m, m]^n")
    ap.add_argument("--turns", type=_at_least(1), default=5,
                    help="t for the discrete torus with x = 3t + 1 points")
    args = ap.parse_args()

    for n in range(3):
        show(census("B", n, args.half_width), f"signed cube n={n}")
    show(census("D", 3, args.half_width), "even-signed cube n=3")
    for n in (1, 2):
        show(torus_census(n, 3, args.turns), f"three-colored torus n={n}")

    print("== literal vs strict colored partition counts, four colors")
    for n in (1, 2):
        literal = colored_literal_row(n, 4)
        strict = stirling_row("G", n, 4)
        print(f"  n={n}: literal={literal} strict={strict}")
    print("  (a block family fixed by a proper shift power is literal only;")
    print("   the strict rule demands full orbits and injective values)")
    print()

    beta = SignedPermutation.from_text("-2,-1")
    print("== statistic disagreement witness")
    print(f"  window {beta.to_text()}: desB={des_stat(beta, 'desB')}, "
          f"two-colored desG={des_stat(colored_from_signed(beta), 'desG')}")
    print("  the two statistics agree in distribution, not pointwise")


if __name__ == "__main__":
    main()
