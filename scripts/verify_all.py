#!/usr/bin/env python3
"""Run every registered identity check and print one summary line each.

Asserted identities must pass; the flag-graded comparison is reported but
never counted as a failure.  Exit status is the number of failing asserted
identities.
"""

import argparse
import sys
import time

from bdstirling.cli import _at_least
from bdstirling.identities import IDENTITIES, verify_identity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=_at_least(0), default=None,
                    help="override the per-identity default size")
    ap.add_argument("--m", type=_at_least(1), default=3,
                    help="color count for the colored identities")
    args = ap.parse_args()

    failures = 0
    for name in sorted(IDENTITIES):
        t0 = time.perf_counter()
        report = verify_identity(name, nmax=args.nmax, m=args.m)
        bad = sum(1 for c in report.instances if not c.ok)
        if report.asserted:
            state = "PASS" if report.passed else "FAIL"
            failures += 0 if report.passed else 1
        else:
            state = "REPORT"
        skipped = f" skipped={','.join(report.skipped)}" if report.skipped else ""
        print(
            f"{name:18s} {state:6s} {len(report.instances):4d} instances "
            f"{bad:3d} mismatches{skipped} ({time.perf_counter() - t0:.2f}s)"
        )
    return failures


if __name__ == "__main__":
    sys.exit(main())
