"""Layer probe: small fixed calls into every layer, always traced.

Every traced run includes one probe, so each per-layer metric has a value
whichever workload is traced.  Where the traced workload itself makes a call
with the same span name, its spans replace the probe's (see ``run.py``).
"""
from __future__ import annotations

import itertools

from bdstirling import (
    DEFAULT_CAPS,
    IDENTITIES,
    BPartition,
    DPartition,
    GPartition,
    ZERO,
    classify_point,
    des_stat,
    descent_histogram,
    enumerate_group,
    enumerate_partitions,
    falling_factorial,
    group_order,
)
from bdstirling.errors import SingletonZeroBlock

import workloads

GROUPS = (("B", 6, None), ("D", 6, None), ("G", 5, 3))
STATS = (("desB", "B"), ("desD", "D"), ("desG", "G"), ("fdes", "B"))
PARTITIONS = (("B", 5, 2), ("D", 5, 2), ("G", 4, 3))
MAKERS = {
    "B": lambda p: BPartition(p.n, p.zero_support, p.pair_reps),
    "D": lambda p: DPartition(p.n, p.zero_support, p.pair_reps),
    "G": lambda p: GPartition(p.n, p.m, p.zero_support, p.orbit_reps),
}
FALLING_K = 16
# smaller versions of three workloads, for the layers they call
SIZES = {
    "census": {"cube": ((2, 10), (3, 4)), "torus": ((3, 3, 2),)},
    "roundtrip": {"forward_n": 4, "inverse_n": 3, "sample": 50, "sample_n": (6, 8)},
    "triangles": {"rows": 30, "basis_nmax": 10},
}


def _points(kind: str):
    if kind == "G":
        circle = [ZERO] + [(z, i) for z in range(3) for i in (1, 2)]
        return itertools.product(circle, repeat=3)
    return itertools.product(range(-4, 5), repeat=3)


def run(tr, checks) -> dict:
    """Make every probe call; returns the values the parent needs besides spans."""
    # The cold histogram of B_6 first; enumeration and statistic are then
    # timed on the same group, so the histogram's own cost is the rest.
    with tr.span("probe.descent_histogram.B") as s:
        row = descent_histogram("B", 6)
    checks.expect(sum(row) == group_order("B", 6), "probe histogram lost elements")
    for kind, n, m in GROUPS:
        with tr.span(f"groups.enumerate_group.{kind}") as s:
            for _ in enumerate_group(kind, n, m):
                s.count += 1
    elements = {kind: list(enumerate_group(kind, n, m)) for kind, n, m in GROUPS}
    for stat, kind in STATS:
        group = elements[kind]
        with tr.span(f"groups.des_stat.{stat}") as s:
            for g in group:
                des_stat(g, stat)
        s.count = len(group)

    for kind, n, m in PARTITIONS:
        with tr.span("partitions.enumerate_partitions") as s:
            parts = enumerate_partitions(kind, n, m=m)
        s.count = len(parts)
        make = MAKERS[kind]
        with tr.span("partitions.construct") as s:
            rebuilt = [make(p) for p in parts]
        s.count = len(parts)
        checks.expect(rebuilt == parts, f"{kind} partitions not rebuilt equal")

    for kind in ("B", "D", "G"):
        for point in _points(kind):
            try:
                with tr.span("geometry.classify_point"):
                    classify_point(kind, point, m=3 if kind == "G" else None)
            except SingletonZeroBlock:
                pass

    for k in range(FALLING_K + 1):
        for kind, extra in (("classical", {}), ("B", {}), ("D", {"n": FALLING_K}),
                            ("G", {"m": 3})):
            with tr.span("polynomials.falling_factorial"):
                falling_factorial(kind, k, **extra)

    for name, sizes in SIZES.items():
        w = workloads.WORKLOADS[name]
        _, raw = w["work"](tr, w["prepare"](0, sizes), checks)
        w["check"](raw, checks)
    return {"signed_cap": DEFAULT_CAPS.signed_group, "identities": sorted(IDENTITIES)}
