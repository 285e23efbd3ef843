"""End-to-end acceptance gate.

Each test prints one [criterion NN] PASS/FAIL line (run with -s to see them
all) and then asserts, so a red criterion is visible both in the printed
sheet and in the pytest summary.  Criteria 1, 3 and 6 also carry wall-clock
budgets.
"""

import time
from itertools import combinations
from math import factorial

from bdstirling.bijections import (
    b_procedure,
    b_procedure_inverse,
    d_procedure,
    d_procedure_inverse,
    d_unreachable,
    d_unreachable_count,
    free_gaps,
)
from bdstirling.errors import NotTypeD
from bdstirling.geometry import census, free_point_count, torus_census
from bdstirling.groups import descent_set, enumerate_group
from bdstirling.identities import descent_histogram, eulerian_from_stirling, verify_identity
from bdstirling.oeis import SEQUENCES, compare, load_fixture
from bdstirling.partitions import stirling, stirling_row

from .oracles import falling_factorial_value
from .test_bijections import ordered_forms

TABLE_B = [
    (1,),
    (1, 1),
    (1, 4, 1),
    (1, 13, 9, 1),
    (1, 40, 58, 16, 1),
    (1, 121, 330, 170, 25, 1),
    (1, 364, 1771, 1520, 395, 36, 1),
]
TABLE_D = [
    (1,),
    (0, 1),
    (1, 2, 1),
    (1, 7, 6, 1),
    (1, 24, 34, 12, 1),
    (1, 81, 190, 110, 20, 1),
    (1, 268, 1051, 920, 275, 30, 1),
]


def _report(num, ok, desc, started=None):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({time.time() - started:.2f}s)" if started is not None else ""
    print(f"[criterion {num:02d}] {state} - {desc}{suffix}")
    return ok


def test_criterion_01_frozen_triangles():
    t0 = time.time()
    ok = all(stirling_row("B", n) == TABLE_B[n] for n in range(7))
    ok = ok and all(stirling_row("D", n) == TABLE_D[n] for n in range(7))
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    assert _report(1, ok, "signed and even-signed triangles exact for n <= 6", t0)


def test_criterion_02_reference_sequences():
    ok = True
    for seq in sorted(SEQUENCES):
        report = compare(seq, load_fixture(seq))
        ok = ok and report.ok and report.first_mismatch is None and report.checked >= 28
    assert _report(2, ok, "packaged b-file fixtures agree with zero mismatches")


def test_criterion_03_stirling_eulerian_identities():
    t0 = time.time()
    rep_b = verify_identity("thm-4.1", nmax=6)
    rep_d = verify_identity("thm-4.2", nmax=6)
    ok = rep_b.passed and rep_d.passed
    ok = ok and "n=1" in rep_d.skipped
    seen_n = {dict(c.params)["n"] for c in rep_d.instances}
    ok = ok and seen_n == {0, 2, 3, 4, 5, 6}
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert _report(3, ok, "descent-to-partition identities hold for n <= 6", t0)


def test_criterion_04_inversion_formulas():
    ok = True
    for n in range(7):
        hist_b = descent_histogram("B", n)
        for k in range(n + 1):
            ok = ok and eulerian_from_stirling("B", n, k) == hist_b[k]
        if n != 1:
            hist_d = descent_histogram("D", n)
            for k in range(n + 1):
                ok = ok and eulerian_from_stirling("D", n, k) == hist_d[k]
    for name in ("cor-4.3", "cor-4.4", "eq-4"):
        ok = ok and verify_identity(name, nmax=6).passed
    assert _report(4, ok, "inversion formulas reproduce enumerated descent counts, n <= 6")


def test_criterion_05_procedures_are_bijective():
    ok = True
    for n in range(1, 5):
        images = set()
        for beta in enumerate_group("B", n):
            gaps = sorted(free_gaps(beta, "B"))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    op = b_procedure(beta, art)
                    ok = ok and op not in images
                    images.add(op)
                    back, spots = b_procedure_inverse(op)
                    ok = ok and back == beta and spots == frozenset(art)
        for r in range(n + 1):
            expect = 2**r * factorial(r) * stirling("B", n, r)
            ok = ok and sum(1 for op in images if op.r == r) == expect
    for n in range(1, 5):
        images = set()
        for gamma in enumerate_group("D", n):
            gaps = sorted(free_gaps(gamma, "D"))
            for k in range(len(gaps) + 1):
                for art in combinations(gaps, k):
                    try:
                        op = d_procedure(gamma, art)
                    except NotTypeD:
                        ok = ok and n == 1 and art == ()
                        continue
                    ok = ok and op not in images
                    images.add(op)
                    back, spots = d_procedure_inverse(op)
                    ok = ok and back == gamma and spots == frozenset(art)
        for r in range(n + 1):
            missed = 0
            for form in ordered_forms("D", n, r):
                if form in images:
                    ok = ok and not d_unreachable(form)
                else:
                    ok = ok and d_unreachable(form)
                    missed += 1
            ok = ok and missed == d_unreachable_count(n, r)
    assert _report(5, ok, "separation procedures bijective for n <= 4, complement as counted")


def test_criterion_06_basis_change():
    t0 = time.time()
    ok = all(
        verify_identity(name, nmax=8).passed
        for name in ("thm-1.2", "thm-5.1", "thm-5.3")
    )
    for m in (2, 3, 4):
        ok = ok and verify_identity("thm-6.10", nmax=5, m=m).passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert _report(6, ok, "power-to-falling-factorial expansions hold", t0)


def test_criterion_07_point_censuses():
    ok = True
    for n in range(4):
        res = census("B", n, 3)
        ok = ok and sum(res.counts.values()) == 7**n and res.missing == 0
        for part, cnt in res.counts.items():
            ok = ok and cnt == falling_factorial_value(7, "B", part.r)
    res = census("D", 3, 3)
    ok = ok and res.missing == 36 and sum(res.counts.values()) + res.missing == 343
    for n in (1, 2):
        res = torus_census(n, 3, 5)
        ok = ok and sum(res.counts.values()) == 16**n
        ok = ok and res.free == falling_factorial_value(16, "G", n, m=3)
        ok = ok and res.free == free_point_count("G", n, 16, m=3)
    assert _report(7, ok, "cube and torus censuses match the algebra")


def test_criterion_08_colored_identity_family():
    ok = True
    for m in (2, 3, 4):
        ok = ok and verify_identity("thm-6.9", nmax=4, m=m).passed
    two = verify_identity("thm-6.9", nmax=4, m=2)
    signed = verify_identity("thm-4.1", nmax=4)
    by_params = {
        tuple(kv for kv in c.params if kv[0] != "m"): (c.lhs, c.rhs)
        for c in two.instances
    }
    for c in signed.instances:
        ok = ok and by_params[c.params] == (c.lhs, c.rhs)
    assert _report(8, ok, "colored identity holds for m in {2,3,4} and collapses at m=2")


def test_criterion_09_two_colored_descents_match_signed():
    ok = True
    for n in range(6):
        ok = ok and descent_histogram("G", n, 2) == descent_histogram("B", n)
    assert _report(9, ok, "two-colored descent histogram equals the signed one, n <= 5")


def test_criterion_10_flag_report():
    first = verify_identity("thm-6.11-report", nmax=4)
    second = verify_identity("thm-6.11-report", nmax=4)
    ok = not first.asserted
    ok = ok and [(c.params, c.lhs, c.rhs, c.ok) for c in first.instances] == [
        (c.params, c.lhs, c.rhs, c.ok) for c in second.instances
    ]
    cells = {
        (dict(c.params)["n"], dict(c.params)["r"]): c
        for c in first.instances
        if dict(c.params)["order"] == "natural"
    }
    for spot in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 4)):
        ok = ok and cells[spot].ok
    ok = ok and not cells[(2, 3)].ok
    ok = ok and (cells[(2, 3)].lhs, cells[(2, 3)].rhs) == (4, 7)
    assert _report(10, ok, "flag-graded comparison is deterministic with the known gap at (2,3)")
