import hashlib
import re
from math import factorial

import pytest

from bdstirling.config import DEFAULT_CAPS, EnumerationCaps
from bdstirling.errors import BadIndex, SizeOverflow, UnknownKind
from bdstirling.groups import des_stat, enumerate_group, group_order
from bdstirling.identities import (
    IDENTITIES,
    _basis_report,
    _standard_tally,
    descent_histogram,
    eulerian,
    eulerian_from_stirling,
    flag_histogram,
    verify_identity,
)

from . import oracles
from .children import run_child

ASSERTED = sorted(name for name in IDENTITIES if name != "thm-6.11-report")


class TestDescentHistograms:
    @pytest.mark.parametrize("kind,n", [("B", 3), ("D", 3), ("D", 4)])
    def test_signed_histograms_match_direct_count(self, kind, n):
        hist = descent_histogram(kind, n)
        raw = {}
        stat = "desB" if kind == "B" else "desD"
        for w in enumerate_group(kind, n):
            k = des_stat(w, stat)
            raw[k] = raw.get(k, 0) + 1
        assert list(hist) == [raw.get(k, 0) for k in range(len(hist))]

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (2, 4)])
    def test_colored_histograms_match_oracle_statistic(self, n, m):
        hist = descent_histogram("G", n, m)
        raw = {}
        for entries in oracles.colored_group(n, m):
            k = oracles.descents_colored(list(entries), m)
            raw[k] = raw.get(k, 0) + 1
        assert list(hist) == [raw.get(k, 0) for k in range(len(hist))]

    @pytest.mark.parametrize("kind,m", [("B", 2), ("D", 2), ("G", 3)])
    def test_histogram_total_is_group_order(self, kind, m):
        for n in range(5):
            if kind == "D" and n == 0:
                continue
            hist = descent_histogram(kind, n, m)
            assert sum(hist) == group_order(kind, n, m if kind == "G" else None)

    def test_flag_histogram_totals(self):
        for n in range(5):
            hist = flag_histogram(n)
            assert sum(hist) == group_order("B", n)
            assert flag_histogram(n, order="color") is hist
            assert sum(flag_histogram(n, order="color")) == group_order("B", n)

    @pytest.mark.parametrize("n", range(6))
    def test_flag_orders_read_the_bstar_histogram(self, n):
        hist = descent_histogram("Bstar", n)
        assert all(flag_histogram(n, order) is hist for order in ("natural", "color"))

    def test_flag_histogram_small(self):
        assert flag_histogram(1) == (1, 1)
        assert flag_histogram(2) == (1, 3, 3, 1)
        assert flag_histogram(2, order="color") == (1, 3, 3, 1)


class TestKernelsMatchElementWalk:
    @pytest.mark.parametrize("n", range(9))
    def test_classical(self, n):
        assert descent_histogram("A", n) == oracles.descent_histogram_by_elements("A", n)

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", range(7))
    def test_signed(self, kind, n):
        assert descent_histogram(kind, n) == oracles.descent_histogram_by_elements(kind, n)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(5))
    def test_colored(self, m, n):
        assert descent_histogram("G", n, m) == oracles.descent_histogram_by_elements(
            "G", n, m
        )

    @pytest.mark.parametrize("order", ["natural", "color"])
    @pytest.mark.parametrize("n", range(6))
    def test_flag(self, order, n):
        assert flag_histogram(n, order) == oracles.flag_histogram_by_elements(n, order)


class TestTallyMatchesTupleKernels:
    @pytest.mark.parametrize("n", range(10))
    def test_classical(self, n):
        assert descent_histogram("A", n) == oracles.descent_histogram_by_tuples("A", n)

    @pytest.mark.parametrize("kind", ["B", "D"])
    @pytest.mark.parametrize("n", range(8))
    def test_signed(self, kind, n):
        assert descent_histogram(kind, n) == oracles.descent_histogram_by_tuples(kind, n)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(6))
    def test_colored(self, m, n):
        assert descent_histogram("G", n, m) == oracles.descent_histogram_by_tuples(
            "G", n, m
        )

    @pytest.mark.parametrize("order", ["natural", "color"])
    @pytest.mark.parametrize("n", range(7))
    def test_flag(self, order, n):
        assert flag_histogram(n, order) == oracles.flag_histogram_by_tuples(n, order)


def _brenti_row(prev, n):
    """Type B row n from row n - 1 (Brenti 1994):
    B(n,k) = (2k+1) B(n-1,k) + (2n-2k+1) B(n-1,k-1)."""
    def at(k):
        return prev[k] if 0 <= k < len(prev) else 0
    return tuple((2 * k + 1) * at(k) + (2 * n - 2 * k + 1) * at(k - 1) for k in range(n + 1))


class TestTallyMatchesWalkPerPair:
    @pytest.mark.parametrize("n", range(9))
    def test_tally(self, n):
        assert _standard_tally(n) == oracles.standard_tally_by_walk(n)


class TestLargestRunsTheCapsAllow:
    """A_10, B_8, D_8, flag n = 8 and G_{4,6}: the next size is refused."""

    @pytest.mark.parametrize("n", range(10))
    def test_tally_walks_all_of_s_n(self, n):
        assert sum(_standard_tally(n).values()) == factorial(n)

    def test_classical(self):
        row = descent_histogram("A", 10)
        assert sum(row) == factorial(10)
        assert row[:10] == row[9::-1] and row[10] == 0
        with pytest.raises(SizeOverflow):
            descent_histogram("A", 11)

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_signed(self, kind):
        row = descent_histogram(kind, 8)
        assert sum(row) == group_order(kind, 8)
        assert row == row[::-1]
        with pytest.raises(SizeOverflow):
            descent_histogram(kind, 9)

    @pytest.mark.parametrize("order", ["natural", "color"])
    def test_flag(self, order):
        row = flag_histogram(8, order)
        assert sum(row) == group_order("B", 8)
        assert row == row[::-1]
        with pytest.raises(SizeOverflow):
            flag_histogram(9, order)

    def test_colored(self):
        assert sum(descent_histogram("G", 6, 4)) == group_order("G", 6, 4)
        with pytest.raises(SizeOverflow):
            descent_histogram("G", 7, 4)

    def test_signed_rows_follow_brenti(self):
        for n in range(1, 9):
            assert descent_histogram("B", n) == _brenti_row(descent_histogram("B", n - 1), n)


class TestHistogramCache:
    def test_uncolored_calls_share_one_entry(self):
        descent_histogram.cache_clear()
        before = descent_histogram.cache_info().misses
        first = descent_histogram("B", 5)
        assert descent_histogram("B", 5, 3) is first
        assert descent_histogram("B", 5, caps=DEFAULT_CAPS) is first
        assert descent_histogram.cache_info().misses - before == 1

    def test_memo_is_bounded(self):
        # one entry per m would grow without bound over a sweep of m
        for m in range(1, 201):
            assert sum(descent_histogram("G", 1, m)) == m
        assert descent_histogram.cache_info().currsize <= 64

    def test_colored_entries_keep_m(self):
        assert descent_histogram("G", 3, 2) != descent_histogram("G", 3, 3)

    def test_classical_honours_caps(self):
        tens = EnumerationCaps(signed_group=10, census_points=10)
        with pytest.raises(SizeOverflow):
            descent_histogram("A", 9, caps=tens)
        with pytest.raises(SizeOverflow):
            eulerian("A", 9, 1, caps=tens)

    def test_flag_honours_caps(self):
        tens = EnumerationCaps(signed_group=10, census_points=10)
        with pytest.raises(SizeOverflow):
            flag_histogram(3, caps=tens)

    def test_bstar_is_refused_as_b(self):
        tens = EnumerationCaps(signed_group=10)
        refusals = []
        for kind in ("B", "Bstar"):
            with pytest.raises(SizeOverflow) as info:
                descent_histogram(kind, 3, caps=tens)
            refusals.append(str(info.value))
        assert refusals[0] == refusals[1] == "group of order 48 exceeds cap 10"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            descent_histogram("C", 3)
        with pytest.raises(ValueError):
            flag_histogram(3, order="reverse")


class TestEulerianNumbers:
    def test_classical_values_are_one_based(self):
        assert eulerian("A", 0, 0) == 1
        assert eulerian("A", 1, 0) == 0
        assert eulerian("A", 1, 1) == 1
        assert eulerian("A", 2, 1) == 1
        assert eulerian("A", 2, 2) == 1
        assert eulerian("A", 3, 2) == 4
        assert [eulerian("A", 4, k) for k in range(1, 5)] == [1, 11, 11, 1]

    def test_signed_values(self):
        assert [eulerian("B", 2, k) for k in range(3)] == [1, 6, 1]
        assert [eulerian("B", 3, k) for k in range(4)] == [1, 23, 23, 1]

    def test_even_signed_values(self):
        assert [eulerian("D", 2, k) for k in range(3)] == [1, 2, 1]
        assert sum(eulerian("D", 3, k) for k in range(4)) == group_order("D", 3)

    def test_colored_values(self):
        assert [eulerian("G", 2, k, m=3) for k in range(3)] == [1, 13, 4]
        assert [eulerian("G", 1, k, m=4) for k in range(2)] == [1, 3]

    @pytest.mark.parametrize("n", range(5))
    def test_flag_values_are_one_based(self, n):
        hist = flag_histogram(n)
        for k in range(-1, 2 * n + 3):
            want = hist[k - 1] if 1 <= k <= len(hist) else 0
            assert eulerian("Bstar", n, k) == want

    @pytest.mark.parametrize("kind, m", [("A", 2), ("B", 2), ("D", 2), ("G", 3)])
    def test_indices_outside_the_row_give_zero(self, kind, m):
        for n in range(4):
            assert eulerian(kind, n, -1, m) == 0
            assert eulerian(kind, n, n + 1, m) == 0
            assert eulerian(kind, n, n + 5, m) == 0

    @pytest.mark.parametrize("kind, k", [("A", 0), ("Bstar", 1), ("B", 0), ("D", 0), ("G", 0)])
    def test_empty_permutation_meets_the_cap(self, kind, k):
        # every kind checks even the trivial group against the cap
        nothing = EnumerationCaps(signed_group=0, census_points=0)
        with pytest.raises(SizeOverflow, match="^group of order 1 exceeds cap 0$"):
            eulerian(kind, 0, k, m=3, caps=nothing)
        one = EnumerationCaps(signed_group=1, census_points=0)
        assert eulerian(kind, 0, k, m=3, caps=one) == 1

    def test_inversion_formulas_match_enumeration(self):
        for n in range(5):
            for k in range(n + 1):
                assert eulerian_from_stirling("A", n, k) == eulerian("A", n, k)
                assert eulerian_from_stirling("B", n, k) == eulerian("B", n, k)
        for n in (0, 2, 3, 4):
            for k in range(n + 1):
                assert eulerian_from_stirling("D", n, k) == eulerian("D", n, k)

    def test_even_signed_inversion_undefined_at_n1(self):
        with pytest.raises(BadIndex):
            eulerian_from_stirling("D", 1, 1)

    def test_spot_values_from_inversion(self):
        assert eulerian_from_stirling("B", 2, 1) == 6
        assert eulerian_from_stirling("A", 3, 2) == 4
        assert eulerian_from_stirling("D", 2, 0) == 1

    @pytest.mark.parametrize("kind", ["A", "B", "D"])
    def test_inversion_outside_the_triangle_is_zero(self, kind):
        assert eulerian_from_stirling(kind, -2, 1) == 0
        assert eulerian_from_stirling(kind, 3, -1) == 0
        assert eulerian_from_stirling(kind, 3, 5) == 0


class TestVerification:
    @pytest.mark.parametrize("name", ASSERTED)
    def test_asserted_identities_pass(self, name):
        nmax = {"thm-6.9": 3, "thm-6.10": 4}.get(name, 5)
        report = verify_identity(name, nmax=nmax)
        assert report.asserted
        assert report.passed, [c for c in report.instances if not c.ok][:3]

    @pytest.mark.parametrize("name", ["thm-6.9", "thm-6.10"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_colored_identities_pass_for_several_color_counts(self, name, m):
        report = verify_identity(name, nmax=3, m=m)
        assert report.passed

    def test_two_colors_reduce_to_signed(self):
        got = verify_identity("thm-6.9", nmax=4, m=2)
        want = verify_identity("thm-4.1", nmax=4)
        lhs_by_params = {
            tuple(kv for kv in c.params if kv[0] != "m"): (c.lhs, c.rhs)
            for c in got.instances
        }
        for c in want.instances:
            assert lhs_by_params[c.params] == (c.lhs, c.rhs)

    def test_even_signed_identities_skip_n1(self):
        for name in ("thm-4.2", "cor-4.4"):
            for nmax, skipped in [(0, ()), (1, ("n=1",)), (3, ("n=1",))]:
                report = verify_identity(name, nmax=nmax)
                assert report.skipped == skipped
                assert all(dict(c.params)["n"] != 1 for c in report.instances)

    def test_a_size_over_the_cap_fails_before_nmax(self):
        # A child with 1 GiB of address space fails with MemoryError, not by
        # filling the machine, if the sizes are ever listed before the walk
        # or, for a basis change, before its running count meets the cap.
        names = sorted(IDENTITIES)
        program = (
            "import sys\n"
            "from bdstirling.errors import SizeOverflow\n"
            "from bdstirling.identities import verify_identity\n"
            "for name in sys.argv[1:]:\n"
            "    try:\n"
            "        verify_identity(name, nmax=10**20, m=3)\n"
            "    except SizeOverflow:\n"
            "        print(name)\n"
        )
        res = run_child(program, *names, bounded=True, timeout=60)
        assert res.stdout.split() == names, res.stderr

    @pytest.mark.parametrize(
        "name", [name for name, entry in sorted(IDENTITIES.items())
                 if entry["build"] is _basis_report])
    def test_a_basis_change_counts_its_products_against_the_cap(self, name):
        # sizes 0..3 cost 1 + 3 + 6 + 10 = 20 coefficient products, size 4 15 more
        caps = EnumerationCaps(signed_group=20)
        assert verify_identity(name, nmax=3, m=3, caps=caps).passed
        with pytest.raises(SizeOverflow) as err:
            verify_identity(name, nmax=4, m=3, caps=caps)
        assert str(err.value) == "basis change of 35 coefficient products exceeds cap 20"
        with pytest.raises(SizeOverflow) as err:
            verify_identity(name, nmax=10**20, m=3)
        assert str(err.value) == (
            "basis change of 10349790 coefficient products exceeds cap 10321920")

    def test_flag_report_is_not_asserted(self):
        report = verify_identity("thm-6.11-report", nmax=2)
        assert not report.asserted
        assert not report.passed
        cells = {
            (dict(c.params)["n"], dict(c.params)["r"], dict(c.params)["order"]): c
            for c in report.instances
        }
        assert cells[(1, 1, "natural")].ok
        assert cells[(1, 2, "natural")].ok
        assert cells[(2, 1, "natural")].ok
        assert cells[(2, 2, "natural")].ok
        assert cells[(2, 4, "natural")].ok
        bad = cells[(2, 3, "natural")]
        assert not bad.ok and (bad.lhs, bad.rhs) == (4, 7)
        assert not cells[(2, 3, "color")].ok

    def test_report_instances_carry_params_text(self):
        report = verify_identity("thm-4.1", nmax=2)
        texts = [c.params_text() for c in report.instances]
        assert "n=2 r=1" in texts

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError):
            verify_identity("thm-0.0")

    # SHA-256 of the identity, skipped, asserted and each instance's params,
    # lhs, rhs and note, recorded when every builder made its own report
    # and each instance named its identity; every instance must stay.
    @pytest.mark.parametrize("name, nmax, digest", [
        ("thm-4.2", None,
         "26cb6eeeb955dcb17e4d08f0344043abb397b744804a58c56d6e3cc2cb5da611"),
        ("cor-4.4", None,
         "f57f50cb108dcc50f05458718d269ad57d35c11775f045d338e62805fab30832"),
        ("thm-5.3", 12,
         "0fbef25ba9b53019288f10982c5eb12ce32548aba4d25db048547e1dfc6ba5b7"),
    ])
    def test_even_signed_reports_keep_their_instances(self, name, nmax, digest):
        report = verify_identity(name, nmax=nmax)
        assert report.passed
        shown = repr((report.identity, report.skipped, report.asserted,
                      [(c.params, c.lhs, c.rhs, c.note) for c in report.instances]))
        assert hashlib.sha256(shown.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["thm-1.2", "thm-5.1", "thm-5.3", "thm-6.10"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_basis_reports_match_products_of_roots(self, name, m):
        kind = IDENTITIES[name]["kind"]
        for nmax in range(15):
            want = oracles.basis_report_by_products(name, kind, nmax, m)
            assert verify_identity(name, nmax=nmax, m=m) == want

    def test_registry_default_sizes(self):
        for name, entry in IDENTITIES.items():
            assert entry["nmax"] >= 3

    def test_caps_thread_through(self):
        tiny = EnumerationCaps(signed_group=3, census_points=3)
        with pytest.raises(SizeOverflow):
            verify_identity("thm-4.1", nmax=3, caps=tiny)


@pytest.mark.parametrize("call, error, message", [
    (lambda: flag_histogram(3, order="reverse"), UnknownKind,
     "unknown fdes order 'reverse'"),
    (lambda: eulerian_from_stirling("G", 3, 1), UnknownKind,
     "no inversion formula for kind 'G'"),
    (lambda: verify_identity("thm-0.0"), UnknownKind, "unknown identity 'thm-0.0'"),
    (lambda: verify_identity("thm-1.1", nmax=-1), BadIndex, "nmax must be nonnegative"),
], ids=["flag_histogram", "eulerian_from_stirling", "identity", "nmax"])
def test_bad_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is error
