import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path, PurePath
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdstirling import cli
from bdstirling.geometry import missing_point_count
from bdstirling.partitions import stirling_row

CLI = [sys.executable, "-m", "bdstirling"]
README = Path(__file__).resolve().parents[1] / "README.md"
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.10.7"
)


def run_in_process(argv, stdin=""):
    """(exit code, stdout, stderr) of cli.main, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def run_cli(*args, stdin=None, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, env=merged
    )


class TestTables:
    def test_signed_stirling_markdown(self):
        res = run_cli("tables", "stirling", "--kind", "B", "--nmax", "3")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        cells = [c.strip() for c in lines[5].split("|")[1:-1]]
        assert cells == ["3", "1", "13", "9", "1"]
        assert all(line.startswith("| ") for line in lines)

    def test_even_signed_stirling_csv(self):
        res = run_cli("tables", "stirling", "--kind", "D", "--nmax", "2", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout == "n,0,1,2\n0,1\n1,0,1\n2,1,2,1\n"

    def test_json_rows(self):
        res = run_cli("tables", "stirling", "--kind", "G", "--m", "3", "--nmax", "2",
                      "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["rows"][-1] == {"n": 2, "values": [1, 5, 1]}

    def test_flag_table(self):
        res = run_cli("tables", "stirling", "--kind", "Bstar", "--nmax", "2",
                      "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["rows"][2]["values"] == [0, 1, 2, 2, 1]

    def test_eulerian_table(self):
        res = run_cli("tables", "eulerian", "--kind", "D", "--nmax", "2", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["rows"][2]["values"] == [1, 2, 1]

    def test_single_row(self):
        res = run_cli("tables", "stirling", "--kind", "B", "--n", "6", "--format", "csv")
        assert res.stdout.splitlines()[1] == "6,1,364,1771,1520,395,36,1"

    def test_cap_floor_needs_acknowledgement(self):
        res = run_cli("tables", "eulerian", "--kind", "B", "--nmax", "3",
                      "--cap", "20000000")
        assert res.returncode == 2
        assert "--allow-large" in res.stderr

    def test_cap_blocks_enumeration(self):
        res = run_cli("tables", "eulerian", "--kind", "B", "--nmax", "4", "--cap", "10")
        assert res.returncode == 2
        assert "cap" in res.stderr

    def test_large_stirling_row_builds_without_recursion(self):
        res = run_cli("tables", "stirling", "--kind", "B", "--n", "600", "--format", "csv")
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.splitlines()[1].startswith("600,1,")

    @needs_digit_limit
    def test_rows_past_the_digit_limit_are_written_in_full(self):
        # row 144 of G at m = 10**30 holds integers of more than 4300 digits
        res = run_cli("tables", "stirling", "--kind", "G", "--m", str(10**30),
                      "--n", "144", "--format", "json")
        assert (res.returncode, res.stderr) == (0, "")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            values = json.loads(res.stdout)["rows"][0]["values"]
            longest = max(len(str(v)) for v in values)
        finally:
            sys.set_int_max_str_digits(old)
        assert values == list(stirling_row("G", 144, 10**30))
        assert longest > 4300

    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_digit_limit_is_lifted_for_the_output_alone(self, fmt):
        old = sys.get_int_max_str_digits()
        code, out, err = run_in_process(["tables", "stirling", "--kind", "G", "--m",
                                         str(10**30), "--n", "144", "--format", fmt])
        assert (code, err) == (0, "")
        assert len(out) > 4300 * 2
        assert sys.get_int_max_str_digits() == old
        # input is still read under the limit
        code, out, err = run_in_process(["tables", "stirling", "--kind", "G", "--m",
                                         "9" * 5000, "--n", "1"])
        assert (code, out) == (2, "") and "invalid int value" in err
        assert sys.get_int_max_str_digits() == old

    def test_zero_colors_is_one_line_usage_error(self):
        res = run_cli("tables", "stirling", "--kind", "G", "--m", "0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "argument --m: must be at least 1" in res.stderr

    def test_seed_flag_is_gone(self):
        res = run_cli("tables", "stirling", "--kind", "B", "--seed", "1")
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1

    def test_classical_eulerian_table_is_capped(self):
        res = run_cli("tables", "eulerian", "--kind", "A", "--nmax", "12")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "cap" in res.stderr and "Traceback" not in res.stderr


class TestVerify:
    def test_passing_identity(self):
        res = run_cli("verify", "--identity", "thm-4.1", "--nmax", "3")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == "thm-4.1: PASS (10 instances, 0 mismatches)"

    def test_skipped_sizes_are_reported(self):
        res = run_cli("verify", "--identity", "thm-4.2", "--nmax", "3")
        assert res.returncode == 0
        assert "skipped n=1" in res.stdout.splitlines()[-1]

    def test_report_only_identity_exits_zero_despite_mismatches(self):
        res = run_cli("verify", "--identity", "thm-6.11-report", "--nmax", "2")
        assert res.returncode == 0
        assert "report only" in res.stdout.splitlines()[-1]
        assert "mismatch" in res.stdout

    def test_rank_bound_is_gone_and_a_one_line_usage_error(self):
        res = run_cli("verify", "--identity", "thm-4.1", "--rmax", "1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "--rmax" in res.stderr

    def test_unknown_identity_is_usage_error(self):
        res = run_cli("verify", "--identity", "thm-9.9")
        assert res.returncode == 2

    def test_zero_colors_is_one_line_usage_error(self):
        res = run_cli("verify", "--identity", "thm-6.9", "--m", "0")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "argument --m: must be at least 1" in res.stderr


class TestBijection:
    def test_forward_emits_document(self):
        res = run_cli("bijection", "forward", "--kind", "B", "--perm", "-2,3,5,1,-4")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc == {"kind": "B", "n": 5,
                       "blocks": [[-2, 3, 5], [-5, -3, 2], [1], [-1], [-4], [4]]}

    def test_forward_with_artificial_spots(self):
        res = run_cli("bijection", "forward", "--kind", "D",
                      "--perm", "-1,3,4,-2,-6,-5", "--spots", "1")
        doc = json.loads(res.stdout)
        assert doc["blocks"][0] == [1, 3, 4]

    def test_inverse_from_flag(self):
        doc = '{"kind":"B","n":5,"blocks":[[1,4,-1,-4],[5],[-5],[-3,2],[3,-2]]}'
        res = run_cli("bijection", "inverse", "--kind", "B", "--doc", doc)
        out = json.loads(res.stdout)
        assert out == {"kind": "B", "n": 5, "perm": "1,4,5,-3,2", "spots": [2]}

    def test_inverse_from_stdin(self):
        doc = '{"kind":"D","n":5,"blocks":[[-4,3],[4,-3],[2],[-2],[-5,-1],[5,1]]}'
        res = run_cli("bijection", "inverse", stdin=doc)
        out = json.loads(res.stdout)
        assert out["perm"] == "4,3,2,-5,-1" and out["spots"] == []

    def test_round_trip_through_cli(self):
        fwd = run_cli("bijection", "forward", "--kind", "B", "--perm", "1,4,-5,-3,2",
                      "--spots", "0,3")
        back = run_cli("bijection", "inverse", stdin=fwd.stdout)
        out = json.loads(back.stdout)
        assert out["perm"] == "1,4,-5,-3,2" and out["spots"] == [0, 3]

    def test_unreachable_form_is_reported_not_failed(self):
        doc = '{"kind":"D","n":2,"blocks":[[-1],[1],[2],[-2]]}'
        res = run_cli("bijection", "inverse", stdin=doc)
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["unreachable"] is True
        assert out["witness"] == [[-1], [1], [2], [-2]]

    def test_bad_json_is_usage_error(self):
        res = run_cli("bijection", "inverse", "--doc", "{broken")
        assert res.returncode == 2

    def test_kind_disagreement_is_usage_error(self):
        doc = '{"kind":"B","n":1,"blocks":[[1],[-1]]}'
        res = run_cli("bijection", "inverse", "--kind", "D", "--doc", doc)
        assert res.returncode == 2

    def test_malformed_document_shape_is_usage_error(self):
        res = run_cli("bijection", "inverse", "--doc", '{"kind":"B","blocks":[[1],[-1]]}')
        assert res.returncode == 2

    def test_spot_collision_is_validation_error(self):
        res = run_cli("bijection", "forward", "--kind", "B", "--perm", "2,1",
                      "--spots", "1")
        assert res.returncode == 1

    def test_missing_perm_is_usage_error(self):
        res = run_cli("bijection", "forward", "--kind", "B")
        assert res.returncode == 2

    def test_internal_error_is_exit_4(self):
        code = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "bijections._cut = lambda window, separators: (frozenset(), ())\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        doc = '{"kind":"B","n":2,"blocks":[[1,-1],[2],[-2]]}'
        res = subprocess.run(
            [sys.executable, "-c", code, "bijection", "inverse", "--doc", doc],
            capture_output=True, text=True,
        )
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: internal error: preimage maps to {'kind': 'B', 'n': 2, "
            "'blocks': []} instead of {'kind': 'B', 'n': 2, "
            "'blocks': [[-1, 1], [2], [-2]]}"
        ]
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv, code, line", [
        (["inverse", "--doc", '{"kind":"D","n":2,"blocks":[[1,-1,2,-2]]}'], 4,
         "error: internal error: preimage maps to {'kind': 'D', 'n': 2, 'blocks': "
         "[]} instead of {'kind': 'D', 'n': 2, 'blocks': [[-2, -1, 1, 2]]}"),
        (["forward", "--kind", "B", "--perm", "1,2", "--spots", "0,1"], 1,
         "error: spots covered [2] do not tile 1..2"),
    ], ids=["inverse", "forward"])
    def test_patched_cut_fails_cleanly_under_optimize(self, argv, code, line):
        program = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "assert False, 'asserts must be off'\n"
            "cut = bijections._cut\n"
            "bijections._cut = lambda w, s: (frozenset(), cut(w, s)[1][-1:])\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", program, "bijection", *argv],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (code, "")
        assert res.stderr.splitlines() == [line]

    @pytest.mark.parametrize("kind, n, zero, pair", [
        ("B", 3, [-1, 1], [2, 3]),
        ("D", 4, [-2, -1, 1, 2], [3, 4]),
    ])
    @pytest.mark.parametrize("fault, shrink", [("repeated", 0), ("dropped", 1)])
    def test_faulty_preimage_window_is_an_internal_error_under_optimize(
        self, kind, n, zero, pair, fault, shrink
    ):
        # The inverse does not validate its preimage window a second time:
        # the round trip has to catch a window that is not a signed permutation.
        program = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "assert False, 'asserts must be off'\n"
            "build = bijections._preimage_window\n"
            "def repeated(op, odd):\n"
            "    window, cuts = build(op, odd)\n"
            "    window[-1] = window[-2]\n"
            "    return window, cuts\n"
            "def dropped(op, odd):\n"
            "    window, cuts = build(op, odd)\n"
            "    return window[:-1], cuts\n"
            f"bijections._preimage_window = {fault}\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        mirror = sorted(-v for v in pair)
        doc = {"kind": kind, "n": n, "blocks": [zero, pair, mirror]}
        res = subprocess.run(
            [sys.executable, "-O", "-c", program, "bijection", "inverse",
             "--doc", json.dumps(doc)],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (4, "")
        # either way the last entry is lost from the recut's last block
        image = {"kind": kind, "n": n - shrink, "blocks": [zero, pair[:1], mirror[1:]]}
        assert res.stderr.splitlines() == [
            f"error: internal error: preimage maps to {image} instead of {doc}"
        ]

    @pytest.mark.parametrize("doc, image", [
        ({"kind": "B", "n": 2, "blocks": [[1, -1], [2], [-2]]},
         {"kind": "B", "n": 2, "blocks": [[-1, 1], [2], [-2], [], []]}),
        ({"kind": "D", "n": 3, "blocks": [[1, -2], [-1, 2], [3], [-3]]},
         {"kind": "D", "n": 3, "blocks": [[-2, 1], [-1, 2], [3], [-3], [], []]}),
    ], ids=["B", "D"])
    def test_preimage_cut_past_the_window_is_an_internal_error_under_optimize(
        self, doc, image
    ):
        # a cut at gap n lies past the window; the recut gives it an empty
        # class, so the round trip fails instead of printing a preimage
        program = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "assert False, 'asserts must be off'\n"
            "build = bijections._preimage_window\n"
            "def past(op, odd):\n"
            "    window, cuts = build(op, odd)\n"
            "    return window, cuts + [len(window)]\n"
            "bijections._preimage_window = past\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", program, "bijection", "inverse",
             "--doc", json.dumps(doc)],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (4, "")
        expected = {**doc, "blocks": [sorted(b) for b in doc["blocks"]]}
        assert res.stderr.splitlines() == [
            f"error: internal error: preimage maps to {image} instead of {expected}"
        ]

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_odd_signed_d_preimage_is_an_internal_error(self, optimize):
        # a D preimage with an odd number of negatives has no D descents;
        # that is the inverse's fault, reported as for kind B
        program = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "build = bijections._preimage_window\n"
            "def flipped(op, odd):\n"
            "    window, cuts = build(op, odd)\n"
            "    window[-1] = -window[-1]\n"
            "    return window, cuts\n"
            "bijections._preimage_window = flipped\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        doc = {"kind": "D", "n": 4, "blocks": [[1, -1, 2, -2], [3, 4], [-3, -4]]}
        res = subprocess.run(
            [sys.executable, *optimize, "-c", program, "bijection", "inverse",
             "--doc", json.dumps(doc)],
            capture_output=True, text=True,
        )
        assert (res.returncode, res.stdout) == (4, "")
        canonical = {"kind": "D", "n": 4, "blocks": [[-2, -1, 1, 2], [3, 4], [-4, -3]]}
        assert res.stderr.splitlines() == [
            "error: internal error: preimage '1,2,3,-4' has an odd number of "
            f"negative entries, so it cannot map to {canonical}"
        ]

    def test_format_flag_is_gone(self):
        res = run_cli("bijection", "forward", "--kind", "B", "--perm", "1,2",
                      "--format", "csv")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1


class TestCensus:
    def test_expected_counts_are_read_once_per_rank(self, monkeypatch):
        from bdstirling import geometry

        calls = []
        real = geometry._value_at

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "_value_at", counted)
        code, out, err = run_in_process(["census", "--kind", "B", "--n", "4", "--m", "2"])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) > 4 + 1
        assert 0 < len(calls) <= 4 + 1

    def test_signed_census_totals(self):
        res = run_cli("census", "--kind", "B", "--n", "2", "--m", "3", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["total"] == 49 and doc["free"] == 24 and doc["missing"] == 0

    def test_even_signed_census_missing(self):
        res = run_cli("census", "--kind", "D", "--n", "3", "--m", "3", "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["missing"] == 36 and doc["total"] == 343

    def test_torus_census(self):
        res = run_cli("census", "--kind", "G", "--n", "2", "--m", "3", "--t", "5",
                      "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["x"] == 16 and doc["free"] == 180

    def test_torus_needs_t(self):
        res = run_cli("census", "--kind", "G", "--n", "1", "--m", "3")
        assert res.returncode == 2

    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_cube_refuses_t_as_one_line_usage_error(self, kind):
        res = run_cli("census", "--kind", kind, "--n", "2", "--m", "2", "--t", "3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "takes no --t" in res.stderr

    @pytest.mark.parametrize("m,t", [("0", "1"), ("1", "1"), ("3", "0")])
    def test_degenerate_torus_is_one_line_usage_error(self, m, t):
        res = run_cli("census", "--kind", "G", "--n", "1", "--m", m, "--t", t)
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "--m >= 2" in res.stderr and "--t >= 1" in res.stderr

    @pytest.mark.parametrize("flag", ["--n", "--m", "--t"])
    def test_negative_size_is_one_line_usage_error(self, flag):
        args = {"--n": "2", "--m": "3", "--t": "2", flag: "-1"}
        res = run_cli("census", "--kind", "G", *[tok for kv in args.items() for tok in kv])
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert f"argument {flag}: must be nonnegative" in res.stderr

    def test_census_cap(self):
        res = run_cli("census", "--kind", "B", "--n", "9", "--m", "5")
        assert res.returncode == 2

    def test_census_near_the_cap(self):
        res = run_cli("census", "--kind", "D", "--n", "6", "--m", "10", "--format", "json")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["total"] == 21**6 and doc["missing"] == missing_point_count(6, 21)


class TestOeis:
    def test_packaged_fixture(self):
        res = run_cli("oeis", "--seq", "A039755")
        assert res.returncode == 0
        assert "28 terms" in res.stdout and "OK" in res.stdout

    def test_mismatching_reference_fails(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 1\n2 1\n3 999\n")
        res = run_cli("oeis", "--seq", "A039755", "--fixture", str(bad))
        assert res.returncode == 1
        assert "mismatch" in res.stdout

    def test_negative_nmax_is_one_line_usage_error(self):
        res = run_cli("oeis", "--seq", "A039755", "--nmax", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert "argument --nmax: must be nonnegative" in res.stderr

    def test_malformed_fixture_is_one_line_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2 3\n")
        res = run_cli("oeis", "--seq", "A039755", "--fixture", str(bad))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: b-file line 2 is not 'index value': '1 2 3'\n"

    def test_missing_fixture_is_usage_error(self):
        res = run_cli("oeis", "--seq", "A039755", "--fixture", "/no/such/file.txt")
        assert res.returncode == 2

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_bfile_piped_through_dev_stdin(self):
        packaged = resources.files("bdstirling") / "data" / "b039755.txt"
        res = run_cli("oeis", "--seq", "A039755", "--fixture", "/dev/stdin",
                      stdin=packaged.read_text("utf-8"))
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "A039755: 28 terms checked against /dev/stdin: OK\n"

    def test_fetch_is_not_an_option(self):
        res = run_cli("oeis", "--seq", "A039755", "--fetch")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.endswith("error: unrecognized arguments: --fetch\n")


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("tables", "stirling", "--kind", "B", "--nmax", "4", "--format", "json"),
        ("verify", "--identity", "thm-4.2", "--nmax", "3", "--format", "md"),
        ("census", "--kind", "D", "--n", "2", "--m", "2", "--format", "csv"),
    ])
    def test_repeated_runs_are_byte_identical(self, args):
        first = subprocess.run(CLI + list(args), capture_output=True)
        second = subprocess.run(CLI + list(args), capture_output=True)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_json_keys_sorted(self):
        res = run_cli("census", "--kind", "B", "--n", "1", "--m", "1", "--format", "json")
        doc = json.loads(res.stdout)
        assert res.stdout.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestErrorLines:
    def test_negative_size_document_is_validation_error(self):
        res = run_cli("bijection", "inverse", "--doc", '{"kind":"B","n":-1,"blocks":[]}')
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: spots covered [] do not tile 1..-1"]

    def test_unexpected_exception_is_exit_4(self):
        code = (
            "import sys\n"
            "from bdstirling import cli\n"
            "def boom(args):\n"
            "    raise KeyError('x')\n"
            "cli.cmd_census = boom\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code, "census", "--kind", "B", "--n", "1", "--m", "1"],
            capture_output=True, text=True,
        )
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: internal error: KeyError: 'x'"]

    def test_reader_closing_early_ends_quietly(self):
        # several megabytes of csv, so the writer meets the closed pipe
        proc = subprocess.Popen(
            CLI + ["tables", "stirling", "--kind", "B", "--nmax", "400", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b"n,0,1,2,3,"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""

    def test_oserror_outside_the_writer_is_an_internal_error(self):
        def boom(args):
            raise BrokenPipeError(32, "Broken pipe")

        with mock.patch.object(cli, "cmd_oeis", boom):
            code, out, err = run_in_process(["oeis", "--seq", "A039755"])
        assert (code, out) == (4, "")
        assert err == "error: internal error: BrokenPipeError: [Errno 32] Broken pipe\n"

    def test_failed_write_is_not_a_fetch_failure(self):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        err = io.StringIO()
        with redirect_stdout(Full()), redirect_stderr(err):
            code = cli.main(["tables", "stirling", "--kind", "B", "--nmax", "3"])
        assert code == 3
        assert err.getvalue() == (
            "error: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    # Buffered, the bytes left unwritten meet the exit flush too.
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_device_is_a_failed_write(self, unbuffered):
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            res = subprocess.run(
                CLI + ["tables", "stirling", "--kind", "B", "--nmax", "3"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert res.returncode == 3
        assert res.stderr == (
            "error: cannot write output: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    def test_closed_stdout_is_a_failed_write(self, fmt):
        command = shlex.join(
            [*CLI, "tables", "stirling", "--kind", "B", "--nmax", "3", "--format", fmt])
        res = subprocess.run(["sh", "-c", command + " >&-"], capture_output=True, text=True)
        assert res.returncode == 3
        assert res.stderr == "error: cannot write output: stdout is closed\n"

    def test_unreadable_stdin_is_usage_error(self, tmp_path):
        # descriptor 0 opened for writing only: reading it fails with EBADF
        with open(tmp_path / "stdin", "w") as write_only:
            res = subprocess.run(CLI + ["bijection", "inverse"], stdin=write_only,
                                 capture_output=True, text=True)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == (
            "error: cannot read the document from stdin: [Errno 9] Bad file descriptor\n")

    def test_inverse_with_no_doc_and_closed_stdin_is_usage_error(self):
        out, err = io.StringIO(), io.StringIO()
        # a closed descriptor 0 leaves sys.stdin None
        with redirect_stdout(out), redirect_stderr(err), \
                mock.patch.object(sys, "stdin", None):
            code = cli.main(["bijection", "inverse"])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == "error: inverse needs --doc when stdin is closed\n"

    def test_line_breaks_in_a_message_stay_on_one_line(self):
        doc = json.dumps({"kind": "a\nb", "n": 1, "blocks": []})
        code, out, err = run_in_process(["bijection", "inverse", "--kind", "B", "--doc", doc])
        assert (code, out) == (2, "")
        assert err == "error: --kind B disagrees with document kind a b\n"
        code, out, err = run_in_process(["oeis", "--seq", "A039755", "x\ny"])
        assert (code, out) == (2, "")
        assert err == "bdstirling: error: unrecognized arguments: x y\n"


@pytest.mark.parametrize("argv, glued", [
    (["--perm", "-2,3,1", "bijection"], ["--perm=-2,3,1", "bijection"]),
    (["bijection", "forward", "--perm", "-2,3,1", "--kind", "B"],
     ["bijection", "forward", "--perm=-2,3,1", "--kind", "B"]),
    (["bijection", "forward", "--kind", "D", "--perm", "-1"],
     ["bijection", "forward", "--kind", "D", "--perm=-1"]),
    (["--perm", "1,2", "--spots", "-1"], ["--perm", "1,2", "--spots=-1"]),
    (["--doc", "-5"], ["--doc=-5"]),
    (["--perm", "--kind", "B"], ["--perm", "--kind", "B"]),
    (["bijection", "forward", "--perm"], ["bijection", "forward", "--perm"]),
    (["--perm", "--perm", "-1"], ["--perm", "--perm=-1"]),
    (["--perm", "-1", "-2"], ["--perm=-1", "-2"]),
    (["--perm", "-x"], ["--perm", "-x"]),
    (["--perm", "-"], ["--perm", "-"]),
    (["--m", "-1"], ["--m", "-1"]),
    ([], []),
])
def test_negative_values_are_glued_onto_their_flag(argv, glued):
    assert cli._glue_negative_values(argv) == glued


def pinned_examples():
    """(key, argv, stdin) for each README command line example in every
    --format it takes; the placeholder path is skipped.
    thm-1.2, which no README example runs, is pinned as well."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line")[1].split("```sh")[1].split("```")[0]
    for line in [*block.splitlines(), "bdstirling verify --identity thm-1.2"]:
        words = shlex.split(line, comments=True)
        stdin = ""
        if words[:1] == ["echo"]:
            stdin, words = words[1] + "\n", words[3:]
        argv = words[1:]
        if not argv or any(w.startswith("path/") for w in argv):
            continue
        if "--format" in argv:
            at = argv.index("--format")
            del argv[at : at + 2]
        formats = [()] if argv[0] == "bijection" else [
            ("--format", fmt) for fmt in ("md", "csv", "json")]
        for fmt in formats:
            yield shlex.join([*argv, *fmt]), [*argv, *fmt], stdin


PINNED_EXAMPLES = {key: (argv, stdin) for key, argv, stdin in pinned_examples()}

# SHA-256 of f"{exit code}\n{stdout}" for each pinned example.
PINNED_DIGESTS = {
    'bijection forward --kind B --perm -2,3,5,1,-4 --spots 1,2':
        '4290286361d851a59a1ef88c0922202d03d885a743f64776765e20d6e1ebb7d8',
    'bijection forward --kind D --perm -1,3,4,-2,-6,-5 --spots 1':
        'b47386aa6453833c5a20c8b65a6554cfd876d40f47c2b050bbc769ac8826d498',
    'bijection inverse':
        'ae84d26f5bdbd94cc27453ad13cbc98dff1f590771b28f794fc26fd38a01424a',
    'bijection inverse --doc \'{"kind":"B","n":2,"blocks":[[1,-1],[2],[-2]]}\'':
        'caf478d7bc7749d96272763dd594271bd7ca7a8a1b7d10cdfc3d5e791effa015',
    'census --kind B --n 2 --m 3 --format csv':
        '9f2eb76bc1d02f7b755af9cb25a5b468bc62dc492e22358fda4bb2c49fdf4c3d',
    'census --kind B --n 2 --m 3 --format json':
        'ceef41d19f368e046db7bb9f7aedab268d5072d83a99ac63d3e375fa3930d362',
    'census --kind B --n 2 --m 3 --format md':
        '6c475b6a61077337949a759238b19d6e089f8bb4bb6982230ca117872054332b',
    'census --kind D --n 3 --m 3 --format csv':
        'fb1f8b3cca5672345e8c8bf5b1d161f5b7362001791640f454ff205491933f1d',
    'census --kind D --n 3 --m 3 --format json':
        '84a69a77e3e4841f53f9e8b54260bee3ff2e696c5eb58b30d51463f82bffa31a',
    'census --kind D --n 3 --m 3 --format md':
        '1bc65358d684bf57e534b7a3b948774d7c2451b45638841ba47688d2392aebce',
    'census --kind G --n 2 --m 3 --t 5 --format csv':
        'eeb8dfb8795aedd97de05e0dfce086dfa5edc2c5eca6441f0cd78e1864bd62a9',
    'census --kind G --n 2 --m 3 --t 5 --format json':
        '21caa96e2f5c55bbbf1828b1159124d0023f744677af5a19d5d8e9120c85b015',
    'census --kind G --n 2 --m 3 --t 5 --format md':
        'aa0901d150586330ebb83356d3413bb786033d56ab063facfb1f04438f4fa3de',
    'oeis --seq A039755 --format csv':
        'e823362b6e8a981d01f80ce954ce6e971eac1e9946f42670b0ba90ea571fa029',
    'oeis --seq A039755 --format json':
        'ab86560031659edc03098aacc462494f23347a0112c547057b3d1e075a4b8c4b',
    'oeis --seq A039755 --format md':
        'e823362b6e8a981d01f80ce954ce6e971eac1e9946f42670b0ba90ea571fa029',
    'tables eulerian --kind D --nmax 5 --format csv':
        'a0ad63d55aba3778ddcd289a7feb6eba39d4319bc0a38a50fd0afada3c2226d7',
    'tables eulerian --kind D --nmax 5 --format json':
        '707065d9f4b2171208246ec456516fda0ff716a33dd4f3a1c7cd0743c9842fa1',
    'tables eulerian --kind D --nmax 5 --format md':
        'ca95365c35627722cccf970fd58cb6ab33b5852e08bded3f00dfc00addf48b05',
    'tables stirling --kind B --nmax 6 --format csv':
        'a9861996cd32c5f50ce2693a070519e95ddeacd460e14e22eca97371d3cab079',
    'tables stirling --kind B --nmax 6 --format json':
        'e7eb51e6ecb955a78153eb2a7611165985a71780451f1920cc88d4a4ef90ecf4',
    'tables stirling --kind B --nmax 6 --format md':
        '894d8349d4db0d0942ea77df0017e248dcde95a6aca78ecbb1c41bd2723fa367',
    'tables stirling --kind Bstar --nmax 4 --format csv':
        '567bc3885a808a39f720e1bee78dd31060a4893207282af7acc580a3dcf50ab2',
    'tables stirling --kind Bstar --nmax 4 --format json':
        '31b7f97bc831455c6fa325d833de2c3a668dd1d4ef72ac98e076d625b3b3526d',
    'tables stirling --kind Bstar --nmax 4 --format md':
        '718b020d6d300e81b28f241df3ed1e65942cda3f10097ea0a13b6d22f15241f2',
    'tables stirling --kind G --m 3 --nmax 5 --format csv':
        '4df11eb1d4839a9acf081230b48f2b600ce8ae3820b3934828c8de3a0824bf73',
    'tables stirling --kind G --m 3 --nmax 5 --format json':
        '568bb5506ec5221d186ede36348222b83794c244e00535ec8b650510d82b90dd',
    'tables stirling --kind G --m 3 --nmax 5 --format md':
        '09c00d0ef39380f9c8a2e07c323fbd55b1bf03a5c9b146dbe24441cbac8af258',
    'verify --identity thm-1.2 --format csv':
        'edcf077adf8c3263d430bbc2986cb5e812160d7657d42244ba561c8de4af76ce',
    'verify --identity thm-1.2 --format json':
        '9ea5d83492e984c9fc7fc7c4d1bc0f59cf7a944b44e909c1069f8fe8d664f5de',
    'verify --identity thm-1.2 --format md':
        '7bb7f2a97c6c918d6f6ed1af08350b60ee8f9ffb27d608307b12d9477e040cd0',
    'verify --identity thm-4.1 --nmax 6 --format csv':
        'bfd8f351769756047f0a070937a170c78396acf7a257c857746a2c2f4089c22c',
    'verify --identity thm-4.1 --nmax 6 --format json':
        'e3fab53c77e232ac74306bea6fb8f6085000988c18c66e01ecca048027ba0340',
    'verify --identity thm-4.1 --nmax 6 --format md':
        '4253a1d3576738108bdec0111da5d5e2f21987a7c038a10cd526f035d350e184',
    'verify --identity thm-6.11-report --nmax 4 --format csv':
        '6ae3b7c523a269c5bdd788a5c3ce57e67d3d996d854d2145929813016089f641',
    'verify --identity thm-6.11-report --nmax 4 --format json':
        '9d4436d6034cc1d8831aa17cf4b4930215e2069cc20aa7c126a68ac59672fb1f',
    'verify --identity thm-6.11-report --nmax 4 --format md':
        '70bce7be936b27e1cf6a6b10f263c4eb2765957b11a9dc70bba92ad978662956',
    'verify --identity thm-6.9 --m 4 --nmax 4 --format csv':
        'b70028c0b238ffe08260df1dec74d0b9f11b68c17b1401c0cdea20b19cd4260a',
    'verify --identity thm-6.9 --m 4 --nmax 4 --format json':
        'b5eebd30ebd92ff917cbe4118691cccfb19c9d40c83c836f3a323ba51313295f',
    'verify --identity thm-6.9 --m 4 --nmax 4 --format md':
        '60cdb7dd5f7cfac9813afadfdf1d00a1f9b2647fcc831834c71261b6799b1ede',
}


class TestPinnedExamples:
    def test_every_example_is_pinned(self):
        assert sorted(PINNED_EXAMPLES) == sorted(PINNED_DIGESTS)

    @pytest.mark.parametrize("key", sorted(PINNED_EXAMPLES))
    def test_output_is_unchanged(self, key):
        code, out, _ = run_in_process(*PINNED_EXAMPLES[key])
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == PINNED_DIGESTS[key]


# SHA-256 of f"{exit code}\n{stdout}" for censuses over the cube, the torus
# and the cap, recorded from the census that classified every point.
CENSUS_DIGESTS = {
    'census --kind B --n 2 --m 40 --format md':
        'ef8f78fb1348e5a126b4a66d3db22b641f9cfb7b3ada1578613754087d5b0785',
    'census --kind B --n 2 --m 40 --format csv':
        '8e7113f14f5fe65ac9ab10ad96abaa2a48b080264f30eeb88f61132997be6b09',
    'census --kind B --n 2 --m 40 --format json':
        '7fc83c9437ccd1a3b08b4670c204e5362bd156cc624d57828e91991fbc5e028d',
    'census --kind B --n 4 --m 5 --format md':
        '0f64ba3f220a5d98306064d4b598b9b4d62a1938482c583cfecf486fb94cc6b3',
    'census --kind B --n 4 --m 5 --format csv':
        '4fe08798e1fe8e9e8ae339e897785a0f2cb6788bb9a84158de02e82065064d72',
    'census --kind B --n 4 --m 5 --format json':
        '0f01e23f92679742f24ff7d475ffa07b397862a6b36d8ea848e4bdcea72b4024',
    'census --kind B --n 6 --m 2 --format md':
        'e267e6d7b13d177a1eb75a50250da8516742fb789df861d63c2f71901d6df20e',
    'census --kind B --n 6 --m 2 --format csv':
        'efc85fae10c3a662ad7724f893d28608d9191a6b37befa84aab1d726498e2bc5',
    'census --kind B --n 6 --m 2 --format json':
        '54f99eea34e871bc9b161171b68efb4f6e395dd67f52a9db095d6079b8afc12c',
    'census --kind B --n 3 --m 0 --format md':
        '115e2efc932a1f7a42cb5c79ed2bb503afc6a8d07ebe4c5b86a124f24d3bca09',
    'census --kind B --n 3 --m 0 --format csv':
        '9032dc6a8258dc0be92a2f43a5e9cdb3ab3c59466666b786535932c42017ab58',
    'census --kind B --n 3 --m 0 --format json':
        '025e68ee89407d892a5742c1871ceee026b45e87fbeaf60cda1084ac142170c6',
    'census --kind D --n 2 --m 40 --format md':
        '7ec888e58013ac80c339d72997142f59b78a5a733b69d472be71e116982a1d7a',
    'census --kind D --n 2 --m 40 --format csv':
        '195fd376ae468803f3858829657b050abc67c952acf68ebfd91f2c0841961488',
    'census --kind D --n 2 --m 40 --format json':
        '24d16986dc05229506f77ece9a2d4faafa1072557d6f53e7a24030cc8c48b04a',
    'census --kind D --n 4 --m 5 --format md':
        'c48efc1bc6e93511286aa2b5d5bd9d2ce79b62a949ab88b0b9c4065571d9bc9e',
    'census --kind D --n 4 --m 5 --format csv':
        '8c409a23a83b27721ac0e4344811bdbcb55a0796f39531cb81d1e7d5a87d7c03',
    'census --kind D --n 4 --m 5 --format json':
        '08ec16662fbd3da106160a5b20b28b8ae23e91aec49a90ea203305fda8d1120e',
    'census --kind D --n 6 --m 2 --format md':
        'f01e06da7365135438f1a1f7e8c20aca857eac4c8e28282d2c5037e7940d654f',
    'census --kind D --n 6 --m 2 --format csv':
        '9029830b54f90d41aa74b39f3dd59c4de808497165dbae4fdcaa09e7aa14b1ad',
    'census --kind D --n 6 --m 2 --format json':
        'aea3b5f97bca19d756de94f4f62199cd2e3d4dcdbc5acfc03c4d647031becd4f',
    'census --kind D --n 3 --m 0 --format md':
        '115e2efc932a1f7a42cb5c79ed2bb503afc6a8d07ebe4c5b86a124f24d3bca09',
    'census --kind D --n 3 --m 0 --format csv':
        '9032dc6a8258dc0be92a2f43a5e9cdb3ab3c59466666b786535932c42017ab58',
    'census --kind D --n 3 --m 0 --format json':
        '7ed1d84cce82b055442d790de35a887b433d330d77db7d0c3a6ab241741fb16e',
    'census --kind G --n 3 --m 2 --t 5 --format md':
        '26d0aa004c325679e51ba8311f097eacec420bb55638d73efd11e96640277c8a',
    'census --kind G --n 3 --m 2 --t 5 --format csv':
        'deca436771ddff8034d4d477779be931c18b3eae8d910ff655ad4e3ac6484bab',
    'census --kind G --n 3 --m 2 --t 5 --format json':
        'c8c320ba5faab3f8078903151b3fe25d8d1917de255f6a594f485eedc63560d0',
    'census --kind G --n 4 --m 3 --t 2 --format md':
        '3189741542492cd590b9bee6e48f10d52008ca7991824e9a27ebb841a0f11eea',
    'census --kind G --n 4 --m 3 --t 2 --format csv':
        '6c420106f686d525208d0be81e2376f1d1ba2c6bca3ce8a495649b3a758deca8',
    'census --kind G --n 4 --m 3 --t 2 --format json':
        'b0eea7f3a12c6bfecc13bdcb3151e9081ff8f95b9e379630efc1a237551cb329',
    'census --kind B --n 9 --m 4 --format md':
        '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
    'census --kind B --n 9 --m 4 --format csv':
        '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
    'census --kind B --n 9 --m 4 --format json':
        '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3',
}


@pytest.mark.parametrize("key", sorted(CENSUS_DIGESTS))
def test_census_output_is_unchanged(key):
    code, out, _ = run_in_process(key.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == CENSUS_DIGESTS[key]


# SHA-256 of f"{exit code}\n{stdout}" for the basis-change identities,
# recorded when every falling factorial was rebuilt for every (n, k).
BASIS_DIGESTS = {
    'verify --identity thm-1.2 --format md':
        '7bb7f2a97c6c918d6f6ed1af08350b60ee8f9ffb27d608307b12d9477e040cd0',
    'verify --identity thm-1.2 --format csv':
        'edcf077adf8c3263d430bbc2986cb5e812160d7657d42244ba561c8de4af76ce',
    'verify --identity thm-1.2 --format json':
        '9ea5d83492e984c9fc7fc7c4d1bc0f59cf7a944b44e909c1069f8fe8d664f5de',
    'verify --identity thm-1.2 --nmax 36 --format md':
        'f5c78ad3fc4d5cb8df2d82ac63eb795eb51a83c05c6b94de60d94ec655d9ff4c',
    'verify --identity thm-1.2 --nmax 36 --format csv':
        '4cd103d20e8e7fc23cd537cdda6f0eb59cdeccd2e6d6e90dc8386fcc74f7c272',
    'verify --identity thm-1.2 --nmax 36 --format json':
        '5bd330f34bcb7bf468fb6783b93cc0b6499eda183cc2b503f9ae3f4d27fcd91f',
    'verify --identity thm-5.1 --format md':
        'fb3e3b76843fe6ddcf896310310806570d2cf1d9f57b1d1faf590731c500ea16',
    'verify --identity thm-5.1 --format csv':
        'edcf077adf8c3263d430bbc2986cb5e812160d7657d42244ba561c8de4af76ce',
    'verify --identity thm-5.1 --format json':
        '509d3b23ce64a1bf33abc086e9be3610cbaedc290219af4a62ac316388495d20',
    'verify --identity thm-5.1 --nmax 36 --format md':
        '2722fc1172f4e67124e625ae5e53ece80077787dacb7b7d8c3fde391f26675bd',
    'verify --identity thm-5.1 --nmax 36 --format csv':
        '4cd103d20e8e7fc23cd537cdda6f0eb59cdeccd2e6d6e90dc8386fcc74f7c272',
    'verify --identity thm-5.1 --nmax 36 --format json':
        '1a63742b40fcd5b03e18c1ae7cdbfcc9aad4ef34043b668c923e4fd7c0deddc9',
    'verify --identity thm-5.3 --format md':
        '8909ec61444823220b40dcb24cceb823088df9cae52e5671d347151a9e8191b7',
    'verify --identity thm-5.3 --format csv':
        'edcf077adf8c3263d430bbc2986cb5e812160d7657d42244ba561c8de4af76ce',
    'verify --identity thm-5.3 --format json':
        'fc6ac62e2f11bd5dc329e91c5cbfa890d11f5326e559c5c6ac734729a34d0473',
    'verify --identity thm-5.3 --nmax 36 --format md':
        'a5d4c91473a8f86d9076fcafb0d5aad0e5926d8d3596b311550842571354245d',
    'verify --identity thm-5.3 --nmax 36 --format csv':
        '4cd103d20e8e7fc23cd537cdda6f0eb59cdeccd2e6d6e90dc8386fcc74f7c272',
    'verify --identity thm-5.3 --nmax 36 --format json':
        'be6df22dd9e7e55ab8c86247525fc87d55d0d78b5d876c3568cbc45e8c5c7d68',
    'verify --identity thm-6.10 --m 3 --format md':
        'e4e05c52feae29090f4bd9f891a6b1f611bbe2c769d253cd7b273ae7bc526057',
    'verify --identity thm-6.10 --m 3 --format csv':
        'b9c4a0db92e5a7ae4ff6a93a6ceac44b77c396983913b82364de36868f06395d',
    'verify --identity thm-6.10 --m 3 --format json':
        '3fa06a0d9e7cf0c0700ad67d16635e8b3482519f587ef7bff3a651ce31fe74a7',
    'verify --identity thm-6.10 --m 3 --nmax 36 --format md':
        '9e5b9632f292d493a53bc7472c940d5cd78a0b742f0806619cafc28f1acd3c24',
    'verify --identity thm-6.10 --m 3 --nmax 36 --format csv':
        'b2020c2dc229f992258b7fe62297498fe347725cdea45f9b33b093078159ecb3',
    'verify --identity thm-6.10 --m 3 --nmax 36 --format json':
        'a399b02d395a70148cf344fa69c1b5a69ae436fac1b4d57a059e5f9493cf4c83',
}


@pytest.mark.parametrize("key", sorted(BASIS_DIGESTS))
def test_basis_verify_output_is_unchanged(key):
    code, out, _ = run_in_process(key.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == BASIS_DIGESTS[key]


# SHA-256 of f"{exit code}\n{stdout}" for the Eulerian tables and the
# identities that read descent histograms, recorded when the histograms
# walked every element of the group.
EULERIAN_DIGESTS = {
    'tables eulerian --kind A --nmax 9 --format md':
        'da5017ea212c0dc8fefc244206564d6110b3424a9655037d1c49ea17be1892ce',
    'tables eulerian --kind A --nmax 9 --format csv':
        '48159a652d1acaec258bb6c4198a6e0e836bdc3e1ae9087dab749b053a66de3a',
    'tables eulerian --kind A --nmax 9 --format json':
        '09011f4fe8515e8d31eed801a9efa10605bc78d06e356b33eb48de86a7efbe48',
    'tables eulerian --kind B --nmax 7 --format md':
        '73850acfee2af94857713d544523f4e3f76c8fa09cce3202fc4c96707b5a50d7',
    'tables eulerian --kind B --nmax 7 --format csv':
        'eead89e47f36822810fddf65e9351557434a52f968ce3829aab64e1d2217776f',
    'tables eulerian --kind B --nmax 7 --format json':
        '5a9cb8e887fb8ced04379acbd9130e1814b7d76a9a6427c7f6e6a2c295215375',
    'tables eulerian --kind D --nmax 7 --format md':
        '8678ce7fe95c6c427da7a746040bb9215aa38cc47707b7a5174910f2a714c0aa',
    'tables eulerian --kind D --nmax 7 --format csv':
        '446d8cb7b169823e3f985bd6296e96f86989a1f01326e25729347381fe27ee57',
    'tables eulerian --kind D --nmax 7 --format json':
        'd34df53be9c699361dd5a8e560175492565acb1bd4bc4a0890f9885a2171b0a1',
    'tables eulerian --kind G --m 3 --nmax 5 --format md':
        '580c606fc2daa53985fd636ef1818e655cf6408ee429fde80d15abf666a3fa83',
    'tables eulerian --kind G --m 3 --nmax 5 --format csv':
        'a28501bf4eea7e8cbe3695c64ccef07eeb62ca888cd01282ed1f6b2b558fdca4',
    'tables eulerian --kind G --m 3 --nmax 5 --format json':
        '79af225abd921b4c0284e37097aea30077734d6e08c7de7dfe74dbdd1f1e497a',
    'tables eulerian --kind G --m 4 --nmax 4 --format md':
        'fa3d4e212459613a9b54fff3a9596c926d1d275a2eeb2b6cc47e94a129cf6a14',
    'tables eulerian --kind G --m 4 --nmax 4 --format csv':
        'fcbc95631fb0b11042afc543626435c1ce10f831ff47027d0c18e08680a41da2',
    'tables eulerian --kind G --m 4 --nmax 4 --format json':
        '79a01827ac3307d5fc1054080603ae7a5102d8f6ae5bde26c253b150f3a7e435',
    'tables eulerian --kind Bstar --nmax 6 --format md':
        '92ad40f8af6c4a2540b56ed0d8af5ec0e9cecf20db35cbe7e21ea57e37b03c79',
    'tables eulerian --kind Bstar --nmax 6 --format csv':
        '947f3893b2ae370da1ff4f35d0535551944db5ff1260e9509288da0e89bce704',
    'tables eulerian --kind Bstar --nmax 6 --format json':
        'bfaccdec6264189bb96791eedd169c221cd29b2c8b5bec5152a5671d8dadedfe',
    'verify --identity thm-1.1 --format md':
        'adc20d0e9044742dfecadab4994f2ac68ac94c139c5175e02ad6c83b57def31b',
    'verify --identity thm-1.1 --format csv':
        'e8dd7c1adc24bb1a14abe8b889839f9caefe4ff140fe5dbb69dcb391073152b5',
    'verify --identity thm-1.1 --format json':
        'aef0b811337ca81fcc7c3f9f39ac93301b983fed508ee9f6b7330694d353796b',
    'verify --identity thm-4.1 --format md':
        '4253a1d3576738108bdec0111da5d5e2f21987a7c038a10cd526f035d350e184',
    'verify --identity thm-4.1 --format csv':
        'bfd8f351769756047f0a070937a170c78396acf7a257c857746a2c2f4089c22c',
    'verify --identity thm-4.1 --format json':
        'e3fab53c77e232ac74306bea6fb8f6085000988c18c66e01ecca048027ba0340',
    'verify --identity thm-4.2 --format md':
        '5cacb052ffcef8366b883d3e25ca548fcbe5e164e4104e16b7f6097b67f0c6d2',
    'verify --identity thm-4.2 --format csv':
        'f9d694e8fcea6ae2b3e7bad94f0fd519631c3133e8ff9577289905290fd88648',
    'verify --identity thm-4.2 --format json':
        '1f59aa61cbed906caede3f9c284769989835081c3dec9051ce2b97727bbddee3',
    'verify --identity cor-4.3 --format md':
        '750532f957a8c727d11dc179c00e59b7d5779567ffcad4d10344397e1dcec9e3',
    'verify --identity cor-4.3 --format csv':
        'cf253d9f8dd97e3ebc9ad93a7d35ee44f20f67dd406cc1ab9bdd0310715b3e13',
    'verify --identity cor-4.3 --format json':
        'ca4731e7d871d3179d79ee812df17985649372c8ab772f0ba0f212697e4e0952',
    'verify --identity cor-4.4 --format md':
        '595823ec6d969df1a3b0d77976346a6f3813d7ea9a256178b88a4684b853744e',
    'verify --identity cor-4.4 --format csv':
        'ac78a6d6f7732868ce72b3892e1bb1fedc6471dec90d9871471b45c704919f33',
    'verify --identity cor-4.4 --format json':
        '5ea26dad5e2b5702c823ab5d8bbf4d3d0840bf8e1472de5ae7198ee9cc15ef22',
    'verify --identity eq-4 --format md':
        '1715c1a49c2c0cc6f1474ed91aec453e9eb26d0861c9dc691e679dc0133e6a46',
    'verify --identity eq-4 --format csv':
        '354fff9d499c69cb506c97b17ae732a33a126c5a4a45161fe583804fd7351a9a',
    'verify --identity eq-4 --format json':
        'e66306b1ed485df943c021fffdcaf8209571612ee4d501188786ee2550ceb1ef',
    'verify --identity thm-6.9 --m 3 --format md':
        '82b0de25db9876053847d7d585811680c58d97fa97bd5892c917db8a537278d9',
    'verify --identity thm-6.9 --m 3 --format csv':
        '17cd5abbf95056cb5465bea745c8fa483a6cab97198f4a77e17a727b35a0a7e3',
    'verify --identity thm-6.9 --m 3 --format json':
        'd18e4509373058bd9bdac954da5a52d416bddb0f174badc20dc65add5252a2b9',
    'verify --identity thm-6.11-report --format md':
        '70bce7be936b27e1cf6a6b10f263c4eb2765957b11a9dc70bba92ad978662956',
    'verify --identity thm-6.11-report --format csv':
        '6ae3b7c523a269c5bdd788a5c3ce57e67d3d996d854d2145929813016089f641',
    'verify --identity thm-6.11-report --format json':
        '9d4436d6034cc1d8831aa17cf4b4930215e2069cc20aa7c126a68ac59672fb1f',
    'verify --identity thm-1.1 --nmax 9 --format json':
        '67cae2824adeab17779b2aee1cba10125bc47428b468f8271d00dab6cb82b4a2',
    'verify --identity eq-4 --nmax 9 --format json':
        'c66866f52f490e15914518cd21ba4ab761c3f64bf3f347dfad840e7585c56fb8',
    'verify --identity thm-4.1 --nmax 7 --format json':
        '612e65a7193e9443bff68e5d7b9e0afbaa7ded5df4c6b48d1eb341d073d40bf8',
    'verify --identity thm-4.2 --nmax 7 --format json':
        '7899a276f44a6a4b9f580971ea8164c80f03f5fbe60c1f1f6a95aa30615aa2f7',
    'verify --identity cor-4.3 --nmax 7 --format json':
        '869d0ca41782eff5daa5f445bbcba20abb84a570b221fe90497b96f400c61a23',
    'verify --identity cor-4.4 --nmax 7 --format json':
        '1c51bcaa213deec383a75d7da38f3964a0ff560a657b94244f7f5a8e6d92f26f',
    'verify --identity thm-6.9 --m 4 --nmax 5 --format json':
        '1021392ee60ef9ffa25903d2b90df12066cf0cb8fe13cdc0a03b3ca8c36115b6',
    'verify --identity thm-6.11-report --nmax 6 --format json':
        'fae76abbae7773ba0777a5f1ad55bcf59e0f6cb544273f80771322e019cb4648',
}


@pytest.mark.parametrize("key", sorted(EULERIAN_DIGESTS))
def test_eulerian_output_is_unchanged(key):
    code, out, _ = run_in_process(key.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == EULERIAN_DIGESTS[key]


@pytest.mark.parametrize("argv", [
    "verify --identity thm-1.1 --nmax 0 --cap 0",
    "verify --identity eq-4 --nmax 0 --cap 0",
    "verify --identity thm-4.1 --nmax 0 --cap 0",
    "tables eulerian --kind A --n 0 --cap 0",
])
def test_empty_permutation_meets_the_cap(argv):
    # thm-1.1 and eq-4 passed here while the empty permutation of A and
    # Bstar skipped the cap check; every kind now exits 2 alike
    assert run_in_process(argv.split()) == (
        2, "", "error: group of order 1 exceeds cap 0\n")


@pytest.mark.parametrize("argv", [
    "tables stirling --kind A --nmax 1 --cap -1",
    "verify --identity thm-1.2 --nmax 1 --cap -1",
    "tables eulerian --kind A --n 2 --cap -1",
])
def test_negative_cap_is_one_line_usage_error(argv):
    code, out, err = run_in_process(argv.split())
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert err.endswith("error: argument --cap: must be nonnegative, got -1\n")


def test_census_over_the_cap_is_pinned():
    assert run_in_process("census --kind B --n 9 --m 4".split()) == (
        2, "", "error: census of 9**9 points exceeds cap 100000000\n")


def test_census_cap_sets_only_the_census_cap():
    # a census --cap above |B_8| but below 10^8 lowers the census cap, so it
    # needs no --allow-large; above 10^8 it does
    plain = run_in_process("census --kind B --n 2 --m 1".split())
    assert run_in_process("census --kind B --n 2 --m 1 --cap 50000000".split()) == plain
    assert run_in_process("census --kind D --n 6 --m 10 --cap 50000000".split()) == (
        2, "", "error: census of 21**6 points exceeds cap 50000000\n")
    code, out, err = run_in_process("census --kind B --n 2 --m 1 --cap 100000001".split())
    assert (code, out) == (2, "")
    assert err.endswith("acknowledge with --allow-large\n")
    for args in ("tables eulerian --kind B --nmax 3", "verify --identity thm-1.1 --nmax 2"):
        code, out, err = run_in_process(f"{args} --cap 50000000".split())
        assert (code, out) == (2, "")
        assert err.endswith("acknowledge with --allow-large\n")


HUGE = 10**20


@pytest.mark.parametrize("argv, message", [
    (f"census --kind B --n {HUGE} --m 1", f"census of 3**{HUGE} points exceeds cap 100000000"),
    (f"census --kind D --n {HUGE} --m 2", f"census of 5**{HUGE} points exceeds cap 100000000"),
    (f"census --kind G --n {HUGE} --m 2 --t 1",
     f"census of 3**{HUGE} points exceeds cap 100000000"),
    (f"census --kind B --n {HUGE} --m 0", f"census of 1**{HUGE} points exceeds cap 100000000 "
     f"(a point of {HUGE} coordinates counts as 2**{HUGE})"),
    *((f"tables eulerian --kind {kind} --n {HUGE}",
       f"group of order at least 2**{HUGE - 1} exceeds cap 10321920")
      for kind in ("A", "B", "D", "Bstar")),
    (f"tables eulerian --kind G --m 3 --n {HUGE}",
     f"group of order at least 2**{HUGE - 1} exceeds cap 10321920"),
    (f"tables eulerian --kind B --nmax {HUGE}",
     f"group of order at least 2**{HUGE - 1} exceeds cap 10321920"),
    # the cap 10321920 has 24 bits: n = 24 still gets its order, n = 25 does not
    ("tables eulerian --kind A --n 24",
     "group of order 620448401733239439360000 exceeds cap 10321920"),
    ("tables eulerian --kind B --n 25",
     "group of order at least 2**24 exceeds cap 10321920"),
    ("tables eulerian --kind B --n 9", "group of order 185794560 exceeds cap 10321920"),
], ids=["census-B", "census-D", "census-G", "census-one-value", "eulerian-A",
        "eulerian-B", "eulerian-D", "eulerian-Bstar", "eulerian-G", "eulerian-nmax",
        "order-at-24", "bound-at-25", "order-at-9"])
def test_huge_sizes_are_refused_before_any_power(argv, message):
    # a subprocess with a timeout, so a size that hangs fails fast
    res = subprocess.run(CLI + argv.split(), capture_output=True, text=True, timeout=20)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", f"error: {message}\n")


def test_one_value_census_counts_two_values_per_axis_against_the_cap():
    # --m 0 has a single point, but its n coordinates are built all the same
    code, out, err = run_in_process("census --kind B --n 5 --m 0 --cap 10".split())
    assert (code, out) == (2, "")
    assert err == ("error: census of 1**5 points exceeds cap 10 "
                   "(a point of 5 coordinates counts as 2**5)\n")


def _subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


SUBCOMMANDS = _subcommands()
JUNK = ["", "x", "1.5", "-", "1,2", "٣", "a\nb"]
BFILES = {
    "good.txt": b"0 1\n1 1\n2 1\n3 1\n4 4\n5 1\n",
    "bad.txt": b"0 1\n1 1\n2 1\n3 999\n",
    "far.txt": b"9999 1\n",
    "junk.txt": b"1 2 3\n",
    "words.txt": b"a b\n",
    "empty.txt": b"",
    "latin1.txt": b"0 \xff\n",
}
_ints = st.integers(-3, 3)
# Every character class the CLI treats specially: digits, ASCII and U+2212
# minus, comma, JSON punctuation, quotes, a letter, a newline and a
# non-ASCII digit.  A fixed alphabet spares Hypothesis its UTF-8 codec
# table, which took pytest's peak RSS from 49 to 253 MB on a fresh .hypothesis/.
_chars = "019-\u2212,{}[]:\"'x\n\u0663"
_any = st.one_of(st.none(), st.booleans(), _ints, st.text(_chars, max_size=3),
                 st.lists(_ints, max_size=2), st.sampled_from(["B", "D", "C"]))
_shaped = st.fixed_dictionaries({
    "kind": st.sampled_from(["B", "D"]),
    "n": st.integers(-2, 3),
    "blocks": st.one_of(st.just([]), st.lists(st.lists(_ints, max_size=3), max_size=4)),
})
_loose = st.dictionaries(st.sampled_from(["kind", "n", "blocks", "x"]), _any, max_size=4)
_texts = st.sampled_from(["{broken", "[]", "null", "3", '"B"', "",
                          '{"kind":"B","n":2,"blocks":[[1,-1],[2],[-2]]}',
                          '{"kind":"D","n":2,"blocks":[[1],[-1],[2],[-2]]}'])
# Mostly well-shaped documents, then loose objects and non-objects.
DOCS = st.integers(0, 9).flatmap(
    lambda i: _shaped.map(json.dumps) if i < 6
    else _loose.map(json.dumps) if i < 8 else _texts
)


def _mostly(valid):
    """A token from valid, or one time in ten from JUNK."""
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(JUNK if i == 0 else valid))


def _value(action):
    if action.dest == "doc":
        return DOCS
    if action.dest in ("perm", "spots"):
        windows = st.lists(_ints, max_size=4).map(lambda v: ",".join(map(str, v)))
        return st.integers(0, 9).flatmap(lambda i: st.sampled_from(JUNK) if i == 0 else windows)
    if action.dest == "fixture":
        return st.sampled_from([*BFILES, "missing.txt", "sub"]).map(PurePath)
    return _mostly(list(action.choices or ["-1", "0", "1", "2", "3"]))


@st.composite
def argvs(draw):
    """argv from the parser's own vocabulary: sizes in -1..3 or junk, every
    bijection with --doc, fixtures as PurePath
    names under a test directory."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, options = [name], []
    for action in SUBCOMMANDS[name]._actions:
        if action.dest == "help":
            continue
        if not action.option_strings:
            argv.append(draw(_mostly(list(action.choices))))
        elif action.dest == "doc" or draw(st.integers(0, 9)) < (9 if action.required else 5):
            flag = [draw(st.sampled_from(action.option_strings))]
            options.append(flag if action.nargs == 0 else flag + [draw(_value(action))])
    for option in draw(st.permutations(options)):
        argv += option
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from([*JUNK, "--stray"])))
    return argv


@pytest.fixture(scope="module")
def bfile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("bfiles")
    for name, body in BFILES.items():
        (root / name).write_bytes(body)
    (root / "sub").mkdir()
    return root


@settings(max_examples=250)
@given(argv=argvs())
def test_fuzzed_argv_ends_with_a_documented_code(argv, bfile_dir):
    argv = [str(bfile_dir / t) if isinstance(t, PurePath) else t for t in argv]
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    if code:
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)
    assert run_in_process(argv) == (code, out, err), argv
