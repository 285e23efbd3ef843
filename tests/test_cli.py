import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "bdstirling"]


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

    def test_rank_filter(self):
        res = run_cli("verify", "--identity", "thm-1.1", "--nmax", "4", "--rmax", "1",
                      "--format", "json")
        doc = json.loads(res.stdout)
        assert doc["passed"] is True
        assert all(inst["params"].get("r", 0) <= 1 for inst in doc["instances"])

    def test_skipped_sizes_are_reported(self):
        res = run_cli("verify", "--identity", "thm-4.2", "--nmax", "3")
        assert res.returncode == 0
        assert "skipped n=1" in res.stdout.splitlines()[-1]

    def test_report_only_identity_exits_zero_despite_mismatches(self):
        res = run_cli("verify", "--identity", "thm-6.11-report", "--nmax", "2")
        assert res.returncode == 0
        assert "report only" in res.stdout.splitlines()[-1]
        assert "mismatch" in res.stdout

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
            "bijections._blocks_from_cut_window = lambda window, separators: ()\n"
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

    def test_format_flag_is_gone(self):
        res = run_cli("bijection", "forward", "--kind", "B", "--perm", "1,2",
                      "--format", "csv")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1


class TestCensus:
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

    def test_missing_fixture_is_usage_error(self):
        res = run_cli("oeis", "--seq", "A039755", "--fixture", "/no/such/file.txt")
        assert res.returncode == 2

    def test_fetch_with_env_url(self, tmp_path):
        data = tmp_path / "b039760.txt"
        data.write_text("\n".join(
            f"{i} {v}" for i, v in enumerate([1, 0, 1, 1, 2, 1])) + "\n")
        res = run_cli("oeis", "--seq", "A039760", "--fetch",
                      env={"BDSTIRLING_OEIS_URL": f"file://{tmp_path}/b{{num}}.txt"})
        assert res.returncode == 0, res.stderr

    def test_fetch_failure_exit_code(self, tmp_path):
        res = run_cli("oeis", "--seq", "A039760", "--fetch",
                      env={"BDSTIRLING_OEIS_URL": f"file://{tmp_path}/nope_b{{num}}.txt"})
        assert res.returncode == 3


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
