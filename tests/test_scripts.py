"""The scripts under scripts/ still run against the library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pairs as bench
from bdstirling.partitions import stirling_row
from census_report import colored_literal_row

from . import oracles

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize("argv", [
    ("verify_all.py", "--nmax", "3"),
    ("census_report.py",),
])
def test_script_runs_cleanly(argv):
    res = _run(*argv)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout


@pytest.mark.parametrize("argv, message", [
    (("--nmax", "-1"), "argument --nmax: must be nonnegative, got -1"),
    (("--m", "0"), "argument --m: must be at least 1, got 0"),
])
def test_verify_all_rejects_bad_sizes(argv, message):
    res = _run("verify_all.py", *argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("argv, message", [
    (("--half-width", "-1"), "argument --half-width: must be nonnegative, got -1"),
    (("--turns", "0"), "argument --turns: must be at least 1, got 0"),
])
def test_census_report_rejects_bad_sizes(argv, message):
    res = _run("census_report.py", *argv)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].endswith(message)


def test_bench_pairs_summary():
    assert bench.seed_list("1-3,7") == [1, 2, 3, 7]

    def run(wall, items):
        return {"failed": 0, "metrics": {"wall_ref": {"value": wall},
                                         "items_per_ref": {"value": items}}}

    pairs = {s: {"parent": run(10.0 + s, 5.0), "change": run(9.0 + s, 4.0 + s)}
             for s in (1, 2, 3, 4, 5)}
    specs = {"wall_ref": {"unit": "ref", "better": "lower"},
             "items_per_ref": {"unit": "1/ref", "better": "higher"}}
    got = bench.summary(pairs, specs)
    wall = got["wall_ref"]
    assert wall["parent"]["median"] == 13.0 and wall["change"]["median"] == 12.0
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (12.0, 14.0)
    assert wall["change_wins"] == "5/5"
    assert wall["median_delta"] == -1 / 13
    # 4 + s against 5: a tie at s = 1 counts for neither side
    assert got["items_per_ref"]["change_wins"] == "4/5"


def test_bench_pairs_gain_rule():
    spec = {"wall_ref": {"unit": "ref", "better": "lower"}}

    def summary(parent, change):
        pairs = {s: {side: {"metrics": {"wall_ref": {"value": v}}}
                     for side, v in (("parent", p), ("change", c))}
                 for s, (p, c) in enumerate(zip(parent, change), 1)}
        return bench.summary(pairs, spec)["wall_ref"]

    parent = [100.0 + s for s in range(10)]  # q1 102.25, q3 106.75
    # 9/10 wins and a median 5 lower, against a spread of 4.5: met
    met = summary(parent, [v - 5 for v in parent[:9]] + [parent[9]])
    assert (met["change_wins"], met["meets_gain_rule"]) == ("9/10", True)
    # the same medians with two ties: 8/10 wins, missed
    tied = summary(parent, [v - 5 for v in parent[:8]] + parent[8:])
    assert (tied["change_wins"], tied["meets_gain_rule"]) == ("8/10", False)
    # 10/10 wins by 4, within the parent's spread: missed
    near = summary(parent, [v - 4 for v in parent])
    assert (near["change_wins"], near["meets_gain_rule"]) == ("10/10", False)


def test_bench_pairs_help():
    res = _run("bench_pairs.py", "--help")
    assert res.returncode == 0 and "--parent" in res.stdout


def test_bench_pairs_unpacks_both_sides_as_siblings(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    for name, text in {"src/lib.py": "X = 1\n", "perfbench/run.py": "# harness\n"}.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                        "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src" / "lib.py").write_text("X = 2\n")  # uncommitted
    (repo / "untracked.txt").write_text("left out\n")
    monkeypatch.setattr(bench, "ROOT", str(repo))
    roots = bench.unpack_sides("HEAD", str(tmp_path / "tmp"))
    parent, change = (Path(roots[side]) for side in ("parent", "change"))
    assert parent.parent == change.parent == tmp_path / "tmp" and parent != change
    assert (parent / "src" / "lib.py").read_text() == "X = 1\n"
    assert (change / "src" / "lib.py").read_text() == "X = 2\n"
    assert (change / "perfbench" / "run.py").read_text() == "# harness\n"
    assert not (change / "untracked.txt").exists()


def test_unreached_fails_on_an_allowlist_entry_that_hides_nothing(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # unreached.py prepends to it
    import unreached

    mod = os.path.join(unreached.ROOT, "src", "bdstirling", "mod.py")
    f, g = (mod, 1, "f"), (mod, 9, "g")
    defined = {f: "mod.f", g: "mod.g"}
    monkeypatch.setattr(unreached, "ALLOWED", {"mod.g"})
    assert unreached.verdict(defined, {f}, []) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/bdstirling/mod.py:9: mod.g  (allowed)",
        "0 unreached outside the allowlist, 0 stale allowlist entries, 0 failed checks",
    ]
    monkeypatch.setattr(unreached, "ALLOWED", {"mod.f", "mod.h"})
    assert unreached.verdict(defined, {f}, []) == 1
    assert capsys.readouterr().out.splitlines() == [
        "src/bdstirling/mod.py:1: mod.f  (allowed, but reached)",
        "src/bdstirling/mod.py:9: mod.g",
        "allowed mod.h names no function",
        "1 unreached outside the allowlist, 2 stale allowlist entries, 0 failed checks",
    ]
    monkeypatch.setattr(unreached, "ALLOWED", {"mod.f"})
    assert unreached.verdict(defined, {f, g}, []) == 1


class TestLiteralColoredRule:
    """The literal colored count behind census_report.py's side note."""

    def test_prime_color_counts_coincide_with_strict(self):
        for n in range(8):
            for m in (2, 3, 5, 7):
                assert colored_literal_row(n, m) == stirling_row("G", n, m)

    @pytest.mark.parametrize(
        "n,m", [(0, 3), (1, 1), (1, 4), (1, 6), (1, 8), (1, 9), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    )
    def test_orbit_count_matches_brute_force(self, n, m):
        assert colored_literal_row(n, m) == oracles.colored_literal_row_by_partitions(n, m)

    def test_composite_color_count_differs(self):
        # a block family invariant under a proper shift power is literal
        # but not strict, so four colors admit one extra singleton family
        assert colored_literal_row(1, 4) == (1, 2)
        assert stirling_row("G", 1, 4) == (1, 1)

    def test_composite_color_count_n2(self):
        literal = colored_literal_row(2, 4)
        strict = stirling_row("G", 2, 4)
        assert literal[0] == strict[0] == 1
        assert all(a >= b for a, b in zip(literal, strict))
        assert literal != strict
