"""The scripts under scripts/ still run against the library."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    bench = _bench_pairs()
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
    bench = _bench_pairs()
    monkeypatch.setattr(bench, "ROOT", str(repo))
    roots = bench.unpack_sides("HEAD", str(tmp_path / "tmp"))
    parent, change = (Path(roots[side]) for side in ("parent", "change"))
    assert parent.parent == change.parent == tmp_path / "tmp" and parent != change
    assert (parent / "src" / "lib.py").read_text() == "X = 1\n"
    assert (change / "src" / "lib.py").read_text() == "X = 2\n"
    assert (change / "perfbench" / "run.py").read_text() == "# harness\n"
    assert not (change / "untracked.txt").exists()
