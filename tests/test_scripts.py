"""The scripts under scripts/ still run against the library."""
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
