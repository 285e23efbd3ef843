"""The scripts under scripts/ still run against the library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ("verify_all.py", "--nmax", "3"),
    ("census_report.py",),
])
def test_script_runs_cleanly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout
