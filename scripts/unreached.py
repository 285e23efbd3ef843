#!/usr/bin/env python3
"""List the functions in src/bdstirling that no ordinary run enters.

Under a sys.setprofile hook, in this process, it runs:
- the CLI: every subcommand, every kind, and every output format;
- scripts/verify_all.py and scripts/census_report.py;
- one checked pass of each benchmark workload (perfbench/workloads.py),
  and the layer probe (perfbench/probe.py).

It then prints each function defined in src/bdstirling, nested ones
included, that was never entered.  The exit status is 1 when one of them is
not in ALLOWED, or when a run fails its own check; else 0.  It takes some
10 s on one core of a 2-core x86 VM:

    python scripts/unreached.py
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import bdstirling  # noqa: E402
from bdstirling.cli import main as cli_main  # noqa: E402
from bdstirling.identities import IDENTITIES  # noqa: E402
from bdstirling.oeis import SEQUENCES  # noqa: E402

# Functions no ordinary run enters, each for a stated reason.
ALLOWED = {
    # They name the first fault in outside input; valid input takes the
    # one-pass accept check instead.
    "partitions._canonical_pairs",
    "partitions._canonical_orbits",
    "bijections._diagnosed_blocks",
    # Only a usage error reaches them.
    "cli._one_line",
    "cli._Parser.error",
    # The paper's rank r of an ordered partition, named as on BPartition
    # and GPartition and read by the README quick tour; the procedures
    # count its class blocks directly.
    "bijections.OrderedPartition.r",
}

KINDS = ("A", "B", "D", "G", "Bstar")
FORMATS = ("md", "csv", "json")
DOC_B = {"kind": "B", "n": 2, "blocks": [[-1, 1], [2], [-2]]}
DOC_D = {"n": 3, "blocks": [[1], [-1], [2, 3], [-2, -3]]}
DOC_D_UNREACHABLE = {"kind": "D", "n": 2, "blocks": [[1], [-1], [-2], [2]]}
CLI_RUNS = [
    *(["tables", table, "--kind", kind, "--nmax", "4", "--m", "3"]
      for table in ("stirling", "eulerian") for kind in KINDS),
    *(["tables", "stirling", "--kind", "B", "--n", "5", "--format", fmt]
      for fmt in FORMATS),
    ["tables", "eulerian", "--kind", "D", "--n", "5", "--cap", "100000"],
    *(["verify", "--identity", name] for name in sorted(IDENTITIES)),
    ["verify", "--identity", "thm-4.1", "--format", "json"],
    ["bijection", "forward", "--kind", "B", "--perm", "-2,3,5,1,-4", "--spots", "1,2"],
    ["bijection", "forward", "--kind", "D", "--perm", "-2,3,5,1,-4", "--spots", "0"],
    ["bijection", "inverse", "--doc", json.dumps(DOC_B)],
    ["bijection", "inverse", "--kind", "D", "--doc", json.dumps(DOC_D)],
    ["bijection", "inverse", "--doc", json.dumps(DOC_D_UNREACHABLE)],
    ["census", "--kind", "B", "--n", "3", "--m", "2"],
    ["census", "--kind", "D", "--n", "3", "--m", "2", "--format", "csv"],
    ["census", "--kind", "G", "--n", "2", "--m", "3", "--t", "2", "--format", "json"],
    *(["oeis", "--seq", seq] for seq in sorted(SEQUENCES)),
]
SCRIPTS = ("verify_all.py", "census_report.py")


def defined_functions() -> dict:
    """(file, first line, qualified name) -> dotted name, for every function
    compiled from the package's sources."""
    package = os.path.dirname(os.path.realpath(bdstirling.__file__))
    found = {}
    for entry in sorted(os.listdir(package)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(package, entry)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # functions and methods, not class bodies, lambdas or comprehensions
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (path, code.co_firstlineno, code.co_qualname)
                found[key] = f"{entry[:-3]}.{code.co_qualname}"
    return found


def run_everything() -> list[str]:
    """Make every run; return the failures of their own checks."""
    import probe
    import workloads
    from tracing import NullTracer, Tracer

    failures = []
    sink = io.StringIO()
    for argv in CLI_RUNS:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        if code != 0:
            failures.append(f"cli {' '.join(argv)} exited {code}")
    for script in SCRIPTS:
        path = os.path.join(ROOT, "scripts", script)
        saved, sys.argv = sys.argv, [path]
        try:
            with contextlib.redirect_stdout(sink):
                runpy.run_path(path, run_name="__main__")
        except SystemExit as e:
            if e.code:
                failures.append(f"{script} exited {e.code}")
        finally:
            sys.argv = saved
    checks = workloads.Checks()
    digests = workloads.load_digests()["workloads"]
    for name, w in workloads.WORKLOADS.items():
        inputs = w["prepare"](1, workloads.SIZES[name])
        _, raw = w["work"](NullTracer(), inputs, checks)
        w["check"](raw, checks)
        got = workloads.digest(w["canonical"](raw))
        checks.expect(got == digests[name], f"{name} digest {got}")
    probe.run(Tracer(), checks)
    return failures + checks.first


def main() -> int:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        failures = run_everything()
    finally:
        sys.setprofile(None)
    reached = {
        (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
        for c in entered
    }
    unexpected = 0
    for (path, line, qualname), name in sorted(defined_functions().items()):
        if (path, line, qualname) in reached:
            continue
        allowed = name in ALLOWED
        unexpected += not allowed
        where = os.path.relpath(path, ROOT)
        print(f"{where}:{line}: {name}{'  (allowed)' if allowed else ''}")
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"{unexpected} unreached outside the allowlist, {len(failures)} failed checks")
    return 1 if unexpected or failures else 0


if __name__ == "__main__":
    sys.exit(main())
