#!/usr/bin/env python3
"""List the functions in src/bdstirling that no ordinary run enters.

Under a sys.setprofile hook, in this process, it runs:
- the CLI: every row of the golden corpus, tests/golden/cli.txt, with its
  stdin, checked against the outcome the row records;
- scripts/verify_all.py and scripts/census_report.py;
- one checked pass of each benchmark workload (perfbench/workloads.py),
  and the layer probe (perfbench/probe.py).

It then prints each function defined in src/bdstirling, nested ones
included, that was never entered, and each entry of ALLOWED that was
entered or names no function, since such an entry hides nothing.  The exit
status is 1 when an unreached function is not in ALLOWED, when an entry of
ALLOWED is printed, or when a run fails its own check; else 0.  It takes
some 10 s on one core of a 2-core x86 VM:

    python scripts/unreached.py
"""
from __future__ import annotations

import contextlib
import inspect
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import bdstirling  # noqa: E402
import golden  # noqa: E402

# Functions no ordinary run enters, each for a stated reason.
ALLOWED = {
    # It names the first fault in a colored partition built from outside
    # input, which no CLI run takes; valid input takes the one-pass accept
    # check instead.
    "partitions._canonical_orbits",
    # The paper's rank r of an ordered partition, named as on BPartition
    # and GPartition; tests/test_exports.py reads it after it runs the
    # README quick tour, and the procedures count its class blocks directly.
    "bijections.OrderedPartition.r",
    # D membership of a signed permutation, the element API that
    # tests/test_groups.py reads; enumerate_group reads the parity of a raw
    # window before it builds an element, and the procedures read it inside
    # the signed descent memo, so no ordinary run asks an element.
    "groups.SignedPermutation.negative_count",
    "groups.SignedPermutation.is_even_signed",
}

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
    for line in golden.CORPUS.read_text(encoding="utf-8").splitlines():
        if golden.is_row(line):
            row = golden.parse(line)
            got = golden.run(row)
            if got != row.result:
                failures.append(f"{golden.render(row)} now gives {got}")
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
    return verdict(defined_functions(), reached, failures)


def verdict(defined: dict, reached: set, failures: list[str]) -> int:
    """Print the unreached functions, the entries of ALLOWED that hide
    nothing and the failed checks; return the exit status."""
    unexpected = stale = 0
    for key, name in sorted(defined.items()):
        where = f"{os.path.relpath(key[0], ROOT)}:{key[1]}: {name}"
        if key not in reached:
            allowed = name in ALLOWED
            unexpected += not allowed
            print(f"{where}{'  (allowed)' if allowed else ''}")
        elif name in ALLOWED:
            stale += 1
            print(f"{where}  (allowed, but reached)")
    for name in sorted(ALLOWED - set(defined.values())):
        stale += 1
        print(f"allowed {name} names no function")
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"{unexpected} unreached outside the allowlist, {stale} stale allowlist"
          f" entries, {len(failures)} failed checks")
    return 1 if unexpected or stale or failures else 0


if __name__ == "__main__":
    sys.exit(main())
