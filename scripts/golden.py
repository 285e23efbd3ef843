#!/usr/bin/env python3
"""Rerun the golden CLI corpus, tests/golden/cli.txt, and write back what
each row prints.

A row is one command line, then "  # ", its exit code, the SHA-256 of its
stdout and its stderr, which is one line or nothing:

    bdstirling census --kind B --n 9 --m 4  # 2 e3b0...b855 error: census of ...

A leading "echo WORD |" gives the run WORD and a newline on stdin, as in the
README.  A leading "subprocess" marks a row that the tests also run as
`python -m bdstirling` in a child, once under each hash seed in SEEDS, with
a timeout.  Lines that are blank or start with "#" are kept as they are.

The script adds each README command line example that the corpus lacks, in
every --format it takes, runs every row in process through cli.main and
writes the file back.  It takes no options; review the result with git diff.
The tests read the file and never write it.

    python scripts/golden.py
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
import shlex
import subprocess
import sys
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bdstirling import cli  # noqa: E402

CORPUS = ROOT / "tests" / "golden" / "cli.txt"
README = ROOT / "README.md"
SEEDS = ("0", "1", "77")
TIMEOUT = 20  # seconds a child may run, so that a hang fails fast


class Row(NamedTuple):
    argv: tuple[str, ...]
    stdin: str = ""
    subprocess: bool = False
    result: str = ""  # exit code, stdout digest and stderr line, as written


def is_row(line: str) -> bool:
    return bool(line) and not line.startswith("#")


def parse(line: str) -> Row:
    """The row a corpus line or a README example writes; the leading
    "bdstirling" may be left out."""
    words = shlex.split(line, comments=True)
    marked = words[:1] == ["subprocess"]
    words, stdin = words[marked:], ""
    if words[:1] == ["echo"]:
        stdin, words = words[1] + "\n", words[3:]
    words = words[words[:1] == ["bdstirling"]:]
    return Row(tuple(words), stdin, marked, line.partition("  # ")[2])


def render(row: Row) -> str:
    mark = "subprocess " if row.subprocess else ""
    echo = f"echo {shlex.quote(row.stdin[:-1])} | " if row.stdin else ""
    return f"{mark}{echo}{shlex.join(['bdstirling', *row.argv])}  # {row.result}"


def outcome(code, stdout: bytes, stderr: str) -> str:
    """A run as the corpus writes it; stderr must be one line or nothing."""
    lines = stderr.splitlines()
    if len(lines) > 1 or stderr != "".join(line + "\n" for line in lines):
        raise ValueError(f"stderr is not one line: {stderr!r}")
    return " ".join([str(code), hashlib.sha256(stdout).hexdigest(), *lines])


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


def run(row: Row) -> str:
    code, out, err = run_in_process(row.argv, row.stdin)
    return outcome(code, out.encode(), err)


def run_in_children(row: Row) -> dict[str, str]:
    """The outcome of `python -m bdstirling` under each seed in SEEDS, the
    children run at once; subprocess.TimeoutExpired past TIMEOUT."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with ExitStack() as stack:
        children = {seed: stack.enter_context(subprocess.Popen(
            [sys.executable, "-m", "bdstirling", *row.argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )) for seed in SEEDS}
        stack.callback(lambda: [child.kill() for child in children.values()])
        results = {}
        for seed, child in children.items():
            out, err = child.communicate(row.stdin.encode(), timeout=TIMEOUT)
            results[seed] = outcome(child.returncode, out, err.decode())
        return results


def subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def formats(name: str) -> tuple[str, ...]:
    """The --format values a subcommand takes; none for bijection."""
    actions = subcommands()[name]._actions
    return next((a.choices for a in actions if a.dest == "format"), ())


def readme_rows():
    """Each README command line example in every --format it takes; the
    placeholder path is skipped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line")[1].split("```sh")[1].split("```")[0]
    for line in block.splitlines():
        argv, stdin = parse(line)[:2]
        if not argv or any(w.startswith("path/") for w in argv):
            continue
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2:]
        for fmt in [("--format", f) for f in formats(argv[0])] or [()]:
            yield Row((*argv, *fmt), stdin)


def main() -> int:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    known = {parse(line)[:2] for line in lines if is_row(line)}
    lines += [render(row) for row in readme_rows() if row[:2] not in known]
    written, changed = [], 0
    for line in lines:
        if is_row(line):
            row = parse(line)
            new = row._replace(result=run(row))
            if parse(render(new)) != new:
                sys.exit(f"golden.py: the corpus cannot hold the row {render(new)!r}")
            changed += new != row
            line = render(new)
        written.append(line)
    CORPUS.write_text("\n".join(written) + "\n", encoding="utf-8")
    print(f"{sum(map(is_row, written))} rows, {changed} changed or added")
    return 0


if __name__ == "__main__":
    sys.exit(main())
