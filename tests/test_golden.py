"""The golden CLI corpus, tests/golden/cli.txt: every row run again and
compared byte for byte, and the corpus checked to cover the CLI.  The rows
are written by scripts/golden.py; no test writes them."""
import argparse

import pytest

import golden
from bdstirling.identities import IDENTITIES

LINES = [line for line in golden.CORPUS.read_text(encoding="utf-8").splitlines()
         if golden.is_row(line)]
ROWS = [golden.parse(line) for line in LINES]


@pytest.mark.parametrize("row", ROWS, ids=[line.partition("  # ")[0] for line in LINES])
def test_row(row):
    if row.subprocess:
        # before the run in process, so that a hang fails at the timeout
        assert golden.run_in_children(row) == dict.fromkeys(golden.SEEDS, row.result)
    assert golden.run(row) == row.result


def test_rows_are_written_as_the_script_writes_them():
    assert [golden.render(row) for row in ROWS] == LINES


def test_corpus_covers_the_cli():
    keys = [row[:2] for row in ROWS]
    assert len(set(keys)) == len(keys)
    assert {row[:2] for row in golden.readme_rows()} <= set(keys)
    assert {"0", "1", "2"} <= {row.result.split()[0] for row in ROWS}
    passing = [row.argv for row in ROWS if row.result.startswith("0 ")]
    verified = {argv[argv.index("--identity") + 1] for argv in passing if "--identity" in argv}
    assert set(IDENTITIES) <= verified
    shown = {(argv[0], argv[argv.index("--format") + 1] if "--format" in argv else None)
             for argv in passing}
    assert {(name, fmt) for name in golden.subcommands()
            for fmt in golden.formats(name) or [None]} <= shown
    # every option of every subcommand, help aside, is pinned by some row
    given = {(row.argv[0], word.partition("=")[0]) for row in ROWS for word in row.argv[1:]}
    assert {(name, option) for name, parser in golden.subcommands().items()
            for action in parser._actions if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings} <= given
