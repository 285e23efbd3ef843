"""CLI behaviour beyond the bytes of one argv: failed writes and closed
pipes, internal errors under -O, values against the library, and fuzzed
argv.  The exit code, stdout and stderr of each fixed argv are rows of the
golden corpus, tests/golden/cli.txt (tests/test_golden.py)."""
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import PurePath
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdstirling import cli
from bdstirling.geometry import missing_point_count
from bdstirling.partitions import stirling_row
from golden import run_in_process, subcommands

from .children import run_child

CLI = [sys.executable, "-m", "bdstirling"]
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.10.7"
)


def run_cli(*args, stdin=None):
    return subprocess.run(CLI + list(args), input=stdin, capture_output=True, text=True)


class TestTables:
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

    @pytest.mark.parametrize("kind", ["A", "B", "D", "G", "Bstar"])
    @pytest.mark.parametrize("option", ["--n", "--nmax"])
    def test_stirling_rows_are_held_to_the_group_cap(self, kind, option, monkeypatch):
        # rows 0..4542 hold 10321696 entries, rows 0..4543 hold 10326240,
        # and the cap is 10321920; the rows are stubbed, as row 4542 of B
        # alone takes seconds
        built = []
        monkeypatch.setattr(cli, "stirling_row", lambda kind, n, m: built.append(n) or (1,))
        monkeypatch.setattr(cli, "flag_stirling_row", lambda n: built.append(n) or (1,))
        argv = ["tables", "stirling", "--kind", kind, option]
        assert run_in_process(argv + ["4542"]) == (0, mock.ANY, "")
        assert built[-1] == 4542
        built.clear()
        code, out, err = run_in_process(argv + ["4543"])
        assert (code, out, built) == (2, "", [])
        assert err == "error: Stirling triangle of 10326240 entries exceeds cap 10321920\n"


class TestBijection:
    def test_round_trip_through_cli(self):
        fwd = run_cli("bijection", "forward", "--kind", "B", "--perm", "1,4,-5,-3,2",
                      "--spots", "0,3")
        back = run_cli("bijection", "inverse", stdin=fwd.stdout)
        out = json.loads(back.stdout)
        assert out["perm"] == "1,4,-5,-3,2" and out["spots"] == [0, 3]

    def test_internal_error_is_exit_4(self):
        code = (
            "import sys\n"
            "from bdstirling import bijections, cli\n"
            "bijections._cut = lambda window, separators: (frozenset(), ())\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        doc = '{"kind":"B","n":2,"blocks":[[1,-1],[2],[-2]]}'
        res = run_child(code, "bijection", "inverse", "--doc", doc)
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
        res = run_child(program, "bijection", *argv, optimize=True)
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
        res = run_child(program, "bijection", "inverse", "--doc", json.dumps(doc),
                        optimize=True)
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
        res = run_child(program, "bijection", "inverse", "--doc", json.dumps(doc),
                        optimize=True)
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
        res = run_child(program, "bijection", "inverse", "--doc", json.dumps(doc),
                        optimize=bool(optimize))
        assert (res.returncode, res.stdout) == (4, "")
        canonical = {"kind": "D", "n": 4, "blocks": [[-2, -1, 1, 2], [3, 4], [-4, -3]]}
        assert res.stderr.splitlines() == [
            "error: internal error: preimage '1,2,3,-4' has an odd number of "
            f"negative entries, so it cannot map to {canonical}"
        ]


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

    def test_census_near_the_cap(self):
        res = run_cli("census", "--kind", "D", "--n", "6", "--m", "10", "--format", "json")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["total"] == 21**6 and doc["missing"] == missing_point_count(6, 21)


class TestOeis:
    def test_mismatching_reference_fails(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 1\n2 1\n3 999\n")
        res = run_cli("oeis", "--seq", "A039755", "--fixture", str(bad))
        assert res.returncode == 1
        assert "mismatch" in res.stdout

    def test_malformed_fixture_is_one_line_validation_failure(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 2 3\n")
        res = run_cli("oeis", "--seq", "A039755", "--fixture", str(bad))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: b-file line 2 is not 'index value': '1 2 3'\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_bfile_piped_through_dev_stdin(self):
        packaged = resources.files("bdstirling") / "data" / "b039755.txt"
        res = run_cli("oeis", "--seq", "A039755", "--fixture", "/dev/stdin",
                      stdin=packaged.read_text("utf-8"))
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "A039755: 28 terms checked against /dev/stdin: OK\n"


class TestDeterminism:
    def test_json_keys_sorted(self):
        res = run_cli("census", "--kind", "B", "--n", "1", "--m", "1", "--format", "json")
        doc = json.loads(res.stdout)
        assert res.stdout.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestErrorLines:
    def test_unexpected_exception_is_exit_4(self):
        code = (
            "import sys\n"
            "from bdstirling import cli\n"
            "def boom(args):\n"
            "    raise KeyError('x')\n"
            "cli.cmd_census = boom\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        res = run_child(code, "census", "--kind", "B", "--n", "1", "--m", "1")
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

    def test_line_breaks_in_an_argument_stay_on_one_line(self):
        # a corpus row cannot hold a raw line break; an escaped one is a row
        code, out, err = run_in_process(["oeis", "--seq", "A039755", "x\ny"])
        assert (code, out) == (2, "")
        assert err == "bdstirling: error: unrecognized arguments: x y\n"

    def test_line_breaks_in_an_error_message_stay_on_one_line(self):
        # main's own call site: no corpus row raises a raw line break
        with mock.patch.object(cli, "cmd_bijection", side_effect=ValueError("a\nb")):
            code, out, err = run_in_process(["bijection", "forward", "--perm", "1"])
        assert (code, out, err) == (1, "", "error: a b\n")


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


SUBCOMMANDS = subcommands()
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


# Chances in ten that a bijection option is given, by direction: the input
# the direction reads nearly always, an option it never reads now and then.
BIJECTION_ODDS = {
    "forward": {"perm": 9, "kind": 5, "spots": 5, "doc": 1},
    "inverse": {"doc": 10, "kind": 1, "perm": 1, "spots": 1},
}


@st.composite
def argvs(draw):
    """argv from the parser's own vocabulary: sizes in -1..3 or junk,
    bijection options by BIJECTION_ODDS, fixtures as PurePath names under a
    test directory."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv, options = [name], []
    for action in SUBCOMMANDS[name]._actions:
        if action.dest == "help":
            continue
        if not action.option_strings:
            argv.append(draw(_mostly(list(action.choices))))
            continue
        odds = 9 if action.required else 5
        if name == "bijection":
            odds = BIJECTION_ODDS.get(argv[1], {}).get(action.dest, odds)
        if draw(st.integers(0, 9)) < odds:
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
