"""Batch command line front end.

Subcommands: tables (Stirling/Eulerian triangles), verify (identity
sweeps), bijection (block procedure round trips on user input), census
(lattice-point classification), oeis (b-file cross-checks).

Each subcommand returns one _Result; main writes it through _emit, the
only writer of stdout, and maps every exception to an exit code through
the one table _ERRORS.

Exit codes: 0 success, 1 verification or validation failure, 2 usage or
malformed input (size-cap violations included), 3 failed output write,
4 internal error (a failed consistency check or any unexpected exception:
a bug, not bad input).  Every error is one line on stderr, never a traceback.
Output in csv and json modes is byte-deterministic for a fixed invocation.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, replace
from itertools import zip_longest

from . import oeis as oeis_mod
from .bijections import (
    OrderedPartition,
    b_procedure,
    b_procedure_inverse,
    d_procedure,
    d_procedure_inverse,
)
from .config import DEFAULT_CAPS, EnumerationCaps
from .errors import InvariantViolation, SizeOverflow, UnreachableForm
from .geometry import census, torus_census
from .groups import SignedPermutation, _read_ints
from .identities import IDENTITIES, descent_histogram, verify_identity
from .partitions import flag_stirling_row, stirling_row


def _compact_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cell(value) -> str:
    if isinstance(value, (tuple, list)):
        return _compact_json(value)
    return str(value)


def _one_line(text: str) -> str:
    return " ".join(text.splitlines())


@dataclass(frozen=True)
class _Result:
    """One subcommand's answer: the JSON document, a table of raw cells
    (no header, no table), the lines after it and the exit code."""

    doc: object
    header: tuple[str, ...] = ()
    rows: list | tuple = ()
    footer: tuple[str, ...] = ()
    code: int = 0


def _emit(fmt: str, result: _Result) -> None:
    """Write result to stdout in the requested format; nothing else does."""
    if fmt == "json":
        print(_compact_json(result.doc))
        return
    table = [list(result.header)] + [[_cell(v) for v in row] for row in result.rows]
    if fmt == "csv" and result.header:
        csv.writer(sys.stdout, lineterminator="\n").writerows(table)
        return
    if result.header:
        widths = [max(map(len, column)) for column in zip_longest(*table, fillvalue="")]
        table.insert(1, ["-" * w for w in widths])
        for row in table:
            cells = zip_longest(row, widths, fillvalue="")
            print("| " + " | ".join(c.ljust(w) for c, w in cells) + " |")
    for text in result.footer:
        print(text)


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    return _read_ints(text or "", lambda bad: _Usage(f"cannot parse {what}: {bad!r}"))


class _Usage(Exception):
    """Malformed command input; maps to exit code 2."""


class _Unwritten(Exception):
    """Writing the output failed, other than to a closed pipe; exit code 3."""


def _at_least(low: int):
    """Argument type: an int no smaller than low."""
    bound = "nonnegative" if low == 0 else f"at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one stderr line, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {_one_line(message)}\n")


def _caps_from_args(args, field: str) -> EnumerationCaps:
    """The default caps, or --cap in the one field the subcommand reads."""
    return DEFAULT_CAPS if args.cap is None else replace(DEFAULT_CAPS, **{field: args.cap})


def _colors(args, kind: str, what: str) -> int:
    """--m for kind G, 2 when left out; any other kind has no colors."""
    if kind != "G" and args.m is not None:
        raise _Usage(f"{what} has no colors and takes no --m")
    return args.m or 2


# ---------------------------------------------------------------------------
# subcommands


def _table_row(args, n: int, m: int, caps: EnumerationCaps):
    if args.table == "stirling":
        if args.kind == "Bstar":
            return flag_stirling_row(n)
        return stirling_row(args.kind, n, m)
    if args.kind == "A":
        return descent_histogram("A", n, caps=caps)[: max(n, 1)]
    return descent_histogram(args.kind, n, m, caps=caps)


def cmd_tables(args) -> _Result:
    if args.table == "stirling" and args.cap is not None:
        raise _Usage("tables stirling walks no group and takes no --cap")
    caps = _caps_from_args(args, "signed_group")
    m = _colors(args, args.kind, f"kind {args.kind}")
    nmax = 6 if args.nmax is None else args.nmax
    ns = [args.n] if args.n is not None else range(nmax + 1)
    if args.table == "stirling":
        # rows 0..n are built, (n + 1)(n + 2) / 2 entries in all
        cap, entries = DEFAULT_CAPS.signed_group, (ns[-1] + 1) * (ns[-1] + 2) // 2
        if entries > cap:
            raise SizeOverflow(f"Stirling triangle of {entries} entries exceeds cap {cap}")
    # Eulerian rows sum one cached tally of S_n, itself one walk of S_{n-1};
    # largest first, a size over the cap fails before any walk.  Stirling
    # rows build on smaller ones.
    walk = ns if args.table == "stirling" else ns[::-1]
    rows = {n: _table_row(args, n, m, caps) for n in walk}
    width = max(len(rows[n]) for n in ns)
    return _Result(
        {
            "table": args.table,
            "kind": args.kind,
            "m": m if args.kind == "G" else None,
            "rows": [{"n": n, "values": rows[n]} for n in ns],
        },
        header=("n", *map(str, range(width))),
        rows=[(n, *rows[n]) for n in ns],
    )


def cmd_verify(args) -> _Result:
    caps = _caps_from_args(args, "signed_group")
    m = _colors(args, IDENTITIES[args.identity]["kind"], args.identity)
    report = verify_identity(args.identity, args.nmax, m, caps=caps)
    failures = sum(1 for inst in report.instances if not inst.ok)
    summary = (
        f"{report.identity}: {'PASS' if report.passed else 'FAIL'}"
        f" ({len(report.instances)} instances, {failures} mismatches"
        + (f"; skipped {', '.join(report.skipped)}" if report.skipped else "")
        + ("; report only, not asserted" if not report.asserted else "")
        + ")"
    )
    return _Result(
        {
            "identity": report.identity,
            "asserted": report.asserted,
            "passed": report.passed,
            "skipped": report.skipped,
            "instances": [
                {"params": dict(inst.params), "lhs": inst.lhs, "rhs": inst.rhs,
                 "ok": inst.ok, "note": inst.note}
                for inst in report.instances
            ],
        },
        header=("params", "lhs", "rhs", "ok", "note"),
        rows=[
            (inst.params_text(), inst.lhs, inst.rhs,
             "yes" if inst.ok else "no", inst.note)
            for inst in report.instances
        ],
        footer=(summary,),
        code=1 if report.asserted and not report.passed else 0,
    )


def cmd_bijection(args) -> _Result:
    unread = ("doc",) if args.direction == "forward" else ("kind", "perm", "spots")
    for option in unread:  # inverse reads the document, kind included
        if getattr(args, option) is not None:
            raise _Usage(f"bijection {args.direction} takes no --{option}")
    if args.direction == "forward":
        if args.perm is None:
            raise _Usage("forward needs --perm")
        window = _parse_int_list(args.perm, "--perm")
        spots = _parse_int_list(args.spots, "--spots")
        beta = SignedPermutation(window)
        proc = d_procedure if args.kind == "D" else b_procedure
        return _Result(proc(beta, frozenset(spots)).to_doc())
    if args.doc is None and sys.stdin is None:
        raise _Usage("inverse needs --doc when stdin is closed")
    try:
        text = args.doc if args.doc is not None else sys.stdin.read()
    except OSError as e:
        raise _Usage(f"cannot read the document from stdin: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise _Usage(f"document is not valid JSON: {e}") from None
    try:
        op = OrderedPartition.from_doc(data)
    except TypeError as e:
        raise _Usage(f"malformed document: {e}") from None
    inverse = d_procedure_inverse if op.kind == "D" else b_procedure_inverse
    try:
        element, spots = inverse(op)
    except UnreachableForm as e:
        return _Result({"kind": op.kind, "n": op.n, "unreachable": True,
                        "reason": str(e), "witness": e.witness["blocks"]})
    return _Result(
        {"kind": op.kind, "n": op.n, "perm": element.to_text(), "spots": sorted(spots)}
    )


def cmd_census(args) -> _Result:
    caps = _caps_from_args(args, "census_points")
    if args.kind in ("B", "D"):
        if args.m is None or args.t is not None:
            raise _Usage("cube census needs --m (half-width) and takes no --t")
        result = census(args.kind, args.n, args.m, caps=caps)
    else:
        if args.m is None or args.t is None or args.m < 2 or args.t < 1:
            raise _Usage(
                "torus census needs --m >= 2 (colors) and --t >= 1 (magnitudes)"
            )
        result = torus_census(args.n, args.m, args.t, caps=caps)
    items = sorted(result.counts.items(), key=lambda kv: (kv[0].r, kv[0].sort_key()))
    header = ("partition", "r", "count", "expected")
    # the prediction depends on the rank only: one per rank
    expected = {r: result.expected(p) for r, p in {p.r: p for p, _ in items}.items()}
    rows = [(p.text(), p.r, c, expected[p.r]) for p, c in items]
    total = sum(result.counts.values()) + result.missing
    return _Result(
        {
            "kind": result.kind,
            "n": result.n,
            "x": result.x,
            "m": result.m,
            "rows": [dict(zip(header, row)) for row in rows],
            "total": total,
            "free": result.free,
            "missing": result.missing,
        },
        header,
        rows,
        footer=(
            f"total {total} = {result.x}^{result.n}",
            f"free {result.free}",
            f"missing {result.missing}",
        ),
    )


def cmd_oeis(args) -> _Result:
    try:
        reference = oeis_mod.load_fixture(args.seq, path=args.fixture)
    except OSError as e:
        raise _Usage(f"cannot read fixture: {e}") from None
    source = args.fixture or "packaged fixture"
    report = oeis_mod.compare(args.seq, reference, rows=args.nmax)
    mismatch = report.first_mismatch
    if report.ok:
        line = f"{report.seq}: {report.checked} terms checked against {source}: OK"
    elif mismatch is None:
        line = f"{report.seq}: no overlapping terms with {source}"
    else:
        line = (
            f"{report.seq}: first mismatch at index {mismatch[0]}:"
            f" computed {mismatch[1]}, reference {mismatch[2]}"
        )
    return _Result(
        {
            "seq": report.seq,
            "source": source,
            "checked": report.checked,
            "ok": report.ok,
            "mismatch": mismatch and dict(zip(("index", "ours", "reference"), mismatch)),
        },
        footer=(line,),
        code=0 if report.ok else 1,
    )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bdstirling",
        description="Exact Stirling/Eulerian tables, identity verification, "
        "block-procedure bijections, lattice censuses, OEIS checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cap=True):
        p.add_argument("--format", choices=("md", "csv", "json"), default="md")
        if cap:
            p.add_argument("--cap", type=_at_least(0), default=None,
                           help="override the enumeration cap")

    p = sub.add_parser("tables", help="emit Stirling or Eulerian triangles")
    p.add_argument("table", choices=("stirling", "eulerian"))
    p.add_argument("--kind", choices=("A", "B", "D", "G", "Bstar"), required=True)
    rows = p.add_mutually_exclusive_group()
    rows.add_argument("--nmax", type=_at_least(0), default=None,
                      help="rows 0..nmax (default 6)")
    rows.add_argument("--n", type=_at_least(0), default=None,
                      help="single row instead of 0..nmax")
    p.add_argument("--m", type=_at_least(1), default=None,
                   help="colors for kind G (default 2)")
    add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run one identity over a parameter range")
    p.add_argument("--identity", choices=sorted(IDENTITIES), required=True)
    p.add_argument("--nmax", type=_at_least(0), default=None)
    p.add_argument("--m", type=_at_least(1), default=None,
                   help="colors for a kind G identity (default 2)")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="block procedure, forward or inverse")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("--kind", choices=("B", "D"), default=None)
    p.add_argument("--perm", default=None, help="window, e.g. -2,3,5,1,-4")
    p.add_argument("--spots", default=None, help="artificial separator gaps, e.g. 0,3")
    p.add_argument("--doc", default=None,
                   help="ordered partition JSON (default: stdin) for inverse")
    p.set_defaults(func=cmd_bijection, format="json")

    p = sub.add_parser("census", help="lattice point census")
    p.add_argument("--kind", choices=("B", "D", "G"), required=True)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--m", type=_at_least(0), default=None,
                   help="cube half-width (B/D) or colors (G)")
    p.add_argument("--t", type=_at_least(0), default=None,
                   help="magnitudes per color (G)")
    add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("oeis", help="compare triangles against OEIS b-files")
    p.add_argument("--seq", choices=sorted(oeis_mod.SEQUENCES), required=True)
    p.add_argument("--fixture", default=None, help="path to a local b-file")
    p.add_argument("--nmax", type=_at_least(0), default=12,
                   help="triangle rows to generate for the comparison")
    add_common(p, cap=False)
    p.set_defaults(func=cmd_oeis)

    return parser


def _glue_negative_values(argv):
    """Join "--perm -2,3,..." into "--perm=-2,3,..." so argparse does not
    mistake a window starting with a negative entry for an option flag."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--perm", "--spots", "--doc")
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# Exception class, exit code and message prefix; the first matching row wins.
_ERRORS = (
    (_Usage, 2, ""),
    (SizeOverflow, 2, ""),
    (InvariantViolation, 4, "internal error: "),
    (TypeError, 2, ""),
    (_Unwritten, 3, "cannot write output: "),
    (ValueError, 1, ""),
    (Exception, 4, "internal error: {}: "),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_glue_negative_values(argv))
    try:
        result = args.func(args)
        try:
            if sys.stdout is None:
                raise _Unwritten("stdout is closed")
            # Lift CPython's digit limit (3.10.7+) for the library's exact output.
            limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
            if limit is not None:
                sys.set_int_max_str_digits(0)
            try:
                _emit(args.format, result)
            finally:
                if limit is not None:
                    sys.set_int_max_str_digits(limit)
            sys.stdout.flush()
        except OSError as e:
            # Silence the exit flush of the bytes left unwritten (a stream put in
            # place by an in-process caller is its own); a reader gone early is fine.
            if sys.stdout is sys.__stdout__:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(e, BrokenPipeError):
                raise _Unwritten(e) from None
        return result.code
    except Exception as e:
        code, prefix = next((c, p) for cls, c, p in _ERRORS if isinstance(e, cls))
        message = prefix.format(type(e).__name__) + str(e)
        print(f"error: {_one_line(message)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
