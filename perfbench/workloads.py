"""The four benchmark workloads, one per route, and the checks on their output.

Each workload has three parts:

- ``prepare(seed, sizes)`` builds the inputs, untimed.  Only ``roundtrip`` uses the
  seed, for its sampled windows; every other input is exhaustive and fixed.
- ``work(tr, inputs, checks)`` is the timed pass.  It calls the library's
  public API only, wraps each call in a span of ``tr``, and returns the number
  of work units done and the raw results.
- ``check(raw, checks)`` gates the results, untimed.

``canonical(raw)`` turns the raw results into seed-independent JSON whose
SHA-256 must equal the committed entry in ``digests.json``.  Running this file
rewrites that file from the current library:

    PYTHONPATH=src python3 perfbench/workloads.py
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from math import factorial

from bdstirling import (
    IDENTITIES,
    OrderedPartition,
    b_procedure,
    b_procedure_inverse,
    census,
    d_procedure,
    d_procedure_inverse,
    d_unreachable,
    d_unreachable_count,
    descent_histogram,
    enumerate_group,
    enumerate_partitions,
    flag_histogram,
    flag_stirling_row,
    free_gaps,
    free_point_count,
    group_order,
    missing_point_count,
    stirling_row,
    torus_census,
    verify_identity,
    SignedPermutation,
)
from bdstirling import oeis
from bdstirling.errors import UnreachableForm

from run import CLI_COMMANDS, DIGESTS, WORKLOADS as NAMES

COLORS = 3  # the color count scripts/verify_all.py uses

# Sizes of one pass.  Each pass fits several times into a run, so a run
# reports a median; the largest walks the caps allow are extrapolated from
# the per-layer costs instead (groups.cap_cost_s).
SIZES = {
    # histograms for n = 0..nmax, then every identity at its default size
    "eulerian": {"hist_nmax": {"A": 9, "B": 6, "D": 6, "G": 5}, "flag_nmax": 5},
    # few classes and many points (n = 2, wide cube) through many classes
    # and few points (n = 6, m = 2); tori (n, m, t) with m = 2 and m = 3
    "census": {
        "cube": ((2, 40), (4, 5), (6, 2)),
        "torus": ((3, 2, 5), (4, 2, 3), (3, 3, 3), (4, 3, 2)),
    },
    # exhaustive forward-first and inverse-first sizes, then a seeded sample
    # of larger windows
    "roundtrip": {"forward_n": 5, "inverse_n": 4, "sample": 500, "sample_n": (6, 8)},
    # rows 0..rows of every kind, basis identities at basis_nmax
    "triangles": {"rows": 100, "basis_nmax": 36},
}
BASIS_IDENTITIES = ("thm-1.2", "thm-5.1", "thm-5.3", "thm-6.10")

PROCEDURES = {
    "B": (b_procedure, b_procedure_inverse),
    "D": (d_procedure, d_procedure_inverse),
}
SPAN_FWD = {"B": "bijections.b_procedure", "D": "bijections.d_procedure"}
SPAN_INV = {
    "B": "bijections.b_procedure_inverse",
    "D": "bijections.d_procedure_inverse",
}


class Checks:
    """Counts every check made and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first) < 5:
                self.first.append(what)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_doc(report) -> dict:
    return {
        "asserted": report.asserted,
        "passed": report.passed,
        "skipped": list(report.skipped),
        "instances": [
            [[list(p) for p in inst.params], _plain(inst.lhs), _plain(inst.rhs)]
            for inst in report.instances
        ],
    }


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _check_report(report, checks: Checks) -> None:
    if report.asserted:
        checks.expect(report.passed, f"identity {report.identity} failed")


# ---------------------------------------------------------------------------
# eulerian: the enumeration route


def eulerian_prepare(seed, sizes):
    return sizes


def eulerian_work(tr, inputs, checks):
    items = 0
    hists = {}
    for kind, nmax in inputs["hist_nmax"].items():
        m = COLORS if kind == "G" else 2
        rows = []
        for n in range(nmax + 1):
            with tr.span(f"identities.descent_histogram.{kind}") as s:
                rows.append(descent_histogram(kind, n, m))
            s.count = factorial(n) if kind == "A" else group_order(
                kind, n, COLORS if kind == "G" else None
            )
            items += s.count
        hists[kind] = rows
    for order in ("natural", "color"):
        rows = []
        for n in range(inputs["flag_nmax"] + 1):
            with tr.span(f"identities.flag_histogram.{order}") as s:
                rows.append(flag_histogram(n, order))
            s.count = group_order("B", n)
            items += s.count
        hists[f"flag_{order}"] = rows
    reports = {}
    for name in sorted(IDENTITIES):
        with tr.span("identities.verify_identity") as s:
            reports[name] = verify_identity(name, m=COLORS)
        s.count = len(reports[name].instances)
    return items, {"hists": hists, "reports": reports}


def _brenti_row(prev: tuple[int, ...], n: int) -> list[int]:
    """Type B Eulerian row n from row n - 1 (Brenti 1994):
    B(n,k) = (2k+1) B(n-1,k) + (2n-2k+1) B(n-1,k-1)."""
    def at(k):
        return prev[k] if 0 <= k < len(prev) else 0
    return [(2 * k + 1) * at(k) + (2 * n - 2 * k + 1) * at(k - 1) for k in range(n + 1)]


def eulerian_check(raw, checks):
    hists = raw["hists"]
    for kind, rows in hists.items():
        for n, row in enumerate(rows):
            if kind == "A":
                order = factorial(n)
            elif kind == "G":
                order = group_order("G", n, COLORS)
            else:
                order = group_order("B" if kind.startswith("flag") else kind, n)
            checks.expect(sum(row) == order, f"{kind} row {n} sums to {sum(row)}")
            if kind == "A" and n >= 1:
                body = row[:n]
                checks.expect(body == body[::-1], f"A row {n} not symmetric")
            elif kind == "B" or kind.startswith("flag") or (kind == "D" and n >= 2):
                checks.expect(row == row[::-1], f"{kind} row {n} not symmetric")
    for n in range(1, len(hists["B"])):
        checks.expect(
            list(hists["B"][n]) == _brenti_row(hists["B"][n - 1], n),
            f"B row {n} breaks Brenti's recurrence",
        )
    for report in raw["reports"].values():
        _check_report(report, checks)


def eulerian_canonical(raw):
    return {
        "hists": {k: [list(r) for r in rows] for k, rows in raw["hists"].items()},
        "reports": {k: _report_doc(r) for k, r in raw["reports"].items()},
    }


# ---------------------------------------------------------------------------
# census: the geometry route


def census_prepare(seed, sizes):
    return sizes


def census_work(tr, inputs, checks):
    results = []
    items = 0
    for kind in ("B", "D"):
        for n, m in inputs["cube"]:
            with tr.span(f"geometry.census.{kind}") as s:
                res = census(kind, n, m)
            s.count = res.x**n
            s.extra = len(res.counts)
            items += s.count
            results.append(res)
    for n, m, t in inputs["torus"]:
        with tr.span("geometry.torus_census") as s:
            res = torus_census(n, m, t)
        s.count = res.x**n
        s.extra = len(res.counts)
        items += s.count
        results.append(res)
    return items, results


def census_check(raw, checks):
    for res in raw:
        label = f"{res.kind} n={res.n} x={res.x}"
        total = sum(res.counts.values()) + res.missing
        checks.expect(total == res.x**res.n, f"{label}: {total} points")
        for p, count in res.counts.items():
            checks.expect(count == res.expected(p), f"{label}: class {p.text()}")
        checks.expect(
            res.free == free_point_count(res.kind, res.n, res.x, res.m),
            f"{label}: free {res.free}",
        )
        missing = missing_point_count(res.n, res.x) if res.kind == "D" else 0
        checks.expect(res.missing == missing, f"{label}: missing {res.missing}")


def census_canonical(raw):
    return [
        {
            "kind": res.kind, "n": res.n, "x": res.x, "m": res.m,
            "free": res.free, "missing": res.missing,
            "classes": [
                [p.text(), res.counts[p]]
                for p in sorted(res.counts, key=lambda p: p.sort_key())
            ],
        }
        for res in raw
    ]


# ---------------------------------------------------------------------------
# roundtrip: the separation procedures in both directions


def _ordered_docs(kind: str, n: int) -> list[str]:
    """Every ordered partition of the kind, as untrusted JSON text: each
    unordered partition in every pair order and every pair orientation."""
    docs = []
    for p in enumerate_partitions(kind, n):
        zero = sorted(p.zero_support | {-v for v in p.zero_support})
        for order in itertools.permutations(p.pair_reps):
            for signs in itertools.product((1, -1), repeat=len(order)):
                blocks = [zero] if zero else []
                for s, c in zip(signs, order):
                    blocks.append(sorted(s * v for v in c))
                    blocks.append(sorted(-s * v for v in c))
                docs.append(json.dumps({"kind": kind, "n": n, "blocks": blocks}))
    return docs


def _sample(seed: int, size: int, n_range) -> list:
    """(kind, element, artificial separators) triples drawn from the seed."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        kind = "BD"[i % 2]
        n = rng.randint(*n_range)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        window = [v if rng.random() < 0.5 else -v for v in values]
        if kind == "D" and sum(v < 0 for v in window) % 2:
            window[-1] = -window[-1]
        g = SignedPermutation(tuple(window))
        sub = tuple(x for x in sorted(free_gaps(g, kind)) if rng.random() < 0.5)
        out.append((kind, g, sub))
    return out


def roundtrip_prepare(seed, sizes):
    return {
        "forward_n": sizes["forward_n"],
        "inverse_n": sizes["inverse_n"],
        "docs": {k: _ordered_docs(k, sizes["inverse_n"]) for k in ("B", "D")},
        "sample": _sample(seed, sizes["sample"], sizes["sample_n"]),
    }


def _blocks_key(op) -> str:
    return repr([sorted(b) for b in op.blocks])


def roundtrip_work(tr, inputs, checks):
    done = 0
    forward_hash = hashlib.sha256()
    # forward then inverse over every (element, free-gap subset)
    for kind in ("B", "D"):
        fwd, inv = PROCEDURES[kind]
        span_fwd, span_inv = SPAN_FWD[kind], SPAN_INV[kind]
        for g in enumerate_group(kind, inputs["forward_n"]):
            free = sorted(free_gaps(g, kind))
            for k in range(len(free) + 1):
                for sub in itertools.combinations(free, k):
                    with tr.span(span_fwd):
                        op = fwd(g, sub)
                    with tr.span(span_inv):
                        back, artificial = inv(op)
                    ok = back == g and artificial == frozenset(sub)
                    checks.expect(ok, f"{kind} {g} {sub} not restored")
                    done += ok
                    forward_hash.update(
                        f"{kind}{g.window}{sub}{_blocks_key(op)}\n".encode()
                    )
    # inverse first, from untrusted documents
    inverse_hash = hashlib.sha256()
    refused = 0
    for kind in ("B", "D"):
        fwd, inv = PROCEDURES[kind]
        span_fwd, span_inv = SPAN_FWD[kind], SPAN_INV[kind]
        for text in inputs["docs"][kind]:
            doc = json.loads(text)
            with tr.span("bijections.from_doc"):
                op = OrderedPartition.from_doc(doc)
            checks.expect(op.to_doc() == doc, f"from_doc changed {text}")
            try:
                with tr.span(span_inv):
                    back, artificial = inv(op)
            except UnreachableForm:
                refused += 1
                checks.expect(d_unreachable(op), f"{text} refused but reachable")
                inverse_hash.update(f"refused {text}\n".encode())
                continue
            if kind == "D":
                checks.expect(not d_unreachable(op), f"{text} inverted but unreachable")
            with tr.span(span_fwd):
                again = fwd(back, artificial)
            ok = again == op
            checks.expect(ok, f"{text} not restored")
            done += ok
            inverse_hash.update(
                f"{back.window}{sorted(artificial)}{_blocks_key(op)}\n".encode()
            )
    # seeded sample of larger windows, with a document round trip
    for kind, g, sub in inputs["sample"]:
        fwd, inv = PROCEDURES[kind]
        with tr.span(SPAN_FWD[kind]):
            op = fwd(g, sub)
        doc = json.loads(json.dumps(op.to_doc()))
        with tr.span("bijections.from_doc"):
            parsed = OrderedPartition.from_doc(doc)
        with tr.span(SPAN_INV[kind]):
            back, artificial = inv(parsed)
        ok = parsed == op and back == g and artificial == frozenset(sub)
        checks.expect(ok, f"sample {kind} {g} {sub} not restored")
        done += ok
    return done, {
        "forward": forward_hash.hexdigest(),
        "inverse": inverse_hash.hexdigest(),
        "refused": refused,
        "inverse_n": inputs["inverse_n"],
        "docs": {k: len(v) for k, v in inputs["docs"].items()},
    }


def roundtrip_check(raw, checks):
    n = raw["inverse_n"]
    expected = sum(d_unreachable_count(n, r) for r in range(n + 1))
    checks.expect(
        raw["refused"] == expected,
        f"{raw['refused']} unreachable refusals, expected {expected}",
    )


def roundtrip_canonical(raw):
    return raw


# ---------------------------------------------------------------------------
# triangles: the counting formulas, with no enumeration


def triangles_prepare(seed, sizes):
    return sizes


def triangles_work(tr, inputs, checks):
    rows = {}
    items = 0
    for kind in ("A", "B", "D", "G"):
        rows[kind] = []
        for n in range(inputs["rows"] + 1):
            with tr.span("partitions.stirling_row") as s:
                row = stirling_row(kind, n, COLORS) if kind == "G" else stirling_row(kind, n)
            s.count = len(row)
            items += s.count
            rows[kind].append(row)
    rows["flag"] = []
    for n in range(inputs["rows"] + 1):
        with tr.span("partitions.flag_stirling_row") as s:
            row = flag_stirling_row(n)
        s.count = len(row)
        items += s.count
        rows["flag"].append(row)
    fixtures, compared = {}, {}
    for seq in sorted(oeis.SEQUENCES):
        fixtures[seq] = oeis.load_fixture(seq)
        with tr.span("oeis.compare"):
            compared[seq] = oeis.compare(seq, fixtures[seq])
    reports = {}
    for name in BASIS_IDENTITIES:
        with tr.span("polynomials.basis_identity") as s:
            reports[name] = verify_identity(name, nmax=inputs["basis_nmax"], m=COLORS)
        s.count = len(reports[name].instances)
    return items, {
        "rows": rows, "fixtures": fixtures, "compared": compared, "reports": reports,
    }


def triangles_check(raw, checks):
    for seq, pairs in raw["fixtures"].items():
        rows = raw["rows"][oeis.SEQUENCES[seq]["kind"]]
        flat = [v for row in rows for v in row]
        for idx, value in pairs:
            checks.expect(
                idx < len(flat) and flat[idx] == value,
                f"{seq} index {idx}: fixture {value}",
            )
        report = raw["compared"][seq]
        checks.expect(report.ok, f"{seq} comparison: {report.first_mismatch}")
    for report in raw["reports"].values():
        _check_report(report, checks)


def triangles_canonical(raw):
    return {
        "rows": {k: [list(r) for r in rows] for k, rows in raw["rows"].items()},
        "compared": {
            s: [r.checked, r.first_mismatch] for s, r in raw["compared"].items()
        },
        "reports": {k: _report_doc(r) for k, r in raw["reports"].items()},
    }


WORKLOADS = {
    name: {
        "prepare": globals()[f"{name}_prepare"],
        "work": globals()[f"{name}_work"],
        "check": globals()[f"{name}_check"],
        "canonical": globals()[f"{name}_canonical"],
    }
    for name in NAMES
}


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _record_digests() -> None:
    """Recompute every committed digest from the library on sys.path."""
    import contextlib
    import io

    from bdstirling.cli import main as cli_main

    from tracing import NullTracer

    out = {"workloads": {}, "cli": {}}
    for name, w in WORKLOADS.items():
        _, raw = w["work"](NullTracer(), w["prepare"](0, SIZES[name]), Checks())
        out["workloads"][name] = digest(w["canonical"](raw))
    for name, argv in CLI_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        out["cli"][name] = hashlib.sha256(
            f"{code}\n{buf.getvalue()}".encode()
        ).hexdigest()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record_digests())
