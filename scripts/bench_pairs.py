#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, with paired deltas.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload roundtrip \
        --seeds 1-10 --held-out 11 --json BENCH_label.json

The parent side is ``git archive <parent>`` unpacked into a temporary
directory, with this checkout's ``perfbench/`` copied over it, so both sides
run the same harness.  The change side is this checkout's tracked files as
they are on disk, uncommitted edits included, copied into a sibling
directory, so neither side runs from a different place.  For each seed one
``perfbench/run.py`` run of ``BENCHMARK.json``'s ``run_seconds`` is made on
each side, the parent first for odd seeds and the change first for even
ones.  It prints every pair, then for each end-to-end metric of
``BENCHMARK.json`` the median of each side, the parent's quartiles, the
median paired delta, how many pairs the change won (a tie counts for
neither side) and whether the change meets the gain rule: it won at least
9 of every 10 pairs and its median is better than the parent's by more than
the parent's q3 - q1.  A held-out seed runs one more pair after the series,
reported apart.
``--json`` writes all of it, with the command line, as printed.  Standard
library only; run it from anywhere inside the repository.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    """'1-10' or '1,3,5' or a mix of both."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def unpack_parent(rev: str, into: str) -> str:
    """The parent's committed files, with this checkout's perfbench/."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter refuses members that would land outside into
        archive.extractall(into, filter="data")
    bench = os.path.join(into, "perfbench")
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return into


def unpack_change(into: str) -> str:
    """This checkout's tracked files as they are on disk."""
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z"],
                           capture_output=True, check=True).stdout.decode()
    for name in filter(None, names.split("\0")):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a tracked file deleted on disk stays out
            target = os.path.join(into, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return into


def unpack_sides(rev: str, tmp: str) -> dict[str, str]:
    """The parent and change trees, side by side under tmp."""
    return {"parent": unpack_parent(rev, os.path.join(tmp, "parent")),
            "change": unpack_change(os.path.join(tmp, "change"))}


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one perfbench/run.py run in the given tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs(bench: dict, workload: str) -> dict[str, dict]:
    """Each end-to-end metric the runs report, keyed as run.py keys it."""
    names = ([w["name"] for w in bench["workloads"]] if workload == "all"
             else [workload])
    return {
        (f"{w}.{m['name']}" if workload == "all" else m["name"]): m
        for w in names for m in bench["end_to_end"]
    }


def pair(roots: dict[str, str], workload: str, seed: int, seconds: float) -> dict:
    sides = ("parent", "change") if seed % 2 else ("change", "parent")
    return {side: one_run(roots[side], workload, seed, seconds) for side in sides}


def summary(pairs: dict[int, dict], specs: dict[str, dict]) -> dict:
    out = {}
    for name, spec in specs.items():
        values = {side: [pairs[s][side]["metrics"][name]["value"] for s in pairs]
                  for side in ("parent", "change")}
        sign = 1 if spec["better"] == "higher" else -1
        deltas = [(c - p) / p for p, c in zip(values["parent"], values["change"])]
        entry = {"unit": spec["unit"], "better": spec["better"]}
        for side, vals in values.items():
            q1, _, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                         if len(vals) > 1 else (vals[0],) * 3)
            entry[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                           "per_seed": vals}
        wins = sum(sign * d > 0 for d in deltas)
        parent = entry["parent"]
        entry["median_delta"] = statistics.median(deltas)
        entry["change_wins"] = f"{wins}/{len(deltas)}"
        entry["meets_gain_rule"] = (
            10 * wins >= 9 * len(deltas)
            and sign * (entry["change"]["median"] - parent["median"])
            > parent["q3"] - parent["q1"])
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--held-out", type=int, default=None)
    ap.add_argument("--json", help="write the pairs and the summary to this file")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    bench = benchmark()
    specs = metric_specs(bench, args.workload)
    seconds = bench["run_seconds"]
    parent = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent],
                            capture_output=True, text=True, check=True).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = unpack_sides(args.parent, tmp)
        pairs = {}
        for seed in args.seeds:
            pairs[seed] = pair(roots, args.workload, seed, seconds)
            for name in specs:
                p, c = (pairs[seed][side]["metrics"][name]["value"]
                        for side in ("parent", "change"))
                print(f"seed {seed} {name}: parent {p:.6g} change {c:.6g} "
                      f"({(c - p) / p:+.2%})")
        held = (pair(roots, args.workload, args.held_out, seconds)
                if args.held_out is not None else None)

    result = {
        "command": " ".join(["python3 scripts/bench_pairs.py", *argv]),
        "parent": parent,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": seconds,
        "order": "odd seeds ran the parent first, even seeds the change first",
        "failed": {side: sum(pairs[s][side]["failed"] for s in pairs)
                   for side in ("parent", "change")},
        "metrics": summary(pairs, specs),
    }
    for name, entry in result["metrics"].items():
        p, c = entry["parent"], entry["change"]
        print(f"{name} [{entry['unit']}]: parent median {p['median']:.6g} "
              f"(q1 {p['q1']:.6g}, q3 {p['q3']:.6g}, spread {p['q3'] - p['q1']:.4g}); "
              f"change median {c['median']:.6g}; median paired delta "
              f"{entry['median_delta']:+.2%}; change wins {entry['change_wins']}; "
              f"meets gain rule {entry['meets_gain_rule']}")
    if held is not None:
        result["held_out"] = {
            "seed": args.held_out,
            "failed": {side: held[side]["failed"] for side in ("parent", "change")},
            "metrics": {name: {side: held[side]["metrics"][name]["value"]
                               for side in ("parent", "change")} for name in specs},
        }
        for name, values in result["held_out"]["metrics"].items():
            p, c = values["parent"], values["change"]
            print(f"held-out seed {args.held_out} {name}: parent {p:.6g} "
                  f"change {c:.6g} ({(c - p) / p:+.2%})")
    print(f"failed checks: parent {result['failed']['parent']}, "
          f"change {result['failed']['change']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
