#!/usr/bin/env python3
"""Layered benchmark over the four routes of bdstirling.

    python3 perfbench/run.py --workload eulerian --seed 1 --seconds 20 --trace 0

Workloads, one per route (sizes in ``workloads.SIZES``):

- ``eulerian``: descent histograms by enumerating groups, then every identity.
- ``census``: cube and torus lattice-point censuses.
- ``roundtrip``: the separation procedures forward-first and inverse-first,
  the latter from untrusted JSON documents.
- ``triangles``: Stirling rows, OEIS fixtures and basis changes by formula.

Each pass runs in a fresh interpreter (``worker.py``), so caches start cold,
and checks its own output; a failed check counts in ``failed``.  Passes repeat
until ``--seconds`` have gone by and the medians are reported.  With
``--trace 0`` the result holds the end-to-end metrics.  With ``--trace 1`` it
holds the per-layer metrics: the layer probe, each identity cold and warm,
one cold CLI run per subcommand, then untraced and traced passes in turn;
spans go to ``.perfbench/``.  ``--workload all`` runs each workload untraced
and prints every end-to-end metric, with ``failed_ratio``.

This host's speed drifts by tens of percent within a second, so the bounded
time metrics are taken relative to a reference loop the benchmark owns
(``worker.SpeedProbe``): ``wall_ref`` is a pass's time in units of that loop,
run inside the pass, and ``setup_s`` is set-up time scaled to a nominal loop
time.  Raw seconds are printed beside them.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run it from the repository root; it needs the
library sources in ``src/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 165  # a run must end within 180 s, hung jobs included
SETUP_SAMPLES = 15  # set-up takes a tenth of a second; sample it this often
# setup_s is reported at the host speed where the reference loop (see
# worker.SpeedProbe) takes NOMINAL_REF_S, its usual time on a 2-core x86 VM;
# each sample is scaled by the loop's time measured just after it.
NOMINAL_REF_S = 0.0027

DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("eulerian", "census", "roundtrip", "triangles")
# Representative cold CLI run per subcommand; its stdout digest is committed.
CLI_COMMANDS = {
    "tables": ["tables", "stirling", "--kind", "B", "--nmax", "12"],
    "verify": ["verify", "--identity", "thm-4.1"],
    "census": ["census", "--kind", "D", "--n", "3", "--m", "3"],
    "bijection": ["bijection", "forward", "--kind", "B", "--perm=-2,3,5,1,-4",
                  "--spots", "1,2"],
    "oeis": ["oeis", "--seq", "A039755"],
}

# Reported in the result: wall time and throughput in reference-loop units
# (see worker.SpeedProbe), which stay comparable while the host's speed
# drifts.  Raw seconds are printed beside them.
E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "items_per_ref": "1/ref",
             "peak_rss_mb": "MB"}
RAW_UNITS = {"setup_raw_s": "s", "wall_s": "s", "items_per_s": "1/s", "ref_s": "s"}
ITEM_UNITS = {
    "eulerian": "group elements walked",
    "census": "lattice points classified",
    "roundtrip": "round trips completed",
    "triangles": "triangle entries produced",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Tally:
    """Checks attempted and failed across every job of a run, and the time by
    which every job must have ended."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def job(self, job: dict) -> dict | None:
        """Run one worker job; a crash or timeout counts as a failed check."""
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, repr(time.monotonic()), json.dumps(job)],
                capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=self.timeout(),
            )
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            self.attempted += 1
            self.failed += 1
            tail = proc.stderr.strip().splitlines()[-1:] if proc else ["timed out"]
            print(f"job {job} failed: {tail}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for what in result["failures"]:
            print(f"check failed: {what}", file=sys.stderr)
        return result

    def cli(self, name: str, expected: str) -> float:
        """One cold CLI run; returns its wall seconds, checks its stdout."""
        argv = [sys.executable, "-m", "bdstirling", *CLI_COMMANDS[name]]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                timeout=self.timeout(),
            )
            output = f"{proc.returncode}\n{proc.stdout}"
        except subprocess.TimeoutExpired:
            output = "timed out"
        elapsed = time.monotonic() - start
        got = hashlib.sha256(output.encode()).hexdigest()
        self.attempted += 1
        if got != expected:
            self.failed += 1
            print(f"check failed: cli {name} output digest {got}", file=sys.stderr)
        return elapsed


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]}={tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
    return (f"{name:>13s} [{unit}] median={statistics.median(values):.6g} "
            f"{tail_text} (n={len(values)})")


def passes_until(tally: Tally, workload: str, seed: int, deadline: float,
                 traced_too: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Passes until the deadline, at least one.  With ``traced_too`` untraced
    and traced passes alternate.  Without, set-up-only workers run between
    passes, spread evenly over the run, until set-up has ``SETUP_SAMPLES``
    samples; the host's speed drifts, so samples taken together would all
    see the same moment."""
    start = time.monotonic()
    plain, traced, setups = [], [], []
    while True:
        for trace in ((0, 1) if traced_too else (0,)):
            job = {"job": "pass", "workload": workload, "seed": seed, "trace": trace}
            if trace and not traced:
                # one file per workload, replaced by each traced run
                job["spans_path"] = os.path.join(OUT, f"spans-{workload}.jsonl")
            result = tally.job(job)
            if result is not None:
                (traced if trace else plain).append(result)
                setups.append(result)
        while not traced_too:
            share = min(1.0, (time.monotonic() - start) / (deadline - start))
            if len(setups) >= SETUP_SAMPLES * share:
                break
            result = tally.job({"job": "setup"})
            if result is None:
                break
            setups.append(result)
        if time.monotonic() >= deadline:
            return plain, traced, setups


def setup_samples(results: list[dict]) -> dict:
    return {
        "setup_s": [r["setup_s"] * NOMINAL_REF_S / r["setup_ref_s"] for r in results],
        "setup_raw_s": [r["setup_s"] for r in results],
    }


def pass_samples(plain: list[dict]) -> dict:
    """Per-pass values of every end-to-end and raw metric."""
    return {
        **setup_samples(plain),
        "wall_ref": [r["wall_s"] / r["ref_s"] for r in plain],
        "items_per_ref": [r["items"] * r["ref_s"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "items_per_s": [r["items"] / r["wall_s"] for r in plain],
        "ref_s": [r["ref_s"] for r in plain],
    }


def end_to_end(workload: str, tally: Tally, plain: list[dict],
               setups: list[dict]) -> dict:
    samples = {**pass_samples(plain), **setup_samples(setups)}
    print(f"workload {workload}: items are {ITEM_UNITS[workload]}, "
          f"{plain[0]['items']} per pass")
    for name, values in samples.items():
        print(describe(name, {**E2E_UNITS, **RAW_UNITS}[name], values))
    ratio = tally.failed / tally.attempted
    print(f"{'failed_ratio':>13s} [ratio] {ratio:.6g} "
          f"({tally.failed}/{tally.attempted} checks)")
    return {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }


def _span_value(spans: dict, name: str, field: str, scale: float) -> float:
    agg = spans[name]
    if field == "per_count":
        return agg["ns"] / agg["count"] / scale
    return agg[field] / scale


def layer_metrics(probe: dict, traced: dict, identities: dict, cli: dict) -> dict:
    """Per-layer metrics of one traced pass.  A span name the pass recorded
    replaces the probe's; the rest come from the probe."""
    spans = {**probe["spans"], **traced["spans"]}
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for kind in ("B", "D", "G"):
        put(f"groups.enumerate_group.ns_per_elem.{kind}",
            _span_value(spans, f"groups.enumerate_group.{kind}", "per_count", 1), "ns")
    for stat in ("desB", "desD", "desG", "fdes"):
        put(f"groups.des_stat.ns_per_call.{stat}",
            _span_value(spans, f"groups.des_stat.{stat}", "per_count", 1), "ns")
    put("groups.cap_cost_s",
        m["groups.enumerate_group.ns_per_elem.B"]["value"] * probe["signed_cap"] / 1e9, "s")

    hist_s = _span_value(spans, "probe.descent_histogram.B", "ns", 1e9)
    put("identities.descent_histogram.s", hist_s, "s")
    put("identities.descent_histogram.self_s",
        hist_s - _span_value(spans, "groups.enumerate_group.B", "ns", 1e9)
        - _span_value(spans, "groups.des_stat.desB", "ns", 1e9), "s")
    for name, times in sorted(identities.items()):
        put(f"identities.verify_identity.cold_s.{name}", times["cold_s"], "s")
        put(f"identities.verify_identity.warm_s.{name}", times["warm_s"], "s")
    put("identities.cache_hits", traced["cache_hits"], "count")
    put("identities.cache_misses", traced["cache_misses"], "count")

    put("partitions.stirling_row.us_per_entry",
        _span_value(spans, "partitions.stirling_row", "per_count", 1e3), "us")
    put("partitions.flag_stirling_row.s",
        _span_value(spans, "partitions.flag_stirling_row", "ns", 1e9), "s")
    put("partitions.enumerate_partitions.us_per_obj",
        _span_value(spans, "partitions.enumerate_partitions", "per_count", 1e3), "us")
    put("partitions.construct_us",
        _span_value(spans, "partitions.construct", "per_count", 1e3), "us")

    put("geometry.classify_point.us_p50",
        _span_value(spans, "geometry.classify_point", "median_ns", 1e3), "us")
    put("geometry.classify_point.us_p99",
        _span_value(spans, "geometry.classify_point", "p99_ns", 1e3), "us")
    censuses = [spans[k] for k in ("geometry.census.B", "geometry.census.D",
                                   "geometry.torus_census")]
    points = sum(a["count"] for a in censuses)
    put("geometry.census.points_per_s", points / (sum(a["ns"] for a in censuses) / 1e9), "1/s")
    put("geometry.distinct_ratio", sum(a["extra"] for a in censuses) / points, "ratio")

    for proc in ("b_procedure", "b_procedure_inverse", "d_procedure",
                 "d_procedure_inverse", "from_doc"):
        put(f"bijections.{proc}.us",
            _span_value(spans, f"bijections.{proc}", "median_ns", 1e3), "us")
    put("bijections.unreachable_refused",
        spans["bijections.d_procedure_inverse"]["errors"], "count")

    put("polynomials.falling_factorial.us",
        _span_value(spans, "polynomials.falling_factorial", "median_ns", 1e3), "us")
    put("polynomials.basis_identity_s",
        _span_value(spans, "polynomials.basis_identity", "ns", 1e9), "s")
    put("oeis.compare.s", _span_value(spans, "oeis.compare", "ns", 1e9), "s")

    for name, seconds in sorted(cli.items()):
        put(f"cli.{name}.cold_s", seconds, "s")
    put("gc.pause_s", traced["gc_pause_s"], "s")
    put("gc.collections", traced["gc_collections"], "count")
    return m


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    start = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    probe = tally.job({"job": "probe", "spans_path": os.path.join(OUT, "spans-probe.jsonl")})
    if probe is None:
        return {}
    identities = {}
    for name in probe["identities"]:
        result = tally.job({"job": "identity", "name": name})
        if result is not None:
            identities[name] = result
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)["cli"]
    cli = {name: tally.cli(name, expected[name]) for name in CLI_COMMANDS}
    plain, traced, _ = passes_until(tally, workload, seed, start + seconds, traced_too=True)
    if not plain or not traced or len(identities) < len(probe["identities"]):
        return {}
    per_pass = [layer_metrics(probe, t, identities, cli) for t in traced]
    metrics = {
        name: {"value": statistics.median(p[name]["value"] for p in per_pass),
               "unit": spec["unit"]}
        for name, spec in per_pass[0].items()
    }
    # untraced passes of this run: raw seconds, host speed, tracing overhead
    plain_samples, traced_samples = pass_samples(plain), pass_samples(traced)
    for name in RAW_UNITS:
        metrics[f"pass.{name}"] = {
            "value": statistics.median(plain_samples[name]), "unit": RAW_UNITS[name],
        }
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_samples["wall_s"])
        - statistics.median(plain_samples["wall_s"]),
        "unit": "s",
    }
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced_samples["wall_s"])
        / statistics.median(plain_samples["wall_s"]),
        "unit": "ratio",
    }
    for name, spec in metrics.items():
        print(f"{name} [{spec['unit']}] {spec['value']:.6g}")
    return metrics


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    plain, _, setups = passes_until(tally, workload, seed, time.monotonic() + seconds,
                                    traced_too=False)
    return end_to_end(workload, tally, plain, setups) if plain else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bdstirling", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2

    Tally().job({"job": "setup"})  # compiles bytecode before anything is timed
    run = run_traced if args.trace else run_untraced
    attempted = failed = 0
    metrics: dict = {}
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        tally = Tally()
        found = run(workload, args.seed, args.seconds, tally)
        attempted += tally.attempted
        failed += tally.failed
        if args.workload == "all":
            found = {f"{workload}.{k}": v for k, v in found.items()}
        metrics.update(found)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
