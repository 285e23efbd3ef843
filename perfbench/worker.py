"""One benchmark job in a fresh interpreter, so every ``lru_cache`` is cold.

    python3 perfbench/worker.py <spawn time> <job JSON>

``<spawn time>`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to ``import bdstirling`` plus the
CLI parser being built.  The job's result is the last line of stdout, as
JSON.  Jobs: ``setup`` (nothing more), ``pass`` (one workload pass),
``probe`` (the layer probe) and ``identity`` (one identity, cold then warm).
"""
import sys
import time

_SPAWNED = float(sys.argv[1])

import bdstirling  # noqa: E402
from bdstirling.cli import build_parser  # noqa: E402

build_parser()
SETUP_S = time.monotonic() - _SPAWNED

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import probe  # noqa: E402
import workloads  # noqa: E402
from tracing import GcMonitor, NullTracer, Tracer  # noqa: E402


def summarize(tr: Tracer) -> dict:
    """Span aggregates with the per-call median and 99th percentile."""
    out = tr.aggregate()
    for agg in out.values():
        durations = sorted(agg.pop("durations"))
        agg["median_ns"] = statistics.median(durations)
        agg["p99_ns"] = durations[min(len(durations) - 1, (99 * len(durations)) // 100)]
    return out


def _reference_loop() -> int:
    """A fixed slice of the kinds of work the library does: small tuples and
    frozensets, a dict, sorting, and a big-integer triangle recurrence."""
    acc = 0
    seen: dict = {}
    for i in range(1500):
        t = (i % 7, i % 11, -(i % 5), i % 3)
        key = frozenset(t)
        seen[key] = seen.get(key, 0) + 1
        acc += sum(sorted(t))
    row = [1]
    for s in range(1, 40):
        row = [(row[r - 1] if r else 0) + ((2 * r + 1) * row[r] if r < len(row) else 0)
               for r in range(s + 1)]
    return acc + len(seen) + row[-1] % 7


def reference_s() -> float:
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


class SpeedProbe:
    """Times the reference loop before, during and after a pass.

    The host's speed drifts by tens of percent within a second, so one pass
    is compared with reference loops run inside it: a timer signal runs one
    every ``PERIOD_S``, and their time is taken out of the pass's wall time.
    The loop belongs to the benchmark, so a change to the library cannot
    move it.  Traced passes run it only before and after, so that no span
    holds a reference loop.
    """

    PERIOD_S = 0.05

    def __init__(self, inside: bool):
        self.inside = inside
        self.times: list[float] = []
        self.inside_s = 0.0

    def _run(self) -> float:
        elapsed = reference_s()
        self.times.append(elapsed)
        return elapsed

    def _on_signal(self, signum, frame):
        self.inside_s += self._run()

    def __enter__(self):
        self._run()
        if self.inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._run()
        return False


def run_pass(job: dict, checks: workloads.Checks) -> dict:
    name = job["workload"]
    w = workloads.WORKLOADS[name]
    inputs = w["prepare"](job["seed"], workloads.SIZES[name])
    tr = Tracer() if job["trace"] else NullTracer()
    gc_monitor = GcMonitor() if job["trace"] else None
    with gc_monitor or contextlib.nullcontext(), SpeedProbe(inside=not job["trace"]) as speed:
        start = time.perf_counter()
        with tr.span(f"pass.{name}"):
            items, raw = w["work"](tr, inputs, checks)
        wall_s = time.perf_counter() - start - speed.inside_s
    w["check"](raw, checks)
    digest = workloads.digest(w["canonical"](raw))
    expected = workloads.load_digests()["workloads"][name]
    checks.expect(digest == expected, f"{name} digest {digest} != {expected}")
    result = {
        "wall_s": wall_s, "ref_s": statistics.fmean(speed.times), "items": items,
        "digest": digest,
    }
    if job["trace"]:
        hits = misses = 0
        for cached in (bdstirling.descent_histogram, bdstirling.flag_histogram):
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        result.update(
            spans=summarize(tr),
            cache_hits=hits,
            cache_misses=misses,
            gc_pause_s=gc_monitor.pause_ns / 1e9,
            gc_collections=gc_monitor.collections,
        )
        if job.get("spans_path"):
            tr.write(job["spans_path"], f"{name}-seed{job['seed']}")
    return result


def run_probe(job: dict, checks: workloads.Checks) -> dict:
    tr = Tracer()
    with tr.span("probe"):
        result = probe.run(tr, checks)
    result["spans"] = summarize(tr)
    if job.get("spans_path"):
        tr.write(job["spans_path"], "probe")
    return result


def run_identity(job: dict, checks: workloads.Checks) -> dict:
    times = []
    reports = []
    for _ in range(2):
        start = time.perf_counter()
        reports.append(bdstirling.verify_identity(job["name"], m=workloads.COLORS))
        times.append(time.perf_counter() - start)
    cold, warm = reports
    if cold.asserted:
        checks.expect(cold.passed, f"identity {job['name']} failed")
    checks.expect(cold == warm, f"identity {job['name']} differs when warm")
    return {"cold_s": times[0], "warm_s": times[1]}


JOBS = {
    "setup": lambda job, checks: {},
    "pass": run_pass,
    "probe": run_probe,
    "identity": run_identity,
}


def main() -> None:
    # host speed just after set-up, to compare set-up times across moments
    setup_ref_s = statistics.fmean(reference_s() for _ in range(5))
    job = json.loads(sys.argv[2])
    checks = workloads.Checks()
    result = JOBS[job["job"]](job, checks)
    result.update(
        setup_s=SETUP_S,
        setup_ref_s=setup_ref_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.first,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
