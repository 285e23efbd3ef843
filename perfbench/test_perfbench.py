"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

SMALL = {
    "census": {"cube": ((2, 3), (3, 2)), "torus": ((2, 3, 2),)},
    "roundtrip": {"forward_n": 3, "inverse_n": 3, "sample": 20, "sample_n": (5, 6)},
    "triangles": {"rows": 12, "basis_nmax": 6},
}


def small_pass(name, tr=None):
    w = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    _, raw = w["work"](tr or NullTracer(), w["prepare"](3, SMALL[name]), checks)
    w["check"](raw, checks)
    return raw, checks


def recheck(name, raw):
    checks = workloads.Checks()
    workloads.WORKLOADS[name]["check"](raw, checks)
    return checks


def worker_pass(name, trace):
    job = {"job": "pass", "workload": name, "seed": 5, "trace": trace}
    proc = subprocess.run(
        [sys.executable, run.WORKER, repr(time.monotonic()), json.dumps(job)],
        capture_output=True, text=True, env=run.child_env(), cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_unperturbed_small_pass_has_no_failures(name):
    _, checks = small_pass(name)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.first


def test_perturbed_triangle_row_is_counted_as_failed():
    raw, _ = small_pass("triangles")
    row = list(raw["rows"]["B"][3])
    row[1] += 1
    raw["rows"]["B"][3] = tuple(row)
    assert recheck("triangles", raw).failed == 1


def test_perturbed_census_count_is_counted_as_failed():
    raw, _ = small_pass("census")
    res = raw[0]
    some_class = next(iter(res.counts))
    res.counts[some_class] += 1
    assert recheck("census", raw).failed == 2  # its class count and the total


def test_perturbed_refusal_count_is_counted_as_failed():
    raw, _ = small_pass("roundtrip")
    raw["refused"] -= 1
    assert recheck("roundtrip", raw).failed == 1


def test_perturbed_histogram_breaks_sum_symmetry_and_brenti():
    hists = {
        "A": [(1,), (1, 0), (1, 1, 0)],
        "B": [(1,), (1, 1), (1, 6, 1)],
        "D": [(1,), (1, 0), (1, 2, 1)],
        "G": [(1,), (1, 2)],
        "flag_natural": [(1,), (1, 1)],
        "flag_color": [(1,), (1, 1)],
    }
    raw = {"hists": hists, "reports": {}}
    assert recheck("eulerian", raw).failed == 0
    hists["B"][2] = (1, 6, 2)
    failures = recheck("eulerian", raw)
    assert failures.failed == 3  # row sum, symmetry, Brenti's recurrence


def test_perturbed_output_changes_the_digest():
    raw, _ = small_pass("triangles")
    before = workloads.digest(workloads.triangles_canonical(raw))
    raw["rows"]["A"][5] = raw["rows"]["A"][5][:-1] + (2,)
    assert workloads.digest(workloads.triangles_canonical(raw)) != before


def test_small_pass_spans_have_parents_and_counts():
    tr = Tracer()
    small_pass("triangles", tr)
    assert all(s.end >= s.start for s in tr.records)
    assert all(s.parent == -1 for s in tr.records)
    rows = tr.aggregate()["partitions.stirling_row"]
    assert rows["calls"] == 4 * 13
    assert rows["count"] == 4 * sum(n + 1 for n in range(13))


@pytest.mark.parametrize("name", ["triangles", "census"])
def test_traced_and_untraced_pass_give_the_committed_digest(name):
    plain = worker_pass(name, 0)
    traced = worker_pass(name, 1)
    committed = workloads.load_digests()["workloads"][name]
    assert plain["digest"] == traced["digest"] == committed
    assert plain["failed"] == traced["failed"] == 0
    assert "spans" in traced and "spans" not in plain


def test_traced_run_reports_every_per_layer_metric_and_the_overhead(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "triangles",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "trace.overhead_s" in result["metrics"]
    with open(os.path.join(run.OUT, "spans-triangles.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans[0]["name"] == "pass.triangles" and spans[0]["parent"] == -1
    assert all(s["parent"] == 0 for s in spans[1:])
    assert all(s["start_ns"] <= s["end_ns"] for s in spans)


def test_untraced_run_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "triangles",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_names_agree_with_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
