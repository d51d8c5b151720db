"""Smoke test of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest -q bench/test_bench.py

Kept outside the package's test suite so that it does not add to its run
time.  For each workload it checks that every metric named in
BENCHMARK.json is printed with its unit, that the output checks ran, and
that the traced run wrote spans.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_and_checks(workload):
    lines, result = _bench(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {line.split()[1] for line in lines if line.startswith("# ")}
    assert set(run.WORKLOAD_METRICS[workload]) | {"setup_s"} <= printed
    for value in result["metrics"].values():
        assert value["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_writes_spans(workload):
    _, result = _bench(workload, 1)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] is True and result["attempted"] >= 1
    spans_file = os.path.join(run.OUT, f"spans-{workload}.jsonl")
    with open(spans_file, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert len(spans) == result["metrics"]["trace.spans"]["value"] > 0
    assert {"run", "id", "parent", "name", "start", "end"} <= set(spans[0])
    assert all(s["end"] >= s["start"] for s in spans)
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_refuses_to_run_without_package():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "robin", "--seed",
         "1", "--seconds", "1", "--trace", "0"], capture_output=True,
        text=True, cwd=bare, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
