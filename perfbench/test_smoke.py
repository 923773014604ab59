"""Smoke checks of the benchmark harness itself, at tiny input sizes.

    python3 -m pytest perfbench -q

Every workload runs end to end with its oracle on, and its result line
must name every metric of BENCHMARK.json with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as harness
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 1, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_every_answer_checked(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 100
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_counters_differing_from_an_earlier_run_fail_the_run():
    first = result_of(bench("job_ingest", 0, seed=7))
    assert first["correct"] is True
    [path] = (harness.WORK / "counters").glob(
        f"{harness.source_digest()}-job_ingest-smoke-seed7-*.json")
    recorded = path.read_text()
    try:
        counters = json.loads(recorded)
        counters["joins.lookups"] += 1
        path.write_text(json.dumps(counters))
        done = bench("job_ingest", 0, seed=7)
        assert done.returncode == 1
        assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    finally:
        path.write_text(recorded)
    assert result_of(bench("job_ingest", 1, seed=7))["correct"] is True


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, "op", None, 0, 100),
             (1, "a", "op", 10, 40), (1, "b", "op", 30, 60),
             (1, "c", "b", 35, 45), (2, "op", None, 0, 10)]
    selfs = self_times(spans)
    assert selfs["op"] == [(1, 50), (2, 10)]
    assert selfs["b"] == [(1, 20)]
    assert selfs["a"] == [(1, 30)]
