"""Every workload runs on a small graph with its output checks on."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_passes_its_checks(name, trace, small, tmp_path):
    spec = benchmark_spec()
    run = workloads.Run(small, 3, 0.3, str(tmp_path))
    outcome = workloads.run_workload(name, run, trace)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"] for m in expected} <= set(outcome.metrics)
    assert all(math.isfinite(value) for value in outcome.metrics.values())
    assert set(outcome.inputs) >= {"graph"}


def test_no_child_process_outlives_a_pooled_run(small, tmp_path):
    run = workloads.Run(small, 3, 0.3, str(tmp_path))
    assert workloads.run_workload("tim_plus", run, False).failed == 0
    workloads.stop_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_names_what_the_runs_report():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert "{" not in done.stdout
