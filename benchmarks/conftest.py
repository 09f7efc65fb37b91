"""Shared benchmark fixtures.

Every figure-level bench renders its reproduction table, prints it (visible
with ``pytest -s``) and writes it under ``benchmarks/results/<name>.txt`` so
the regenerated evaluation survives the run.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import render

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def record_experiment():
    """Persist and print an ExperimentResult; returns the rendered text."""

    def _record(result):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        text = render(result)
        path = os.path.join(RESULTS_DIR, f"{result.name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print("\n" + text)
        return text

    return _record


def run_once(benchmark, fn, **kwargs):
    """Run a figure generator exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
