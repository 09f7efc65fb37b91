"""Experiment harness and per-figure reproductions of the paper's Section 7."""

from repro.experiments.export import (
    load_result_json,
    records_to_json,
    result_to_csv,
    result_to_json,
)
from repro.experiments.figures_baselines import figure3, figure4, figure5
from repro.experiments.figures_heuristics import figure8, figure9, figure10, figure11
from repro.experiments.figures_scale import figure6, figure7, figure12, table2
from repro.experiments.harness import RunRecord, run_algorithm
from repro.experiments.reporting import ExperimentResult, format_table, render
from repro.experiments.theory import section5_table

#: Registry mapping experiment ids to their generator functions.
EXPERIMENTS = {
    "table2": table2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "section5": section5_table,
}

__all__ = [
    "EXPERIMENTS",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "table2",
    "RunRecord",
    "run_algorithm",
    "ExperimentResult",
    "format_table",
    "render",
    "section5_table",
    "load_result_json",
    "records_to_json",
    "result_to_csv",
    "result_to_json",
]
