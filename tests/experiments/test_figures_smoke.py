"""Smoke tests for the figure generators at miniature parameters.

Full-size reproductions live in benchmarks/; here we only verify that each
experiment runs end to end, produces the advertised columns, and satisfies
the cheap invariants (counts, orderings that are deterministic).
"""

import pytest

from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table2,
)

TINY = {"scale": 0.05}  # nethept stand-in at n=75 etc.


class TestTable2:
    def test_five_rows(self):
        result = table2(scale=0.1)
        assert len(result.rows) == 5
        assert result.column("name") == [
            "nethept",
            "epinions",
            "dblp",
            "livejournal",
            "twitter",
        ]

    def test_types_match_paper(self):
        result = table2(scale=0.1)
        assert result.column("type") == [
            "undirected",
            "directed",
            "undirected",
            "directed",
            "directed",
        ]


class TestBaselineFigures:
    def test_figure3_columns(self):
        result = figure3(scale=0.05, k_values=(1, 3), epsilon=0.5, celf_runs=10, ris_tau_constant=0.05)
        assert result.headers == ["k", "TIM", "TIM+", "RIS", "CELF++"]
        assert len(result.rows) == 2
        assert all(isinstance(v, float) and v >= 0 for row in result.rows for v in row[1:])

    def test_figure4_phases_sum(self):
        result = figure4(refine=True, scale=0.05, k_values=(1, 3), epsilon=0.5)
        for row in result.rows:
            assert row[4] == pytest.approx(row[1] + row[2] + row[3])

    def test_figure4_tim_has_no_refinement(self):
        result = figure4(refine=False, scale=0.05, k_values=(2,), epsilon=0.5)
        assert result.rows[0][2] == 0.0

    def test_figure5_kpt_ordering(self):
        result = figure5(
            scale=0.05, k_values=(1, 3), epsilon=0.5, celf_runs=10,
            ris_tau_constant=0.05, spread_samples=200,
        )
        for row in result.rows:
            kpt_star, kpt_plus = row[5], row[6]
            assert kpt_plus >= kpt_star


class TestScaleFigures:
    def test_figure6_shape(self):
        result = figure6(scale=0.03, k_values=(1, 3), epsilon=0.5, datasets=("epinions",))
        assert len(result.rows) == 2
        assert result.headers[2:] == ["TIM(IC)", "TIM+(IC)", "TIM(LT)", "TIM+(LT)"]

    def test_figure6_tim_omitted_on_twitter(self):
        result = figure6(scale=0.02, k_values=(2,), epsilon=0.5, datasets=("twitter",))
        assert result.rows[0][2] is None  # TIM(IC)
        assert result.rows[0][4] is None  # TIM(LT)
        assert result.rows[0][3] is not None  # TIM+ runs

    def test_figure7_rows(self):
        result = figure7(scale=0.03, epsilons=(0.5, 1.0), k=3, datasets=("epinions",))
        assert len(result.rows) == 2
        assert result.column("epsilon") == [0.5, 1.0]

    def test_figure12_memory_positive(self):
        result = figure12(scale=0.03, k_values=(2,), epsilon=0.5, datasets=("nethept",))
        row = result.rows[0]
        assert row[2] > 0 and row[3] > 0  # IC and LT MiB
        assert row[4] > 0 and row[5] > 0  # theta columns


class TestHeuristicFigures:
    def test_figure8_and_9_consistency(self):
        runtime = figure8(scale=0.05, k_values=(1, 3), datasets=("nethept",))
        spread = figure9(
            scale=0.05, k_values=(1, 3), datasets=("nethept",), spread_samples=200
        )
        assert runtime.headers[-1] == "IRIE"
        assert len(runtime.rows) == len(spread.rows) == 2
        # Spreads at least cover the seeds themselves.
        for row in spread.rows:
            assert row[2] >= row[1] * 0  # defined
            assert row[2] >= 1.0

    def test_figure10_and_11(self):
        runtime = figure10(scale=0.05, k_values=(1, 3), datasets=("nethept",))
        spread = figure11(
            scale=0.05, k_values=(1, 3), datasets=("nethept",), spread_samples=200
        )
        assert runtime.headers[-1] == "SIMPATH"
        assert len(runtime.rows) == 2
        for row in spread.rows:
            assert row[2] >= 1.0 and row[3] >= 1.0
