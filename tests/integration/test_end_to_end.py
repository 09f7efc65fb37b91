"""End-to-end quality tests: every algorithm against exact optima.

The approximation guarantee is (1 − 1/e − ε) ≈ 0.13 for ε = 0.5, but on
these tiny instances TIM-family results are near-optimal; we assert the
*theoretical* bound strictly and near-optimality loosely.
"""

import pytest

from repro.algorithms import maximize_influence
from repro.analysis import brute_force_opt, exact_spread_ic, exact_spread_lt
from repro.graphs import GraphBuilder


@pytest.fixture(scope="module")
def arena():
    """10 nodes / 14 probabilistic edges, exactly enumerable under IC."""
    builder = GraphBuilder(num_nodes=10)
    edges = [
        (0, 1, 0.8),
        (0, 2, 0.8),
        (1, 3, 0.5),
        (2, 3, 0.5),
        (3, 4, 0.5),
        (5, 6, 0.9),
        (6, 7, 0.9),
        (7, 8, 0.2),
        (8, 9, 0.2),
        (9, 5, 0.2),
        (4, 5, 0.1),
        (2, 6, 0.3),
        (1, 8, 0.1),
        (0, 9, 0.1),
    ]
    builder.add_edges_from(edges)
    return builder.build()


@pytest.fixture(scope="module")
def arena_opt(arena):
    return brute_force_opt(arena, 2, "IC")


# RIS gets a generous tau constant: at small budgets its cost-threshold
# stopping rule yields few, *correlated* RR sets and can misrank clear
# winners — exactly the failure mode the paper's Section 2.3 describes.
GUARANTEED_IC = [
    ("tim", {"epsilon": 0.5, "rng": 1}),
    ("tim+", {"epsilon": 0.5, "rng": 2}),
    ("ris", {"epsilon": 0.5, "rng": 3, "tau_constant": 4.0}),
    ("greedy", {"num_runs": 300, "rng": 4}),
    ("celf", {"num_runs": 300, "rng": 5}),
    ("celf++", {"num_runs": 300, "rng": 6}),
]


class TestApproximationGuaranteesIC:
    @pytest.mark.parametrize("algorithm,kwargs", GUARANTEED_IC)
    def test_beats_theoretical_ratio(self, arena, arena_opt, algorithm, kwargs):
        _, opt = arena_opt
        result = maximize_influence(arena, 2, algorithm=algorithm, model="IC", **kwargs)
        achieved = exact_spread_ic(arena, result.seeds)
        ratio = achieved / opt
        # Theoretical floor (1 - 1/e - 0.5) ~ 0.13; these methods actually
        # land far higher on small instances — assert a meaningful 0.75.
        assert ratio >= 0.75, f"{algorithm}: {achieved:.3f} vs OPT {opt:.3f}"

    def test_tim_plus_near_optimal_here(self, arena, arena_opt):
        _, opt = arena_opt
        result = maximize_influence(arena, 2, algorithm="tim+", model="IC", epsilon=0.3, rng=7)
        achieved = exact_spread_ic(arena, result.seeds)
        assert achieved >= 0.9 * opt

    def test_heuristics_above_random_floor(self, arena, arena_opt):
        _, opt = arena_opt
        for algorithm in ("degree", "degree-discount", "pagerank", "irie"):
            result = maximize_influence(arena, 2, algorithm=algorithm, model="IC", rng=8)
            achieved = exact_spread_ic(arena, result.seeds)
            assert achieved >= 0.4 * opt, algorithm


class TestApproximationGuaranteesLT:
    @pytest.fixture(scope="class")
    def lt_arena(self):
        builder = GraphBuilder(num_nodes=7)
        edges = [
            (0, 1, 0.9),
            (1, 2, 0.8),
            (2, 3, 0.5),
            (4, 5, 0.9),
            (5, 6, 0.5),
            (0, 5, 0.1),
            (3, 4, 0.1),
        ]
        builder.add_edges_from(edges)
        return builder.build()

    def test_tim_plus_lt(self, lt_arena):
        _, opt = brute_force_opt(lt_arena, 2, "LT")
        result = maximize_influence(
            lt_arena, 2, algorithm="tim+", model="LT", epsilon=0.4, rng=9
        )
        achieved = exact_spread_lt(lt_arena, result.seeds)
        assert achieved >= 0.85 * opt

    def test_simpath_lt(self, lt_arena):
        _, opt = brute_force_opt(lt_arena, 2, "LT")
        result = maximize_influence(lt_arena, 2, algorithm="simpath", model="LT")
        achieved = exact_spread_lt(lt_arena, result.seeds)
        assert achieved >= 0.85 * opt


class TestCrossAlgorithmConsistency:
    def test_guaranteed_methods_agree_on_clear_winner(self, arena):
        """On this arena the top singleton is unambiguous; every guaranteed
        method must find the same k=1 seed."""
        best = max(range(arena.n), key=lambda v: exact_spread_ic(arena, [v]))
        for algorithm, kwargs in GUARANTEED_IC:
            result = maximize_influence(arena, 1, algorithm=algorithm, model="IC", **kwargs)
            assert result.seeds == [best], algorithm

    def test_spread_estimates_close_to_exact(self, arena):
        result = maximize_influence(arena, 2, algorithm="tim+", model="IC", epsilon=0.3, rng=10)
        exact = exact_spread_ic(arena, result.seeds)
        # TIM's internal estimate n·F_R(S) should approximate the truth.
        assert result.estimated_spread == pytest.approx(exact, rel=0.25)

    @pytest.mark.parametrize("algorithm", ["tim", "tim+", "imm", "ris"])
    def test_edgeless_graph_gets_k_distinct_seeds(self, algorithm):
        # m = 0: every RR set is its root alone, and Algorithm 2 samples
        # nothing, yet every RR solver must still answer.
        graph = GraphBuilder(num_nodes=5).build()
        result = maximize_influence(graph, 2, algorithm=algorithm, epsilon=0.5, rng=16)
        assert len(set(result.seeds)) == 2
