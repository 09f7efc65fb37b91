"""Tests for the TIM / TIM+ drivers."""

import pytest

from repro.core import tim, tim_plus
from repro.diffusion import ICTriggering, LTTriggering, TriggeringModel
from repro.graphs import GraphBuilder, path_digraph, star_digraph


class TestResultContract:
    def test_seed_count(self, small_wc_graph):
        result = tim(small_wc_graph, 5, epsilon=0.5, rng=1)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_algorithm_labels(self, small_wc_graph):
        assert tim(small_wc_graph, 2, epsilon=0.5, rng=1).algorithm == "TIM"
        assert tim_plus(small_wc_graph, 2, epsilon=0.5, rng=1).algorithm == "TIM+"

    def test_phase_bookkeeping_tim(self, small_wc_graph):
        result = tim(small_wc_graph, 2, epsilon=0.5, rng=2)
        assert set(result.rr_sets_per_phase) == {"parameter_estimation", "node_selection"}
        assert set(result.phase_seconds) == {"parameter_estimation", "node_selection"}

    def test_phase_bookkeeping_tim_plus(self, small_wc_graph):
        result = tim_plus(small_wc_graph, 2, epsilon=0.5, rng=2)
        assert set(result.rr_sets_per_phase) == {
            "parameter_estimation",
            "refinement",
            "node_selection",
        }

    def test_theta_equals_lambda_over_kpt(self, small_wc_graph):
        import math

        result = tim_plus(small_wc_graph, 3, epsilon=0.5, rng=3)
        assert result.theta == max(1, math.ceil(result.lambda_value / result.kpt_plus))

    def test_node_selection_used_theta_sets(self, small_wc_graph):
        result = tim(small_wc_graph, 3, epsilon=0.5, rng=4)
        assert result.rr_sets_per_phase["node_selection"] == result.theta

    def test_kpt_plus_at_least_kpt_star(self, small_wc_graph):
        result = tim_plus(small_wc_graph, 3, epsilon=0.5, rng=5)
        assert result.kpt_plus >= result.kpt_star

    def test_tim_has_kpt_plus_equal_star(self, small_wc_graph):
        result = tim(small_wc_graph, 3, epsilon=0.5, rng=6)
        assert result.kpt_plus == result.kpt_star

    def test_ell_adjustment_direction(self, small_wc_graph):
        tim_result = tim(small_wc_graph, 2, epsilon=0.5, ell=1.0, rng=7)
        plus_result = tim_plus(small_wc_graph, 2, epsilon=0.5, ell=1.0, rng=7)
        assert plus_result.ell_adjusted > tim_result.ell_adjusted > 1.0

    def test_deterministic_given_seed(self, small_wc_graph):
        a = tim_plus(small_wc_graph, 4, epsilon=0.5, rng=8)
        b = tim_plus(small_wc_graph, 4, epsilon=0.5, rng=8)
        assert a.seeds == b.seeds
        assert a.theta == b.theta

    def test_memory_accounting_positive(self, small_wc_graph):
        result = tim_plus(small_wc_graph, 2, epsilon=0.5, rng=9)
        assert result.rr_collection_bytes > 0

    def test_runtime_recorded(self, small_wc_graph):
        result = tim_plus(small_wc_graph, 2, epsilon=0.5, rng=10)
        assert result.runtime_seconds > 0.0
        assert result.runtime_seconds == pytest.approx(sum(result.phase_seconds.values()))


class TestSolutionQuality:
    def test_figure1_example_k1(self, figure1_graph):
        # Example 1's conclusion: v4 (node 3) is the best single seed.
        result = tim_plus(figure1_graph, 1, epsilon=0.3, rng=11)
        assert result.seeds == [3]

    def test_star_hub(self):
        g = star_digraph(30, prob=1.0, outward=True)
        result = tim(g, 1, epsilon=0.5, rng=12)
        assert result.seeds == [0]

    def test_path_head(self):
        g = path_digraph(12, prob=1.0)
        result = tim_plus(g, 1, epsilon=0.5, rng=13)
        assert result.seeds == [0]

    def test_theta_cap_flags_result(self, small_wc_graph):
        with pytest.warns(RuntimeWarning, match="max_theta cap"):
            result = tim(small_wc_graph, 2, epsilon=0.5, rng=14, max_theta=10)
        assert result.theta == 10
        assert result.theta_capped is True
        assert result.extras["theta_capped"] is True

    def test_uncapped_run_neither_flags_nor_warns(self, small_wc_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = tim_plus(small_wc_graph, 2, epsilon=0.5, rng=14)
        assert result.theta_capped is False
        assert result.extras["theta_capped"] is False

    @pytest.mark.parametrize("run", [
        lambda g: tim_plus(g, 2, epsilon=0.5, rng=16),
        lambda g: tim(g, 2, epsilon=0.5, rng=16, refine=True),
    ], ids=["tim_plus", "tim_refine"])
    def test_edgeless_graph_skips_refinement(self, run):
        # Algorithm 2 samples nothing when m = 0 (KPT* = 1), so there is no
        # R' for Algorithm 3; TIM+ must still answer with KPT+ = KPT* = 1.
        result = run(GraphBuilder(num_nodes=5).build())
        assert len(set(result.seeds)) == 2
        assert result.kpt_star == result.kpt_plus == 1.0
        assert result.rr_sets_per_phase["refinement"] == 0
        assert result.extras["interim_seeds"] == []


class TestModels:
    def test_lt_model(self, small_lt_graph):
        result = tim_plus(small_lt_graph, 3, epsilon=0.5, model="LT", rng=16)
        assert result.model == "LT"
        assert len(result.seeds) == 3

    def test_triggering_model_ic_instance(self, small_wc_graph):
        model = TriggeringModel(ICTriggering(small_wc_graph))
        result = tim_plus(small_wc_graph, 3, epsilon=0.5, model=model, rng=17)
        assert result.model == "triggering"
        assert len(result.seeds) == 3

    def test_triggering_model_lt_instance(self, small_lt_graph):
        model = TriggeringModel(LTTriggering(small_lt_graph))
        result = tim(small_lt_graph, 2, epsilon=0.5, model=model, rng=18)
        assert len(result.seeds) == 2

    def test_triggering_equivalent_to_ic_choice(self, small_wc_graph):
        # The generic triggering path should pick the same top seed as the
        # dedicated IC path (same distribution; seeds may differ past ties).
        ic = tim_plus(small_wc_graph, 1, epsilon=0.4, model="IC", rng=19)
        trig = tim_plus(
            small_wc_graph,
            1,
            epsilon=0.4,
            model=TriggeringModel(ICTriggering(small_wc_graph)),
            rng=19,
        )
        assert ic.seeds == trig.seeds


class TestValidation:
    def test_rejects_bad_epsilon(self, small_wc_graph):
        with pytest.raises(ValueError):
            tim(small_wc_graph, 2, epsilon=1.5)

    def test_rejects_bad_k(self, small_wc_graph):
        with pytest.raises(ValueError):
            tim(small_wc_graph, 0)

    def test_rejects_single_node_graph(self):
        from repro.graphs import DiGraph

        with pytest.raises(ValueError):
            tim(DiGraph(1, [], []), 1)

    def test_lt_weight_validation_enforced(self):
        from repro.graphs import DiGraph

        g = DiGraph(3, [0, 1], [2, 2], [0.9, 0.9])
        with pytest.raises(ValueError):
            tim(g, 1, model="LT")
