"""Tests for the IMM martingale engine (Tang, Shi & Xiao 2015)."""

import math
import warnings

import pytest

from repro.api import ExecutionPolicy
from repro.algorithms import maximize_influence
from repro.core import (
    IMMResult,
    imm,
    imm_epsilon_prime,
    imm_lambda_prime,
    imm_lambda_star,
    price,
    tim_plus,
)
from repro.core.parameters import adjusted_ell_tim
from repro.graphs import path_digraph, star_digraph
from repro.rrset import FlatRRCollection
from repro.sketch import SketchIndex


class TestResultContract:
    def test_seed_count_and_label(self, small_wc_graph):
        result = imm(small_wc_graph, 5, epsilon=0.5, rng=1)
        assert isinstance(result, IMMResult)
        assert result.algorithm == "IMM"
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_phase_bookkeeping(self, small_wc_graph):
        result = imm(small_wc_graph, 2, epsilon=0.5, rng=2)
        assert set(result.rr_sets_per_phase) == {"lb_search", "node_selection"}
        assert set(result.phase_seconds) == {"lb_search", "node_selection"}
        assert result.runtime_seconds == pytest.approx(
            sum(result.phase_seconds.values()))
        assert result.total_rr_sets == sum(result.rr_sets_per_phase.values())
        assert result.rr_collection_bytes > 0

    def test_martingale_parameters_match_closed_forms(self, small_wc_graph):
        n = small_wc_graph.n
        result = imm(small_wc_graph, 3, epsilon=0.5, ell=1.0, rng=3)
        assert result.epsilon_prime == pytest.approx(imm_epsilon_prime(0.5))
        assert result.ell_adjusted == pytest.approx(adjusted_ell_tim(1.0, n))
        assert result.lambda_prime == pytest.approx(
            imm_lambda_prime(n, 3, result.epsilon_prime, result.ell_adjusted))
        assert result.lambda_star == pytest.approx(
            imm_lambda_star(n, 3, 0.5, result.ell_adjusted))

    def test_theta_prices_lambda_star_over_lb(self, small_wc_graph):
        result = imm(small_wc_graph, 3, epsilon=0.5, rng=4)
        assert result.theta == max(
            1, math.ceil(result.lambda_star / result.opt_lower_bound))

    def test_lower_bound_is_certified(self, small_wc_graph):
        result = imm(small_wc_graph, 3, epsilon=0.5, rng=5)
        # LB is a lower bound on OPT, so at least 1 (a single seed reaches
        # itself) and at most n; the search must have run at least one round.
        assert 1.0 <= result.opt_lower_bound <= small_wc_graph.n
        assert result.lb_iterations >= 1
        assert result.lb_iterations <= max(1, math.ceil(math.log2(small_wc_graph.n)) - 1)

    def test_deterministic_given_seed(self, small_wc_graph):
        a = imm(small_wc_graph, 4, epsilon=0.5, rng=8)
        b = imm(small_wc_graph, 4, epsilon=0.5, rng=8)
        assert a.seeds == b.seeds
        assert a.theta == b.theta
        assert a.opt_lower_bound == b.opt_lower_bound
        assert a.estimated_spread == b.estimated_spread

    def test_epsilon_and_ell_default_from_policy(self, small_wc_graph):
        policy = ExecutionPolicy(epsilon=0.5, ell=1.0)
        defaulted = imm(small_wc_graph, 2, rng=9, policy=policy)
        explicit = imm(small_wc_graph, 2, epsilon=0.5, ell=1.0, rng=9)
        assert defaulted.seeds == explicit.seeds
        assert defaulted.theta == explicit.theta
        assert defaulted.epsilon == 0.5


class TestValidation:
    def test_rejects_bad_epsilon(self, small_wc_graph):
        with pytest.raises(ValueError):
            imm(small_wc_graph, 2, epsilon=0.0, rng=0)
        with pytest.raises(ValueError):
            imm(small_wc_graph, 2, epsilon=1.5, rng=0)

    def test_rejects_bad_k(self, small_wc_graph):
        with pytest.raises(ValueError):
            imm(small_wc_graph, 0, epsilon=0.5, rng=0)
        with pytest.raises(ValueError):
            imm(small_wc_graph, small_wc_graph.n + 1, epsilon=0.5, rng=0)

    def test_rejects_mismatched_adopted_index(self, small_wc_graph):
        index = SketchIndex.build(small_wc_graph, "IC", theta=50, rng=0)
        try:
            with pytest.raises(ValueError, match="model"):
                imm(small_wc_graph, 2, epsilon=0.5, model="LT", rng=0, index=index)
        finally:
            index.close()


class TestThetaCap:
    def test_cap_flags_result_and_warns(self, small_wc_graph):
        with pytest.warns(RuntimeWarning, match="max_theta cap"):
            result = imm(small_wc_graph, 2, epsilon=0.5, rng=14, max_theta=10)
        assert result.theta == 10
        assert result.theta_capped is True
        assert result.extras["theta_capped"] is True

    def test_uncapped_run_stays_silent(self, small_wc_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = imm(small_wc_graph, 2, epsilon=0.5, rng=14)
        assert result.theta_capped is False
        assert result.extras["theta_capped"] is False


class TestSeedQuality:
    def test_star_hub_first(self):
        g = star_digraph(10, prob=1.0)
        assert imm(g, 1, epsilon=0.5, rng=12).seeds == [0]

    def test_path_head(self):
        g = path_digraph(12, prob=1.0)
        assert imm(g, 1, epsilon=0.5, rng=13).seeds == [0]

    def test_distributional_equivalence_with_tim_plus(self, small_wc_graph):
        """IMM's seeds are as good as TIM+'s under an independent evaluator."""
        judge = SketchIndex.build(small_wc_graph, "IC", theta=20000, rng=999)
        try:
            imm_total = 0.0
            tim_total = 0.0
            for seed in range(8):
                imm_total += judge.spread(
                    imm(small_wc_graph, 3, epsilon=0.5, rng=seed).seeds)
                tim_total += judge.spread(
                    tim_plus(small_wc_graph, 3, epsilon=0.5, rng=seed).seeds)
        finally:
            judge.close()
        assert imm_total >= 0.95 * tim_total

    def test_fewer_rr_sets_than_tim_plus_at_equal_epsilon(self, small_wc_graph):
        imm_result = imm(small_wc_graph, 3, epsilon=0.5, rng=21)
        plus_result = tim_plus(small_wc_graph, 3, epsilon=0.5, rng=21)
        assert imm_result.total_rr_sets < sum(
            plus_result.rr_sets_per_phase.values())
        # Spread estimates agree despite the smaller sketch.
        assert imm_result.estimated_spread == pytest.approx(
            plus_result.estimated_spread, rel=0.25)


class TestModels:
    def test_lt_model(self, small_lt_graph):
        result = imm(small_lt_graph, 3, epsilon=0.5, model="LT", rng=16)
        assert result.model == "LT"
        assert len(result.seeds) == 3

    def test_ic_and_lt_price_theta_independently(self, small_wc_graph):
        ic = imm(small_wc_graph, 3, epsilon=0.5, rng=17)
        lt = imm(small_wc_graph, 3, epsilon=0.5, model="LT", rng=17)
        assert ic.model == "IC" and lt.model == "LT"
        assert len(lt.seeds) == 3


class TestParallelByteIdentity:
    def test_jobs_one_and_two_identical(self, small_wc_graph):
        one = imm(small_wc_graph, 4, epsilon=0.5, rng=30,
                  policy=ExecutionPolicy(jobs=1))
        two = imm(small_wc_graph, 4, epsilon=0.5, rng=30,
                  policy=ExecutionPolicy(jobs=2))
        assert one.seeds == two.seeds
        assert one.theta == two.theta
        assert one.opt_lower_bound == two.opt_lower_bound
        assert one.estimated_spread == two.estimated_spread
        assert one.rr_sets_per_phase == two.rr_sets_per_phase


class TestSketchReuse:
    def test_adopted_index_keeps_grown_sketch(self, small_wc_graph):
        index = SketchIndex.build(small_wc_graph, "IC", theta=100, rng=40)
        try:
            result = imm(small_wc_graph, 3, epsilon=0.5, rng=41, index=index)
            assert result.extras["sketch_sets_reused"] == 100
            assert index.num_sets >= result.theta
            assert index.meta["algorithm"] == "imm"
            assert index.meta["epsilon"] == 0.5
            assert index.meta["imm_lower_bound"] == result.opt_lower_bound
            # The grown sketch answers follow-up queries directly.
            assert index.select(3).seeds == result.seeds
        finally:
            index.close()

    def test_warm_index_samples_only_the_shortfall(self, small_wc_graph):
        cold = imm(small_wc_graph, 3, epsilon=0.5, rng=42)
        index = SketchIndex.build(small_wc_graph, "IC", theta=100, rng=42)
        try:
            warm = imm(small_wc_graph, 3, epsilon=0.5, rng=42, index=index)
        finally:
            index.close()
        assert warm.total_rr_sets <= cold.total_rr_sets
        assert warm.theta >= 1

    def test_imm_price_on_fresh_index(self, small_wc_graph):
        collection = FlatRRCollection(small_wc_graph.n, small_wc_graph.m)
        index = SketchIndex(collection, graph=small_wc_graph, model="IC")
        try:
            pricing = price(index, 3, 0.5, 1.0, "imm", rng=7)
            assert pricing.ell_adjusted == adjusted_ell_tim(1.0, small_wc_graph.n)
            assert index.num_sets >= pricing.theta
            assert len(index.select(3).seeds) == 3
            assert pricing.rr_sets_per_phase["lb_search"] >= 1
        finally:
            index.close()


class TestRegistry:
    def test_maximize_influence_dispatch(self, small_wc_graph):
        via_registry = maximize_influence(
            small_wc_graph, 3, algorithm="imm", epsilon=0.5, rng=50)
        direct = imm(small_wc_graph, 3, epsilon=0.5, rng=50)
        assert via_registry.seeds == direct.seeds
        assert via_registry.algorithm == "IMM"


class TestBuildThroughIndex:
    def test_build_with_imm_derivation(self, small_wc_graph):
        index = SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                                  algorithm="imm", rng=60)
        try:
            assert index.meta["algorithm"] == "imm"
            assert index.meta["epsilon"] == 0.5
            assert index.meta["k"] == 3
            assert len(index.select(3).seeds) == 3
        finally:
            index.close()

    def test_imm_derivation_is_smaller_than_tim(self, small_wc_graph):
        via_imm = SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                                    algorithm="imm", rng=61)
        via_tim = SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                                    algorithm="tim", rng=61)
        try:
            assert via_tim.meta["algorithm"] == "tim"
            assert via_imm.num_sets < via_tim.num_sets
        finally:
            via_imm.close()
            via_tim.close()

    def test_policy_algorithm_drives_build(self, small_wc_graph):
        policy = ExecutionPolicy(algorithm="imm")
        index = SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                                  policy=policy, rng=62)
        try:
            assert index.meta["algorithm"] == "imm"
        finally:
            index.close()

    def test_build_rejects_unknown_algorithm(self, small_wc_graph):
        with pytest.raises(ValueError, match="algorithm"):
            SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                              algorithm="greedy", rng=63)

    def test_imm_built_index_round_trips(self, small_wc_graph, tmp_path):
        path = tmp_path / "imm.npz"
        index = SketchIndex.build(small_wc_graph, "IC", k=3, epsilon=0.5,
                                  algorithm="imm", rng=64)
        try:
            seeds = index.select(3).seeds
            index.save(path)
        finally:
            index.close()
        reloaded = SketchIndex.load(path, graph=small_wc_graph)
        assert reloaded.meta["algorithm"] == "imm"
        assert reloaded.meta["epsilon"] == 0.5
        assert reloaded.select(3).seeds == seeds
