"""Tests for node-weighted influence maximization."""

import warnings

import numpy as np
import pytest

from repro.api import ExecutionPolicy
from repro.core import WeightedRootSampler, node_selection, weighted_lambda, weighted_tim_plus
from repro.graphs import (
    GraphBuilder,
    gnm_random_digraph,
    path_digraph,
    star_digraph,
    weighted_cascade,
)
from repro.parallel import ParallelSampler
from repro.rrset import make_rr_sampler
from repro.utils.rng import RandomSource


class TestWeightedRootSampler:
    def test_roots_proportional_to_weights(self, small_wc_graph):
        weights = np.ones(small_wc_graph.n)
        weights[7] = 10.0
        sampler = WeightedRootSampler(make_rr_sampler(small_wc_graph, "IC"), weights)
        roots = sampler.sample_random_batch(6000, RandomSource(1)).roots_array
        frequency = np.count_nonzero(roots == 7) / 6000
        expected = 10.0 / weights.sum()
        assert frequency == pytest.approx(expected, rel=0.15)

    def test_zero_weight_roots_never_drawn(self, small_wc_graph):
        weights = np.ones(small_wc_graph.n)
        weights[3] = 0.0
        sampler = WeightedRootSampler(make_rr_sampler(small_wc_graph, "IC"), weights)
        roots = sampler.sample_random_batch(600, RandomSource(2)).roots_array
        assert roots.size == 600
        assert not np.any(roots == 3)

    def test_random_batch_keeps_weighted_roots(self, small_wc_graph):
        weights = np.zeros(small_wc_graph.n)
        weights[5] = 1.0
        sampler = WeightedRootSampler(make_rr_sampler(small_wc_graph, "IC"), weights)
        assert set(sampler.sample_random_batch(20, RandomSource(3)).roots_array) == {5}

    def test_parallel_shards_keep_weighted_roots(self):
        # Random-root shards must draw through the wrapped sampler's root
        # law: at any jobs value every root carries weight, and the shard
        # bytes do not depend on the worker count.  Workers rebuild the
        # weighted sampler, so jobs=2 runs in the pool without a warning.
        graph = weighted_cascade(gnm_random_digraph(60, 300, rng=1))
        weights = np.zeros(graph.n)
        weights[5] = 1.0
        batches = []
        for jobs in (1, 2):
            sampler = ParallelSampler(
                WeightedRootSampler(make_rr_sampler(graph, "IC"), weights), jobs=jobs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with sampler:
                    batches.append(sampler.sample_random_batch(2000, rng=1))
                    if jobs == 2:
                        assert sampler._state.get("executor") is not None  # a real pool
        for batch in batches:
            assert set(batch.roots_array.tolist()) == {5}
        for name in ("ptr_array", "nodes_array", "roots_array", "widths_array",
                     "costs_array"):
            assert np.array_equal(getattr(batches[0], name), getattr(batches[1], name))

    def test_parallel_shards_keep_edge_traces(self):
        # The pool merges shard traces only when the sampler it wraps says
        # it traces; the weighted wrapper reports its inner sampler's flag.
        graph = weighted_cascade(gnm_random_digraph(300, 1500, rng=1))
        batches = []
        for jobs in (1, 2):
            inner = make_rr_sampler(graph, "IC", trace_edges=True)
            with ParallelSampler(WeightedRootSampler(inner, np.ones(graph.n)),
                                 jobs=jobs) as sampler:
                batches.append(sampler.sample_random_batch(3000, rng=1))
        for batch in batches:
            assert batch.has_traces
            assert len(batch) == 3000 and batch.trace_edges_array.size > 0
        for name in ("ptr_array", "nodes_array", "roots_array", "trace_ptr_array",
                     "trace_edges_array"):
            assert np.array_equal(getattr(batches[0], name), getattr(batches[1], name))

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_node_selection_keeps_weighted_roots(self, jobs):
        graph = weighted_cascade(gnm_random_digraph(60, 300, rng=1))
        weights = np.zeros(graph.n)
        weights[5] = 1.0
        sampler = WeightedRootSampler(make_rr_sampler(graph, "IC"), weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # jobs=2 runs in the pool, no fallback
            result = node_selection(graph, 1, 2000, sampler, rng=1,
                                    policy=ExecutionPolicy(jobs=jobs))
        assert result.seeds == [5]

    def test_explicit_roots_take_the_inner_batch_path(self, small_wc_graph):
        sampler = WeightedRootSampler(
            make_rr_sampler(small_wc_graph, "IC"), np.ones(small_wc_graph.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # no scalar fallback
            batch = sampler.sample_batch(np.array([4, 2, 4]), RandomSource(4))
        assert batch.roots_array.tolist() == [4, 2, 4]

    def test_rejects_negative_weights(self, small_wc_graph):
        weights = np.ones(small_wc_graph.n)
        weights[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            WeightedRootSampler(make_rr_sampler(small_wc_graph, "IC"), weights)

    def test_rejects_all_zero(self, small_wc_graph):
        with pytest.raises(ValueError):
            WeightedRootSampler(
                make_rr_sampler(small_wc_graph, "IC"), np.zeros(small_wc_graph.n)
            )

    def test_rejects_wrong_length(self, small_wc_graph):
        with pytest.raises(ValueError):
            WeightedRootSampler(make_rr_sampler(small_wc_graph, "IC"), np.ones(3))

    def test_weighted_estimator_unbiased(self):
        """W * F_R(S) estimates the weighted spread (weighted Corollary 1)."""
        g = path_digraph(4, prob=0.5)
        # Weight only the tail node: weighted spread of {0} =
        # w3 * P(0 activates 3) + w0 * 1 = 8 * 0.125 + 1.
        weights = np.array([1.0, 0.0, 0.0, 8.0])
        sampler = WeightedRootSampler(make_rr_sampler(g, "IC"), weights)
        runs = 30000
        covered = sampler.sample_random_batch(runs, RandomSource(3)).coverage_count([0])
        estimate = covered / runs * sampler.total_weight
        assert estimate == pytest.approx(8 * 0.125 + 1.0, abs=0.1)


class TestWeightedLambda:
    def test_reduces_to_plain_lambda_for_uniform_weights(self):
        from repro.core import lambda_param

        n, k, epsilon, ell = 100, 3, 0.5, 1.0
        assert weighted_lambda(n, float(n), k, epsilon, ell) == pytest.approx(
            lambda_param(n, k, epsilon, ell)
        )

    def test_scales_with_total_weight(self):
        assert weighted_lambda(100, 200.0, 3, 0.5, 1.0) == pytest.approx(
            2 * weighted_lambda(100, 100.0, 3, 0.5, 1.0)
        )


class TestWeightedTimPlus:
    def test_uniform_weights_match_unweighted_choice(self, small_wc_graph):
        from repro.core import tim_plus

        weighted = weighted_tim_plus(
            small_wc_graph, 1, np.ones(small_wc_graph.n), epsilon=0.5, rng=4
        )
        plain = tim_plus(small_wc_graph, 1, epsilon=0.5, rng=4)
        assert weighted.seeds == plain.seeds

    def test_weights_redirect_selection(self):
        # Two stars; hub 0 has more leaves, but hub 5's leaves carry all the
        # weight — the weighted objective must pick hub 5.
        builder = GraphBuilder(num_nodes=10)
        for leaf in (1, 2, 3, 4):
            builder.add_edge(0, leaf, 1.0)
        for leaf in (6, 7, 8):
            builder.add_edge(5, leaf, 1.0)
        g = builder.build()
        weights = np.zeros(10)
        weights[[6, 7, 8]] = 5.0
        weights[5] = 1.0
        result = weighted_tim_plus(g, 1, weights, epsilon=0.5, rng=5)
        assert result.seeds == [5]

    def test_unweighted_choice_differs_here(self):
        builder = GraphBuilder(num_nodes=10)
        for leaf in (1, 2, 3, 4):
            builder.add_edge(0, leaf, 1.0)
        for leaf in (6, 7, 8):
            builder.add_edge(5, leaf, 1.0)
        g = builder.build()
        from repro.core import tim_plus

        plain = tim_plus(g, 1, epsilon=0.5, rng=6)
        assert plain.seeds == [0]  # bigger star wins by node count

    def test_estimated_spread_in_weight_units(self):
        g = star_digraph(6, prob=1.0, outward=True)
        weights = np.full(6, 2.0)
        result = weighted_tim_plus(g, 1, weights, epsilon=0.5, rng=7)
        assert result.seeds == [0]
        # Hub activates all 6 nodes: weighted spread 12.
        assert result.estimated_spread == pytest.approx(12.0, rel=0.1)

    def test_weight_floor_applies(self, small_wc_graph):
        weights = np.ones(small_wc_graph.n)
        result = weighted_tim_plus(small_wc_graph, 5, weights, epsilon=0.5, rng=8)
        assert result.kpt_plus >= result.extras["weight_floor"]
        assert result.extras["weight_floor"] == pytest.approx(5.0)

    def test_theta_cap(self, small_wc_graph):
        with pytest.warns(RuntimeWarning, match="max_theta cap"):
            result = weighted_tim_plus(
                small_wc_graph, 2, np.ones(small_wc_graph.n), epsilon=0.5, rng=9,
                max_theta=11
            )
        assert result.theta == 11
        assert result.theta_capped is True
        assert result.extras["theta_capped"] is True

    def test_result_contract(self, small_wc_graph):
        result = weighted_tim_plus(
            small_wc_graph, 4, np.ones(small_wc_graph.n), epsilon=0.5, rng=10
        )
        assert result.algorithm == "WeightedTIM+"
        assert len(set(result.seeds)) == 4
        assert result.rr_collection_bytes > 0
