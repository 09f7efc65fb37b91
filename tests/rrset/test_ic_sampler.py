"""Tests for the IC RR-set sampler."""

import numpy as np
import pytest

from repro.graphs import constant_probability, path_digraph, star_digraph, weighted_cascade
from repro.graphs.transforms import reverse_reachable_to
from repro.rrset import ICRRSampler
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import ic_rr_set


def members(batch, i):
    return batch.nodes_array[batch.ptr_array[i] : batch.ptr_array[i + 1]].tolist()


class TestDeterministicCases:
    def test_p1_path_full_ancestry(self):
        g = path_digraph(5, prob=1.0)
        batch = ICRRSampler(g).sample_batch([3], RandomSource(1))
        assert set(members(batch, 0)) == {0, 1, 2, 3}

    def test_p0_graph_singleton(self):
        g = constant_probability(path_digraph(5), 0.0)
        batch = ICRRSampler(g).sample_batch([3], RandomSource(1))
        assert members(batch, 0) == [3]

    def test_root_always_included(self, small_wc_graph):
        batch = ICRRSampler(small_wc_graph).sample_random_batch(100, RandomSource(2))
        for i, root in enumerate(batch.roots_array.tolist()):
            assert members(batch, i)[0] == root

    def test_rr_subset_of_reverse_reachable(self, small_wc_graph):
        batch = ICRRSampler(small_wc_graph).sample_random_batch(50, RandomSource(3))
        for i, root in enumerate(batch.roots_array.tolist()):
            assert set(members(batch, i)) <= reverse_reachable_to(small_wc_graph, root)


class TestWidthAndCost:
    def test_width_is_indegree_sum(self, small_wc_graph):
        batch = ICRRSampler(small_wc_graph).sample_random_batch(50, RandomSource(4))
        in_degrees = small_wc_graph.in_degrees()
        for i in range(len(batch)):
            assert batch.widths_array[i] == int(in_degrees[members(batch, i)].sum())

    def test_cost_is_nodes_plus_width(self, small_wc_graph):
        batch = ICRRSampler(small_wc_graph).sample_random_batch(50, RandomSource(5))
        assert np.array_equal(batch.costs_array, batch.set_sizes() + batch.widths_array)

    def test_isolated_root_zero_width(self):
        g = star_digraph(4, outward=True)  # leaves have indegree 1, hub 0
        batch = ICRRSampler(g).sample_batch([0], RandomSource(6))
        assert batch.widths_array.tolist() == [0]
        assert members(batch, 0) == [0]


class TestSingleEdgeStatistics:
    def test_inclusion_probability_matches_edge(self):
        g = path_digraph(2, prob=0.3)
        batch = ICRRSampler(g).sample_batch(np.ones(4000, dtype=np.int64), RandomSource(7))
        hits = int(np.count_nonzero(batch.set_sizes() == 2))
        assert hits / 4000 == pytest.approx(0.3, abs=0.03)


class TestUniformProbabilityDetection:
    def test_hub_mean_size_matches_oracle(self):
        # Star with 20 in-edges of the hub under WC, with the geometric skip
        # forced on for the hub's uniform-probability run.
        g = weighted_cascade(star_digraph(21, outward=False))
        sampler = ICRRSampler(g)
        sampler.GEOMETRIC_SKIP_MIN_EDGES = 8
        runs = 4000
        batch = sampler.sample_batch(np.zeros(runs, dtype=np.int64), RandomSource(100))
        rng = RandomSource(900)
        oracle_mean = sum(len(ic_rr_set(g, 0, rng)) for _ in range(runs)) / runs
        assert batch.set_sizes().mean() == pytest.approx(oracle_mean, rel=0.06)

    def test_uniform_probability_detection(self, small_wc_graph):
        uniform = ICRRSampler(small_wc_graph)._np_unif_p
        in_adj, in_probs = small_wc_graph.in_adjacency()
        for v in range(small_wc_graph.n):
            if in_probs[v]:
                # WC: all in-probs of a node are equal -> uniform everywhere.
                assert uniform[v] == pytest.approx(in_probs[v][0])
            else:
                assert np.isnan(uniform[v])

    def test_non_uniform_nodes_are_not_uniform(self):
        from repro.graphs import DiGraph

        g = DiGraph(3, [0, 1], [2, 2], [0.2, 0.9])
        assert np.isnan(ICRRSampler(g)._np_unif_p[2])


class TestRandomBatch:
    def test_count(self, small_wc_graph):
        sampler = ICRRSampler(small_wc_graph)
        assert len(sampler.sample_random_batch(25, RandomSource(8))) == 25

    def test_deterministic_given_seed(self, small_wc_graph):
        sampler = ICRRSampler(small_wc_graph)
        a = sampler.sample_random_batch(20, RandomSource(9))
        b = sampler.sample_random_batch(20, RandomSource(9))
        assert np.array_equal(a.ptr_array, b.ptr_array)
        assert np.array_equal(a.nodes_array, b.nodes_array)
