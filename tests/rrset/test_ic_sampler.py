"""Tests for the IC RR-set sampler."""

import numpy as np
import pytest

from repro.graphs import (
    DiGraph,
    constant_probability,
    from_edges,
    gnm_random_digraph,
    path_digraph,
    star_digraph,
    weighted_cascade,
)
from repro.graphs.transforms import reverse_reachable_to
from repro.rrset import ICRRSampler
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import assert_same_distribution, ic_rr_set, oracle_batch


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


def hub_graph(in_edges=1100, p=0.08):
    """Node 0 with ``in_edges`` in-edges from leaves that have in-edges from
    each other (a ring), all at constant probability ``p``."""
    leaves = range(1, in_edges + 1)
    edges = [(v, 0, p) for v in leaves]
    edges += [(v, v % in_edges + 1, p) for v in leaves]
    return from_edges(edges, num_nodes=in_edges + 1)


class TestUniformProbabilityDetection:
    def test_hub_mean_size_matches_oracle(self):
        # About 88 successes per hub expansion: far past GAP_ROUNDS, so the
        # hub's slice after its last gap is flipped coin by coin.
        g = hub_graph()
        runs = 2000
        batch = ICRRSampler(g, trace_edges=True).sample_batch(
            np.zeros(runs, dtype=np.int64), RandomSource(100))
        rng = RandomSource(900)
        oracle = [ic_rr_set(g, 0, rng) for _ in range(runs)]
        oracle_mean = sum(len(rr.nodes) for rr in oracle) / runs
        assert batch.set_sizes().mean() == pytest.approx(oracle_mean, rel=0.03)
        oracle_trace = sum(len(rr.trace) for rr in oracle) / runs
        assert np.diff(batch.trace_ptr_array).mean() == pytest.approx(oracle_trace, rel=0.03)

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
        g = DiGraph(3, [0, 1], [2, 2], [0.2, 0.9])
        assert np.isnan(ICRRSampler(g)._np_unif_p[2])


class TestGapExpansion:
    """One wave over a frontier, checked coin by coin: the successes of a
    node's d coins at one probability p are iid Bernoulli(p) positions."""

    @staticmethod
    def expand(graph, frontier, seed):
        sampler = ICRRSampler(graph, trace_edges=True)
        frontier = np.asarray(frontier, dtype=np.int64)
        pos, src, edges = sampler._expand_wave(frontier, RandomSource(seed))
        heads = frontier[pos]
        # Each success is a coin of its frontier node's own slice.
        assert np.all(graph.in_ptr[heads] <= edges)
        assert np.all(edges < graph.in_ptr[heads + 1])
        assert np.array_equal(src, graph.in_idx[edges])
        # No coin succeeds twice for one frontier entry.
        pairs = pos.astype(np.int64) * graph.m + edges
        assert np.unique(pairs).size == pairs.size
        return pos, edges

    def test_hub_coins_are_iid_bernoulli(self):
        g = hub_graph()
        d, p, copies = 1100, 0.08, 3000
        pos, edges = self.expand(g, np.zeros(copies), seed=5)
        per_copy = np.bincount(pos, minlength=copies)
        # Binomial(d, p) successes per expansion: mean and variance.
        sigma = np.sqrt(d * p * (1 - p))
        assert abs(per_copy.mean() - d * p) < 5 * sigma / np.sqrt(copies)
        assert per_copy.var() == pytest.approx(sigma**2, rel=0.1)
        # Every coin position succeeds with probability p, the first ones
        # (drawn as gaps) and the last ones (flipped after GAP_ROUNDS) alike.
        rate = np.bincount(edges - g.in_ptr[0], minlength=d) / copies
        coin_sigma = np.sqrt(p * (1 - p) / copies)
        assert np.all(np.abs(rate - p) < 5 * coin_sigma)

    def test_p_one_succeeds_on_every_coin(self):
        g = constant_probability(star_digraph(12, outward=False), 1.0)
        pos, edges = self.expand(g, [0, 0, 3], seed=6)  # node 3 has no in-edges
        for copy in (0, 1):
            assert sorted(edges[pos == copy].tolist()) == list(range(11))
        assert pos.size == 22

    def test_p_zero_draws_nothing(self):
        g = DiGraph(4, [1, 2, 3], [0, 0, 0], [0.0, 0.0, 0.0])
        sampler = ICRRSampler(g)
        source = RandomSource(7)
        before = source.np.bit_generator.state
        pos, _, _ = sampler._expand_wave(np.zeros(50, dtype=np.int64), source)
        assert pos.size == 0
        assert source.np.bit_generator.state == before

    def test_mixed_and_uniform_nodes_in_one_wave(self):
        # Node 0 shares p = 0.3 over its in-edges; node 4 mixes 0.9 and 0.1.
        g = DiGraph(6, [1, 2, 3, 5, 1], [0, 0, 0, 4, 4], [0.3, 0.3, 0.3, 0.9, 0.1])
        copies = 20000
        frontier = np.tile([0, 4], copies)
        pos, edges = self.expand(g, frontier, seed=8)
        rate = np.bincount(edges, minlength=g.m) / copies
        expected = g.in_prob
        assert np.all(np.abs(rate - expected) < 5 * np.sqrt(expected * (1 - expected) / copies))


class TestStampedRows:
    """A finished set's visited row is recycled by advancing its uint8 stamp
    and wiped only when the stamp wraps; one row recycled past 255 uses."""

    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_one_row_recycled_past_the_wrap_keeps_exact_sets(self, monkeypatch, max_depth):
        monkeypatch.setattr(ICRRSampler, "BATCH_CHUNK_CELLS", 1)  # a single row
        # Two disjoint halves with every coin at 1, so a set is exactly what
        # the oracle returns.  Root ``a`` opens each run of 255 sets and the
        # other 254 stay in the other half: a mark of ``a``'s set that
        # survived the wrap would read as visited when ``a`` comes back.
        half = gnm_random_digraph(20, 45, rng=3)
        g = DiGraph(40, np.r_[half.src, half.src + 20], np.r_[half.dst, half.dst + 20],
                    np.ones(2 * half.m))
        sizes = [len(reverse_reachable_to(g, v)) for v in range(20)]
        a, b = int(np.argmax(sizes)), 20 + int(np.argmax(sizes))
        assert sizes[a] > 2
        roots = np.tile([a] + [b] * 254, 3)
        sampler = ICRRSampler(g, max_depth=max_depth, trace_edges=True)
        batch = sampler.sample_batch(roots, RandomSource(5))
        for rr, root in zip(batch.to_rrsets(), roots.tolist()):
            expected = ic_rr_set(g, root, RandomSource(0), max_depth=max_depth)
            assert rr.nodes[0] == root
            assert len(set(rr.nodes)) == len(rr.nodes)
            assert sorted(rr.nodes) == sorted(expected.nodes)
            assert sorted(rr.trace) == sorted(expected.trace)

    def test_one_row_batch_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(ICRRSampler, "BATCH_CHUNK_CELLS", 1)
        g = weighted_cascade(gnm_random_digraph(150, 600, rng=6))
        batch = ICRRSampler(g).sample_random_batch(3000, RandomSource(7))
        for rr in batch.to_rrsets():
            assert len(set(rr.nodes)) == len(rr.nodes)
        assert_same_distribution(batch, oracle_batch(g, "IC", 3000, seed=8), floor=1e-2)


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
