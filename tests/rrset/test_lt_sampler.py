"""Tests for the LT RR-set sampler."""

import warnings

import numpy as np
import pytest

from repro.graphs import DiGraph, gnm_random_digraph, path_digraph, uniform_random_lt
from repro.graphs.transforms import reverse_reachable_to
from repro.rrset import LTRRSampler
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import oracle_batch


def members(batch, i):
    return batch.nodes_array[batch.ptr_array[i] : batch.ptr_array[i + 1]].tolist()


class TestStructure:
    def test_weight_one_chain_walks_to_source(self):
        g = path_digraph(4, prob=1.0)
        batch = LTRRSampler(g).sample_batch([3], RandomSource(1))
        assert members(batch, 0) == [3, 2, 1, 0]

    def test_rr_set_is_a_path(self, small_lt_graph):
        # LT RR sets are random in-walks: node i+1 of the order must be an
        # in-neighbour of node i.
        batch = LTRRSampler(small_lt_graph).sample_random_batch(50, RandomSource(2))
        in_adj, _ = small_lt_graph.in_adjacency()
        for i in range(len(batch)):
            nodes = members(batch, i)
            for a, b in zip(nodes, nodes[1:]):
                assert b in in_adj[a]

    def test_root_first(self, small_lt_graph):
        batch = LTRRSampler(small_lt_graph).sample_random_batch(20, RandomSource(3))
        for i, root in enumerate(batch.roots_array.tolist()):
            assert members(batch, i)[0] == root

    def test_no_duplicates(self, small_lt_graph):
        batch = LTRRSampler(small_lt_graph).sample_random_batch(50, RandomSource(4))
        for i in range(len(batch)):
            nodes = members(batch, i)
            assert len(set(nodes)) == len(nodes)

    def test_subset_of_reverse_reachable(self, small_lt_graph):
        batch = LTRRSampler(small_lt_graph).sample_random_batch(50, RandomSource(5))
        for i, root in enumerate(batch.roots_array.tolist()):
            assert set(members(batch, i)) <= reverse_reachable_to(small_lt_graph, root)

    def test_rejects_invalid_weights(self):
        g = DiGraph(3, [0, 1], [2, 2], [0.8, 0.8])
        with pytest.raises(ValueError):
            LTRRSampler(g)


class TestStatistics:
    def test_walk_picks_proportional_to_weight(self):
        g = DiGraph(3, [0, 1], [2, 2], [0.25, 0.75])
        batch = LTRRSampler(g).sample_batch(np.full(4000, 2), RandomSource(7))
        picked = [members(batch, i)[1:] for i in range(len(batch))]
        assert sum(nodes == [0] for nodes in picked) / 4000 == pytest.approx(0.25, abs=0.03)
        assert sum(nodes == [1] for nodes in picked) / 4000 == pytest.approx(0.75, abs=0.03)

    def test_width_accounting(self, small_lt_graph):
        batch = LTRRSampler(small_lt_graph).sample_random_batch(30, RandomSource(8))
        in_degrees = small_lt_graph.in_degrees()
        for i in range(len(batch)):
            assert batch.widths_array[i] == int(in_degrees[members(batch, i)].sum())

    def test_cost_counts_walk_steps(self, small_lt_graph):
        batch = LTRRSampler(small_lt_graph).sample_random_batch(30, RandomSource(9))
        # Exactly one draw per visited node (the final draw terminates),
        # so cost = |R| nodes + |R| draws.
        assert np.array_equal(batch.costs_array, 2 * batch.set_sizes())


class TestCycleTermination:
    def test_cycle_walk_terminates(self):
        from repro.graphs import cycle_digraph

        g = cycle_digraph(5, prob=1.0)
        batch = LTRRSampler(g).sample_batch([0], RandomSource(10))
        # Walks the full cycle backwards, then stops on the revisit of 0.
        assert members(batch, 0) == [0, 4, 3, 2, 1]


class TestVectorizedBatch:
    """The numpy-batched walk waves of LTRRSampler.sample_batch."""

    @pytest.fixture(scope="class")
    def lt_graph(self):
        return uniform_random_lt(gnm_random_digraph(800, 5000, rng=31), rng=2)

    def test_no_python_fallback_warning(self, lt_graph):
        sampler = LTRRSampler(lt_graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sampler.sample_batch(np.arange(50), RandomSource(1))

    def test_roots_order_and_membership(self, lt_graph):
        sampler = LTRRSampler(lt_graph)
        roots = np.array([5, 5, 17, 0, 799], dtype=np.int64)
        batch = sampler.sample_batch(roots, RandomSource(2))
        assert np.array_equal(batch.roots_array, roots.astype(np.int32))
        in_adj, _ = lt_graph.in_adjacency()
        ptr, nodes = batch.ptr_array, batch.nodes_array
        for i in range(len(batch)):
            members = nodes[ptr[i] : ptr[i + 1]].tolist()
            assert members[0] == roots[i]
            assert len(set(members)) == len(members)
            # Each member is a step of an in-walk from its predecessor.
            for a, b in zip(members, members[1:]):
                assert b in in_adj[a]

    def test_width_and_cost_invariants(self, lt_graph):
        sampler = LTRRSampler(lt_graph)
        batch = sampler.sample_random_batch(500, RandomSource(3))
        assert np.array_equal(batch.costs_array, 2 * batch.set_sizes())
        in_deg = lt_graph.in_degrees()
        ptr, nodes = batch.ptr_array, batch.nodes_array
        for i in range(0, len(batch), 37):
            members = nodes[ptr[i] : ptr[i + 1]]
            assert batch.widths_array[i] == in_deg[members].sum()

    def test_distribution_matches_oracle(self, lt_graph):
        oracle = oracle_batch(lt_graph, "LT", 3000, seed=4)
        batch = LTRRSampler(lt_graph).sample_random_batch(3000, RandomSource(5))
        assert batch.set_sizes().mean() == pytest.approx(oracle.set_sizes().mean(), rel=0.1)
        assert batch.widths_array.mean() == pytest.approx(oracle.widths_array.mean(), rel=0.1)

    def test_single_edge_inclusion_rate_batched(self):
        g = DiGraph(2, [0], [1], [0.4])
        sampler = LTRRSampler(g)
        batch = sampler.sample_batch(np.ones(4000, dtype=np.int64), RandomSource(6))
        hits = int(np.count_nonzero(batch.set_sizes() == 2))
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_weight_one_chain_batched(self):
        g = path_digraph(6, prob=1.0)
        sampler = LTRRSampler(g)
        batch = sampler.sample_batch(np.array([5, 3]), RandomSource(7))
        ptr, nodes = batch.ptr_array, batch.nodes_array
        assert nodes[ptr[0] : ptr[1]].tolist() == [5, 4, 3, 2, 1, 0]
        assert nodes[ptr[1] : ptr[2]].tolist() == [3, 2, 1, 0]

    def test_cycle_terminates_batched(self):
        from repro.graphs import cycle_digraph

        g = cycle_digraph(5, prob=1.0)
        sampler = LTRRSampler(g)
        batch = sampler.sample_batch(np.zeros(8, dtype=np.int64), RandomSource(8))
        assert np.all(batch.set_sizes() == 5)

    def test_deterministic_same_seed(self, lt_graph):
        sampler = LTRRSampler(lt_graph)
        a = sampler.sample_random_batch(1000, RandomSource(9))
        b = sampler.sample_random_batch(1000, RandomSource(9))
        assert np.array_equal(a.nodes_array, b.nodes_array)
        assert np.array_equal(a.ptr_array, b.ptr_array)

    def test_empty_roots(self, lt_graph):
        sampler = LTRRSampler(lt_graph)
        batch = sampler.sample_batch(np.empty(0, dtype=np.int64), RandomSource(10))
        assert len(batch) == 0

    def test_chunking_matches_single_chunk(self, lt_graph, monkeypatch):
        roots = np.arange(0, 600, dtype=np.int64) % lt_graph.n
        whole = LTRRSampler(lt_graph).sample_batch(roots, RandomSource(11))
        monkeypatch.setattr(LTRRSampler, "BATCH_CHUNK_MAX", 128)
        chunked = LTRRSampler(lt_graph).sample_batch(roots, RandomSource(12))
        # Different chunking => different RNG consumption, same distribution.
        assert chunked.set_sizes().mean() == pytest.approx(
            whole.set_sizes().mean(), rel=0.25
        )
        assert np.array_equal(chunked.roots_array, whole.roots_array)
