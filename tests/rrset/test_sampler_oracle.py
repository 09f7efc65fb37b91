"""The per-root oracle itself, pinned on hand-checkable graphs."""

import pytest

from repro.graphs import DiGraph, constant_probability, cycle_digraph, path_digraph
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import ic_rr_set, lt_rr_set, oracle_batch


class TestICOracle:
    def test_p1_path_full_ancestry(self):
        g = path_digraph(5, prob=1.0)
        rr = ic_rr_set(g, 3, RandomSource(1))
        assert rr.nodes == (3, 2, 1, 0)
        assert (rr.width, rr.cost) == (3, 7)  # node 0 has no in-edge
        assert rr.trace == (2, 1, 0)  # in-CSR ids of the edges into 3, 2, 1

    def test_p0_graph_singleton(self):
        g = constant_probability(path_digraph(5), 0.0)
        rr = ic_rr_set(g, 3, RandomSource(1))
        assert rr.nodes == (3,)
        assert (rr.width, rr.trace) == (1, ())  # one coin examined, none live

    def test_single_edge_inclusion_rate(self):
        g = path_digraph(2, prob=0.3)
        rng = RandomSource(7)
        hits = sum(0 in ic_rr_set(g, 1, rng).nodes for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.3, abs=0.03)

    def test_depth_bound_on_p1_path(self):
        g = path_digraph(5, prob=1.0)
        rr = ic_rr_set(g, 4, RandomSource(1), max_depth=2)
        assert rr.nodes == (4, 3, 2)
        assert rr.width == 2  # node 2 sits at the horizon: not expanded


class TestLTOracle:
    def test_weight_one_chain_walks_to_source(self):
        g = path_digraph(4, prob=1.0)
        rr = lt_rr_set(g, 3, RandomSource(1))
        assert rr.nodes == (3, 2, 1, 0)
        assert rr.cost == 8  # one draw per member

    def test_single_edge_inclusion_rate(self):
        g = DiGraph(2, [0], [1], [0.4])
        rng = RandomSource(6)
        hits = sum(0 in lt_rr_set(g, 1, rng).nodes for _ in range(4000))
        assert hits / 4000 == pytest.approx(0.4, abs=0.03)

    def test_cycle_walk_stops_on_revisit(self):
        g = cycle_digraph(5, prob=1.0)
        rr = lt_rr_set(g, 0, RandomSource(10))
        assert rr.nodes == (0, 4, 3, 2, 1)
        assert len(rr.trace) == 5  # the pick back into 0 is live too


class TestOracleBatch:
    def test_random_roots_and_traces(self):
        g = path_digraph(6, prob=1.0)
        batch = oracle_batch(g, "IC", 50, seed=3)
        assert len(batch) == 50 and batch.has_traces
        for i, root in enumerate(batch.roots_array.tolist()):
            assert batch.set_sizes()[i] == root + 1
