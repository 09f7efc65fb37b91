"""Tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.graphs import DiGraph


def triangle() -> DiGraph:
    return DiGraph(3, [0, 1, 2], [1, 2, 0], [0.1, 0.2, 0.3])


class TestConstruction:
    def test_basic_counts(self):
        g = triangle()
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = DiGraph(0, [], [])
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_nodes_without_edges(self):
        g = DiGraph(5, [0], [1])
        assert g.out_degree(4) == 0
        assert g.in_degree(4) == 0

    def test_default_probability_is_one(self):
        g = DiGraph(2, [0], [1])
        assert g.edge_probability(0, 1) == 1.0

    def test_rejects_out_of_range_src(self):
        with pytest.raises(ValueError, match="src"):
            DiGraph(2, [5], [1])

    def test_rejects_out_of_range_dst(self):
        with pytest.raises(ValueError, match="dst"):
            DiGraph(2, [0], [7])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probabilities"):
            DiGraph(2, [0], [1], [1.5])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="probabilities"):
            DiGraph(2, [0], [1], [-0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            DiGraph(3, [0, 1], [1])

    def test_parallel_edges_allowed(self):
        g = DiGraph(2, [0, 0], [1, 1], [0.1, 0.2])
        assert g.out_degree(0) == 2


class TestAdjacency:
    def test_out_neighbors(self):
        g = triangle()
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.out_neighbors(2)) == [0]

    def test_in_neighbors(self):
        g = triangle()
        assert list(g.in_neighbors(1)) == [0]
        assert list(g.in_neighbors(0)) == [2]

    def test_out_edges_probability_alignment(self):
        g = DiGraph(3, [0, 0], [1, 2], [0.25, 0.75])
        targets, probs = g.out_edges(0)
        assert dict(zip(targets.tolist(), probs.tolist())) == {1: 0.25, 2: 0.75}

    def test_in_edges_probability_alignment(self):
        g = DiGraph(3, [0, 1], [2, 2], [0.25, 0.75])
        sources, probs = g.in_edges(2)
        assert dict(zip(sources.tolist(), probs.tolist())) == {0: 0.25, 1: 0.75}

    def test_degree_arrays_match_scalars(self):
        g = triangle()
        assert g.out_degrees().tolist() == [g.out_degree(v) for v in g.nodes()]
        assert g.in_degrees().tolist() == [g.in_degree(v) for v in g.nodes()]

    def test_degree_sum_equals_edges(self):
        g = DiGraph(4, [0, 0, 1, 3], [1, 2, 2, 2])
        assert int(g.out_degrees().sum()) == g.m
        assert int(g.in_degrees().sum()) == g.m

    def test_python_adjacency_matches_numpy(self):
        g = DiGraph(4, [0, 0, 1, 3], [1, 2, 2, 2], [0.1, 0.2, 0.3, 0.4])
        out_adj, out_probs = g.out_adjacency()
        for v in g.nodes():
            assert out_adj[v] == list(g.out_neighbors(v))
            assert out_probs[v] == pytest.approx(list(g.out_edges(v)[1]))
        in_adj, in_probs = g.in_adjacency()
        for v in g.nodes():
            assert in_adj[v] == list(g.in_neighbors(v))
            assert in_probs[v] == pytest.approx(list(g.in_edges(v)[1]))

    def test_adjacency_is_cached(self):
        g = triangle()
        assert g.out_adjacency() is g.out_adjacency()
        assert g.in_adjacency() is g.in_adjacency()

    def test_node_id_validation(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.out_neighbors(3)
        with pytest.raises(ValueError):
            g.in_degree(-1)


class TestDerivedGraphs:
    def test_transpose_reverses_edges(self):
        g = triangle()
        t = g.transpose()
        assert t.edge_set() == {(v, u) for u, v in g.edge_set()}

    def test_transpose_preserves_probabilities(self):
        g = triangle()
        t = g.transpose()
        assert t.edge_probability(1, 0) == g.edge_probability(0, 1)

    def test_double_transpose_is_identity(self):
        g = triangle()
        assert g.transpose().transpose().same_structure(g)

    def test_with_probabilities(self):
        g = triangle()
        g2 = g.with_probabilities([0.9, 0.9, 0.9])
        assert g2.edge_probability(0, 1) == 0.9
        assert g.edge_probability(0, 1) == 0.1  # original untouched

    def test_copy_is_independent(self):
        g = triangle()
        c = g.copy()
        assert c.same_structure(g)
        c.prob[0] = 0.99
        assert g.prob[0] == 0.1


class TestQueries:
    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_probability_missing_raises(self):
        with pytest.raises(KeyError):
            triangle().edge_probability(1, 0)

    def test_edges_iteration(self):
        g = triangle()
        assert list(g.edges()) == [(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3)]

    def test_same_structure_detects_difference(self):
        g = triangle()
        other = DiGraph(3, [0, 1, 2], [1, 2, 0], [0.1, 0.2, 0.9])
        assert not g.same_structure(other)

    def test_edge_set_collapses_parallel(self):
        g = DiGraph(2, [0, 0], [1, 1])
        assert g.edge_set() == {(0, 1)}


class TestCsrInvariants:
    def test_ptr_monotone(self):
        g = DiGraph(5, [0, 0, 2, 4, 4, 4], [1, 2, 3, 0, 1, 2])
        assert np.all(np.diff(g.out_ptr) >= 0)
        assert np.all(np.diff(g.in_ptr) >= 0)
        assert g.out_ptr[-1] == g.m
        assert g.in_ptr[-1] == g.m

    def test_csr_round_trip(self):
        g = DiGraph(5, [4, 0, 2, 0, 4, 4], [1, 2, 3, 1, 0, 2], [0.5] * 6)
        rebuilt = set()
        for v in g.nodes():
            for u in g.out_neighbors(v):
                rebuilt.add((v, int(u)))
        assert rebuilt == g.edge_set()

    @pytest.mark.parametrize("seed", range(6))
    def test_slices_list_edges_in_input_order(self, seed):
        # locate_edge and GraphDelta.remap_edge_ids rely on this order.
        # Distinct probabilities tell parallel edges apart; the input is
        # unsorted and repeats (u, v) pairs.
        rng = np.random.default_rng(seed)
        n, m = 7, 60
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        prob = (np.arange(m) + 1) / (m + 1)
        rng.shuffle(prob)
        g = DiGraph(n, src, dst, prob)
        for v in range(n):
            targets, probs = g.out_edges(v)
            ids = np.flatnonzero(src == v)
            assert targets.tolist() == dst[ids].tolist()
            assert probs.tolist() == prob[ids].tolist()
            sources, probs = g.in_edges(v)
            ids = np.flatnonzero(dst == v)
            assert sources.tolist() == src[ids].tolist()
            assert probs.tolist() == prob[ids].tolist()
