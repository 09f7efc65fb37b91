"""Graph delta primitives: spliced CSR snapshots and edge-id remapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    DiGraph,
    delete_edge,
    gnm_random_digraph,
    insert_edge,
    locate_edge,
    reweight_edge,
    weighted_cascade,
)


@pytest.fixture
def graph():
    return weighted_cascade(gnm_random_digraph(30, 120, rng=5))


def edge_identity(graph):
    """in-CSR id -> (source, destination) pairs for the whole graph."""
    dst_of = np.searchsorted(graph.in_ptr, np.arange(graph.m), side="right") - 1
    return list(zip(graph.in_idx.tolist(), dst_of.tolist()))


class TestInsert:
    def test_appends_edge(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        new = delta.new_graph
        assert new.m == graph.m + 1
        assert new.has_edge(3, 7)
        assert new.edge_probability(3, 7) == pytest.approx(0.25)
        assert graph.m == 120  # original untouched
        assert delta.new_fingerprint == new.fingerprint()
        assert delta.old_fingerprint == graph.fingerprint()
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_new_edge_lands_last_in_slice(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        new = delta.new_graph
        # in_pos is the new edge's id in the NEW graph, at the end of 7's slice.
        assert delta.in_pos == int(graph.in_ptr[8])
        assert int(new.in_idx[delta.in_pos]) == 3
        assert float(new.in_prob[delta.in_pos]) == pytest.approx(0.25)

    def test_remap_preserves_edge_identity(self, graph):
        delta = insert_edge(graph, 3, 7, 0.25)
        old_ids = np.arange(graph.m)
        new_ids = delta.remap_edge_ids(old_ids)
        old_identity = edge_identity(graph)
        new_identity = edge_identity(delta.new_graph)
        for old, new in zip(old_ids.tolist(), new_ids.tolist()):
            assert old_identity[old] == new_identity[new]

    def test_rejects_bad_probability(self, graph):
        with pytest.raises(ValueError):
            insert_edge(graph, 0, 1, 1.5)

    def test_rejects_bad_node(self, graph):
        with pytest.raises(ValueError):
            insert_edge(graph, 0, graph.n, 0.5)


class TestDelete:
    def test_removes_edge(self, graph):
        u, v = int(graph.src[17]), int(graph.dst[17])
        delta = delete_edge(graph, u, v)
        assert delta.new_graph.m == graph.m - 1
        assert delta.old_prob == pytest.approx(graph.edge_probability(u, v))
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_missing_edge_raises(self, graph):
        missing = next(
            (u, v)
            for u in range(graph.n)
            for v in range(graph.n)
            if u != v and not graph.has_edge(u, v)
        )
        with pytest.raises(KeyError):
            delete_edge(graph, *missing)

    def test_remap_preserves_edge_identity(self, graph):
        u, v = int(graph.src[17]), int(graph.dst[17])
        delta = delete_edge(graph, u, v)
        surviving = np.setdiff1d(np.arange(graph.m), [delta.in_pos])
        new_ids = delta.remap_edge_ids(surviving)
        old_identity = edge_identity(graph)
        new_identity = edge_identity(delta.new_graph)
        for old, new in zip(surviving.tolist(), new_ids.tolist()):
            assert old_identity[old] == new_identity[new]

    def test_parallel_edges_delete_first_match(self):
        # DiGraph permits parallel edges (GraphBuilder deduplicates).
        g = DiGraph(3, np.array([0, 1, 0]), np.array([2, 2, 2]),
                    np.array([0.1, 0.2, 0.3]))
        delta = delete_edge(g, 0, 2)
        assert delta.old_prob == pytest.approx(0.1)
        assert delta.new_graph.edge_probability(0, 2) == pytest.approx(0.3)


class TestReweight:
    def test_replaces_probability(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        delta = reweight_edge(graph, u, v, 0.9)
        assert delta.new_graph.edge_probability(u, v) == pytest.approx(0.9)
        assert delta.new_graph.m == graph.m
        assert delta.new_fingerprint != delta.old_fingerprint

    def test_remap_is_identity(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        delta = reweight_edge(graph, u, v, 0.9)
        ids = np.arange(graph.m)
        assert np.array_equal(delta.remap_edge_ids(ids), ids)

    def test_same_probability_still_changes_fingerprint_only_if_bits_differ(self, graph):
        u, v = int(graph.src[3]), int(graph.dst[3])
        p = graph.edge_probability(u, v)
        delta = reweight_edge(graph, u, v, p)
        assert delta.new_fingerprint == delta.old_fingerprint


class TestLocate:
    def test_locate_agrees_with_csr(self, graph):
        for j in (0, 10, 50):
            u, v = int(graph.src[j]), int(graph.dst[j])
            edge_index, in_pos = locate_edge(graph, u, v)
            assert int(graph.in_idx[in_pos]) == u
            assert int(graph.src[edge_index]) == u
            assert int(graph.dst[edge_index]) == v
            assert graph.in_ptr[v] <= in_pos < graph.in_ptr[v + 1]

    def test_locate_missing_raises(self):
        g = DiGraph(3, np.array([0]), np.array([1]), np.array([0.5]))
        with pytest.raises(KeyError):
            locate_edge(g, 1, 0)


# ----------------------------------------------------------------------
# Spliced snapshots equal a from-scratch build
# ----------------------------------------------------------------------
GRAPH_ARRAYS = ("src", "dst", "prob", "out_ptr", "out_idx", "out_prob",
                "in_ptr", "in_idx", "in_prob")


def expected_graph(graph, op, u, v, prob):
    """``DiGraph(n, src', dst', prob')`` for the edited edge list."""
    src, dst, probs = graph.src, graph.dst, graph.prob
    if op == "insert":
        return DiGraph(graph.n, np.append(src, u), np.append(dst, v), np.append(probs, prob))
    first = int(np.flatnonzero((src == u) & (dst == v))[0])
    if op == "delete":
        return DiGraph(graph.n, np.delete(src, first), np.delete(dst, first),
                       np.delete(probs, first))
    probs = probs.copy()
    probs[first] = prob
    return DiGraph(graph.n, src, dst, probs)


def apply(graph, op, u, v, prob):
    if op == "insert":
        return insert_edge(graph, u, v, prob)
    if op == "delete":
        return delete_edge(graph, u, v)
    return reweight_edge(graph, u, v, prob)


def assert_spliced(graph, op, u, v, prob=0.5):
    """The primitive's snapshot equals a from-scratch build, array for array."""
    delta = apply(graph, op, u, v, prob)
    want = expected_graph(graph, op, u, v, prob)
    got = delta.new_graph
    assert (got.n, got.m) == (want.n, want.m)
    for name in GRAPH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert delta.new_fingerprint == got.fingerprint() == want.fingerprint()
    return delta


@st.composite
def graphs_and_updates(draw):
    """Small graphs (parallel edges and self-loops likely) and one valid update."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=14))
    node = st.integers(min_value=0, max_value=n - 1)
    prob = st.floats(min_value=0.0, max_value=1.0)
    src = draw(st.lists(node, min_size=m, max_size=m))
    dst = draw(st.lists(node, min_size=m, max_size=m))
    graph = DiGraph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                    np.array(draw(st.lists(prob, min_size=m, max_size=m)), dtype=np.float64))
    op = draw(st.sampled_from(("insert", "delete", "reweight") if m else ("insert",)))
    if op == "insert":
        u, v = draw(node), draw(node)
    else:
        edge = draw(st.integers(min_value=0, max_value=m - 1))
        u, v = src[edge], dst[edge]
    return graph, op, u, v, draw(prob)


class TestSplicedSnapshot:
    @given(graphs_and_updates())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_from_scratch_build(self, case):
        assert_spliced(*case)

    @pytest.mark.parametrize("op", ["insert", "delete", "reweight"])
    def test_edges_at_the_first_and_last_node(self, op):
        g = DiGraph(5, np.array([0, 4, 2, 0, 4]), np.array([4, 0, 2, 0, 4]),
                    np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        for u, v in ((0, 4), (4, 0), (0, 0), (4, 4)):
            assert_spliced(g, op, u, v, 0.75)

    def test_delete_that_empties_an_in_slice(self):
        g = DiGraph(4, np.array([0, 1, 2]), np.array([1, 3, 3]), np.array([0.5, 0.25, 0.75]))
        delta = assert_spliced(g, "delete", 0, 1)
        assert delta.new_graph.in_degree(1) == 0

    def test_delete_of_the_last_edge(self):
        g = DiGraph(3, np.array([2]), np.array([0]), np.array([0.5]))
        delta = assert_spliced(g, "delete", 2, 0)
        assert delta.new_graph.m == 0
        assert delta.new_graph.out_ptr.tolist() == delta.new_graph.in_ptr.tolist() == [0] * 4

    def test_insert_parallel_to_an_existing_edge(self):
        g = DiGraph(3, np.array([0, 1, 0]), np.array([2, 2, 1]), np.array([0.1, 0.2, 0.3]))
        delta = assert_spliced(g, "insert", 0, 2, 0.9)
        assert delta.new_graph.in_idx[delta.in_pos] == 0
        assert delta.new_graph.in_neighbors(2).tolist() == [0, 1, 0]
        assert delta.new_graph.out_neighbors(0).tolist() == [2, 1, 2]

    def test_insert_into_an_empty_graph(self):
        assert_spliced(DiGraph(2, np.array([]), np.array([]), np.array([])), "insert", 1, 0)


class TestSplicedRejections:
    """Every update the constructor would reject is still rejected."""

    @given(st.integers(min_value=-2, max_value=4), st.integers(min_value=-2, max_value=4),
           st.floats(min_value=-0.5, max_value=1.5))
    @settings(max_examples=100, deadline=None)
    def test_insert_rejects_what_the_constructor_rejects(self, u, v, prob):
        g = DiGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
        try:
            expected_graph(g, "insert", u, v, prob)
        except ValueError:
            with pytest.raises(ValueError):
                insert_edge(g, u, v, prob)
        else:
            assert_spliced(g, "insert", u, v, prob)

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    def test_reweight_rejects_a_bad_probability(self, prob):
        g = DiGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            expected_graph(g, "reweight", 0, 1, prob)
        with pytest.raises(ValueError):
            reweight_edge(g, 0, 1, prob)

    @pytest.mark.parametrize("op", ["delete", "reweight"])
    @pytest.mark.parametrize("u, v", [(-1, 1), (0, 3), (3, 0)])
    def test_out_of_range_endpoints(self, op, u, v):
        g = DiGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            apply(g, op, u, v, 0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("src", 3, "src node id out of range"),
        ("dst", -1, "dst node id out of range"),
        ("prob", 1.25, "edge probabilities must lie in"),
    ])
    def test_private_constructor_runs_the_checks(self, field, value, message):
        g = DiGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]))
        arrays = {"src": g.src.copy(), "dst": g.dst.copy(), "prob": g.prob.copy()}
        arrays[field][0] = value
        with pytest.raises(ValueError, match=message):
            DiGraph(3, arrays["src"], arrays["dst"], arrays["prob"])
        with pytest.raises(ValueError, match=message):
            DiGraph._from_csr(3, arrays["src"], arrays["dst"], arrays["prob"],
                              (g.out_ptr, g.out_idx, g.out_prob),
                              (g.in_ptr, g.in_idx, g.in_prob))
