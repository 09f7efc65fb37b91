"""Incremental sketch repair: invalidation rules, splicing, determinism."""

import numpy as np
import pytest

from repro.dynamic import DynamicDiGraph, affected_set_ids, repair_collection
from repro.graphs import (
    GraphBuilder,
    delete_edge,
    gnm_random_digraph,
    insert_edge,
    reweight_edge,
    uniform_random_lt,
    weighted_cascade,
)
from repro.parallel import ParallelSampler
from repro.rrset import make_rr_sampler
from repro.rrset.ic_sampler import ICRRSampler
from repro.sketch import SketchIndex
from repro.utils.rng import RandomSource


def wc_graph(n=120, m=600, rng=11):
    return weighted_cascade(gnm_random_digraph(n, m, rng=rng))


def traced_collection(graph, model="IC", theta=800, seed=42):
    sampler = make_rr_sampler(graph, model, trace_edges=True)
    return sampler.sample_random_batch(theta, RandomSource(seed)), sampler


def assert_widths_consistent(collection, graph):
    """w(R) must equal the sum of members' in-degrees on ``graph``."""
    indeg = np.diff(graph.in_ptr)
    ptr, nodes = collection.ptr_array, collection.nodes_array
    sizes = np.diff(ptr)
    expected = np.where(sizes > 0, np.add.reduceat(indeg[nodes], ptr[:-1]), 0)
    assert np.array_equal(expected, collection.widths_array)


def assert_traces_consistent(collection, graph):
    """Every trace edge must point between members of its set."""
    te, tp = collection.trace_edges_array, collection.trace_ptr_array
    ptr, nodes = collection.ptr_array, collection.nodes_array
    dst_of = np.searchsorted(graph.in_ptr, te, side="right") - 1
    for i in range(len(collection)):
        members = set(nodes[ptr[i] : ptr[i + 1]].tolist())
        for j in range(int(tp[i]), int(tp[i + 1])):
            assert int(dst_of[j]) in members
            assert int(graph.in_idx[te[j]]) in members


def assert_kept_sets_identical(old, new, affected):
    kept = np.setdiff1d(np.arange(len(old)), affected)
    op, on = old.ptr_array, old.nodes_array
    np_, nn = new.ptr_array, new.nodes_array
    for i in kept.tolist():
        assert np.array_equal(on[op[i] : op[i + 1]], nn[np_[i] : np_[i + 1]])
        assert old.roots_array[i] == new.roots_array[i]


class TestInvalidationRulesIC:
    def test_delete_invalidates_exactly_live_edge_sets(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        u, v = int(g.src[7]), int(g.dst[7])
        delta = delete_edge(g, u, v)
        affected = affected_set_ids(coll, delta, "IC")
        # Exactly the sets whose trace holds the deleted edge's old id.
        for i in range(len(coll)):
            has_edge = delta.in_pos in coll.trace_of(i).tolist()
            assert (i in affected) == has_edge

    def test_insert_invalidates_member_sets(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        delta = insert_edge(g, 3, 9, 0.4)
        affected = set(affected_set_ids(coll, delta, "IC").tolist())
        ptr, nodes = coll.ptr_array, coll.nodes_array
        for i in range(len(coll)):
            assert (i in affected) == (9 in nodes[ptr[i] : ptr[i + 1]].tolist())

    def test_reweight_up_spares_sets_with_live_edge(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        u, v = int(g.src[7]), int(g.dst[7])
        delta = reweight_edge(g, u, v, min(1.0, g.edge_probability(u, v) * 2))
        affected = set(affected_set_ids(coll, delta, "IC").tolist())
        ptr, nodes = coll.ptr_array, coll.nodes_array
        for i in range(len(coll)):
            member = v in nodes[ptr[i] : ptr[i + 1]].tolist()
            live = delta.in_pos in coll.trace_of(i).tolist()
            assert (i in affected) == (member and not live)

    def test_noop_reweight_invalidates_nothing(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        u, v = int(g.src[7]), int(g.dst[7])
        delta = reweight_edge(g, u, v, g.edge_probability(u, v))
        assert affected_set_ids(coll, delta, "IC").size == 0

    def test_untraced_fallback_is_membership(self):
        g = wc_graph()
        sampler = make_rr_sampler(g, "IC")
        coll = sampler.sample_random_batch(500, RandomSource(1))
        u, v = int(g.src[7]), int(g.dst[7])
        delta = delete_edge(g, u, v)
        affected = set(affected_set_ids(coll, delta, "IC").tolist())
        ptr, nodes = coll.ptr_array, coll.nodes_array
        for i in range(len(coll)):
            assert (i in affected) == (v in nodes[ptr[i] : ptr[i + 1]].tolist())


class TestInvalidationRulesLT:
    def test_delete_spares_picks_before_the_edge(self):
        g = uniform_random_lt(gnm_random_digraph(80, 400, rng=3), rng=8)
        coll, _ = traced_collection(g, model="LT", theta=600, seed=5)
        u, v = int(g.src[11]), int(g.dst[11])
        delta = delete_edge(g, u, v)
        affected = set(affected_set_ids(coll, delta, "LT").tolist())
        for i in range(len(coll)):
            trace = coll.trace_of(i)
            in_range = np.any((trace >= delta.in_pos) & (trace < delta.slice_hi))
            assert (i in affected) == bool(in_range)

    def test_insert_invalidates_only_stop_draws(self):
        g = uniform_random_lt(gnm_random_digraph(80, 400, rng=3), rng=8)
        coll, _ = traced_collection(g, model="LT", theta=600, seed=5)
        # Find a destination with in-weight slack.
        insum = np.zeros(g.n)
        np.add.at(insum, g.dst, g.prob)
        v = int(np.argmin(insum))
        delta = insert_edge(g, (v + 3) % g.n, v, 0.02)
        affected = set(affected_set_ids(coll, delta, "LT").tolist())
        ptr, nodes = coll.ptr_array, coll.nodes_array
        for i in range(len(coll)):
            member = v in nodes[ptr[i] : ptr[i + 1]].tolist()
            trace = coll.trace_of(i)
            picked = np.any((trace >= delta.slice_lo) & (trace < delta.slice_hi))
            assert (i in affected) == (member and not picked)


class TestRepair:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_repair_keeps_unaffected_sets_and_fixes_widths(self, model):
        if model == "IC":
            g = wc_graph()
        else:
            g = uniform_random_lt(gnm_random_digraph(120, 600, rng=11), rng=2)
        coll, _ = traced_collection(g, model=model, theta=700, seed=9)
        u, v = int(g.src[5]), int(g.dst[5])
        delta = delete_edge(g, u, v)
        sampler = make_rr_sampler(delta.new_graph, model, trace_edges=True)
        repaired, report = repair_collection(coll, delta, sampler, rng=3)
        assert len(repaired) == len(coll)
        assert report.num_affected == affected_set_ids(coll, delta, model).size
        assert np.array_equal(repaired.roots_array, coll.roots_array)
        assert_kept_sets_identical(coll, repaired, affected_set_ids(coll, delta, model))
        assert_widths_consistent(repaired, delta.new_graph)
        assert_traces_consistent(repaired, delta.new_graph)
        assert repaired.graph_edges == delta.new_graph.m

    def test_repair_after_insert_patches_lt_widths(self):
        # uniform_random_lt normalises in-weights to sum 1; scale down to
        # leave slack for the inserted edge.
        base = uniform_random_lt(gnm_random_digraph(120, 600, rng=11), rng=2)
        g = base.with_probabilities(base.prob * 0.8)
        coll, _ = traced_collection(g, model="LT", theta=700, seed=9)
        insum = np.zeros(g.n)
        np.add.at(insum, g.dst, g.prob)
        # A node whose in-edges actually get picked (so kept member sets
        # exist) but with enough slack for the new weight.
        candidates = np.flatnonzero(insum <= 0.9)
        v = int(candidates[np.argmax(insum[candidates])])
        delta = insert_edge(g, (v + 5) % g.n, v, 0.02)
        sampler = make_rr_sampler(delta.new_graph, "LT", trace_edges=True)
        repaired, report = repair_collection(coll, delta, sampler, rng=3)
        assert_widths_consistent(repaired, delta.new_graph)
        # Kept member sets gained one in-edge of v; at least one such set
        # should exist at this theta.
        assert report.num_patched > 0

    def test_noop_reweight_returns_identical_collection(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        u, v = int(g.src[5]), int(g.dst[5])
        delta = reweight_edge(g, u, v, g.edge_probability(u, v))
        sampler = make_rr_sampler(delta.new_graph, "IC", trace_edges=True)
        repaired, report = repair_collection(coll, delta, sampler, rng=3)
        assert report.num_affected == 0
        assert np.array_equal(repaired.ptr_array, coll.ptr_array)
        assert np.array_equal(repaired.nodes_array, coll.nodes_array)
        assert np.array_equal(repaired.trace_edges_array, coll.trace_edges_array)

    def test_repair_bytes_are_worker_count_invariant(self):
        g = wc_graph(n=300, m=1800, rng=4)
        coll, _ = traced_collection(g, theta=3000, seed=2)
        u, v = int(g.src[9]), int(g.dst[9])
        delta = reweight_edge(g, u, v, min(1.0, g.edge_probability(u, v) * 3))
        results = []
        for jobs in (1, 2):
            sampler = ParallelSampler(
                ICRRSampler(delta.new_graph, trace_edges=True), jobs=jobs
            )
            repaired, _ = repair_collection(coll, delta, sampler, rng=77)
            sampler.close()
            results.append(repaired)
        a, b = results
        for name in ("ptr_array", "nodes_array", "roots_array", "widths_array",
                     "costs_array", "trace_ptr_array", "trace_edges_array"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_sampler_tracing_mismatch_rejected(self):
        g = wc_graph()
        coll, _ = traced_collection(g)
        u, v = int(g.src[5]), int(g.dst[5])
        delta = delete_edge(g, u, v)
        untraced = make_rr_sampler(delta.new_graph, "IC")
        with pytest.raises(ValueError, match="tracing must match"):
            repair_collection(coll, delta, untraced, rng=3)

    def test_sampler_graph_mismatch_rejected(self):
        g = wc_graph()
        coll, sampler = traced_collection(g)
        u, v = int(g.src[5]), int(g.dst[5])
        delta = delete_edge(g, u, v)
        # sampler is still bound to the OLD graph (m differs).
        with pytest.raises(ValueError, match="post-update graph"):
            repair_collection(coll, delta, sampler, rng=3)

    def test_stale_sampler_rejected_even_when_shapes_match(self):
        """A reweight keeps n and m, so the binding guard must compare
        content, not just shape."""
        g = wc_graph()
        coll, sampler = traced_collection(g)
        u, v = int(g.src[5]), int(g.dst[5])
        delta = reweight_edge(g, u, v, g.edge_probability(u, v) / 2)
        with pytest.raises(ValueError, match="post-update graph"):
            repair_collection(coll, delta, sampler, rng=3)

    @pytest.mark.parametrize("op", ["delete", "insert", "reweight-up", "reweight-down"])
    def test_repaired_distribution_matches_cold_sampling(self, op):
        """Per-node membership frequencies of a repaired collection agree
        with a cold new-graph sample within Monte-Carlo tolerance — for
        traced IC this is backed by the exact extension/shrink repair."""
        g = wc_graph(n=40, m=200, rng=21)
        theta = 6000
        coll, _ = traced_collection(g, theta=theta, seed=1)
        u, v = int(g.src[3]), int(g.dst[3])
        if op == "delete":
            delta = delete_edge(g, u, v)
        elif op == "insert":
            delta = insert_edge(g, (v + 9) % g.n, v, 0.5)
        elif op == "reweight-up":
            delta = reweight_edge(g, u, v, min(1.0, g.edge_probability(u, v) * 4))
        else:
            delta = reweight_edge(g, u, v, g.edge_probability(u, v) / 4)
        sampler = make_rr_sampler(delta.new_graph, "IC", trace_edges=True)
        repaired, report = repair_collection(coll, delta, sampler, rng=55)
        assert report.exact
        cold = sampler.sample_random_batch(theta, RandomSource(99))
        freq_repaired = repaired.node_frequency_array() / theta
        freq_cold = cold.node_frequency_array() / theta
        # 5-sigma binomial tolerance per node (p <= 0.5 bound on variance).
        tol = 5.0 * np.sqrt(0.25 / theta) * 2
        assert np.max(np.abs(freq_repaired - freq_cold)) < tol
        assert_widths_consistent(repaired, delta.new_graph)
        assert_traces_consistent(repaired, delta.new_graph)

    def test_exact_repair_candidates_vs_modified(self):
        """Extension candidates change only when their conditional coin
        fires; shrink candidates always change (they lose the dead edge)."""
        g = wc_graph(n=80, m=400, rng=3)
        coll, _ = traced_collection(g, theta=1000, seed=4)
        u, v = int(g.src[11]), int(g.dst[11])
        up = reweight_edge(g, u, v, min(1.0, g.edge_probability(u, v) * 3))
        sampler = make_rr_sampler(up.new_graph, "IC", trace_edges=True)
        repaired, report = repair_collection(coll, up, sampler, rng=5)
        assert report.exact
        assert report.num_affected <= report.num_candidates
        down = delete_edge(g, u, v)
        sampler = make_rr_sampler(down.new_graph, "IC", trace_edges=True)
        repaired, report = repair_collection(coll, down, sampler, rng=5)
        assert report.num_affected == report.num_candidates


class TestIndexApplyUpdate:
    def test_apply_update_moves_index_forward(self):
        g = wc_graph()
        dyn = DynamicDiGraph(g)
        index = SketchIndex.build(g, "IC", theta=600, rng=5, trace_edges=True)
        index.select(3)
        delta = dyn.delete_edge(int(g.src[5]), int(g.dst[5]))
        report = index.apply_update(delta, rng=7)
        assert report.num_sets == 600
        assert index.graph is dyn.graph
        assert index.meta["graph_fingerprint"] == dyn.fingerprint()
        assert index.meta["dynamic_updates"] == 1
        assert index.priced == {} and "kpt_star" not in index.meta
        # Postings/selection state rebuilt against the repaired sketch.
        result = index.select(3)
        assert len(result.seeds) == 3
        assert index.num_sets == 600

    def test_apply_update_rejects_wrong_base_snapshot(self):
        g = wc_graph()
        other = wc_graph(rng=99)
        index = SketchIndex.build(g, "IC", theta=200, rng=5, trace_edges=True)
        delta = delete_edge(other, int(other.src[0]), int(other.dst[0]))
        with pytest.raises(ValueError, match="different graph snapshot"):
            index.apply_update(delta)

    def test_failed_update_leaves_index_intact(self):
        g = uniform_random_lt(gnm_random_digraph(40, 160, rng=7), rng=1)
        index = SketchIndex.build(g, "LT", theta=300, rng=5, trace_edges=True)
        fp = index.meta["graph_fingerprint"]
        # Breaking the sum(in-weights) <= 1 invariant must be rejected with
        # the index still bound to (and serving) the old snapshot.
        heavy = int(np.argmax(np.bincount(g.dst.astype(int), weights=g.prob, minlength=g.n)))
        delta = insert_edge(g, (heavy + 1) % g.n, heavy, 1.0)
        with pytest.raises(ValueError, match="LT weights invalid"):
            index.apply_update(delta)
        assert index.meta["graph_fingerprint"] == fp
        assert index.graph is g
        assert len(index.select(2).seeds) == 2

    def test_apply_update_on_mmap_loaded_sketch(self, tmp_path):
        g = wc_graph()
        index = SketchIndex.build(g, "IC", theta=400, rng=5, trace_edges=True)
        path = tmp_path / "sk.npz"
        index.save(path)
        loaded = SketchIndex.load(path, graph=g, mmap=True)
        assert loaded.collection.has_traces
        delta = delete_edge(g, int(g.src[5]), int(g.dst[5]))
        report = loaded.apply_update(delta, rng=7)
        assert report.num_sets == 400
        assert_widths_consistent(loaded.collection, delta.new_graph)

    def test_repair_on_handcrafted_graph_exact_for_kept_sets(self):
        """Deleting 0->1's only competitor leaves sets without the edge
        untouched — checked on a graph small enough to reason about."""
        builder = GraphBuilder(num_nodes=4)
        builder.add_edge(0, 1, 0.5)
        builder.add_edge(2, 1, 0.5)
        builder.add_edge(1, 3, 0.5)
        g = builder.build()
        coll, _ = traced_collection(g, theta=400, seed=3)
        delta = delete_edge(g, 0, 1)
        sampler = make_rr_sampler(delta.new_graph, "IC", trace_edges=True)
        repaired, report = repair_collection(coll, delta, sampler, rng=1)
        # Node 0 can now only appear in an RR set as its own root.
        ptr, nodes = repaired.ptr_array, repaired.nodes_array
        roots = repaired.roots_array
        for i in range(len(repaired)):
            members = nodes[ptr[i] : ptr[i + 1]].tolist()
            if 0 in members and roots[i] != 0:
                pytest.fail(f"set {i} reaches 0 through a deleted edge")
