"""Postings across repair: after every edge update they equal a fresh build.

``SketchIndex`` keeps a node -> set-ids postings index (the inverted index
every query reads).  Whatever an edge update does to the sketch, the
postings the index answers from afterwards must be byte-for-byte (and
dtype-for-dtype) what :func:`repro.rrset.coverage._inverted_index` builds
from the repaired collection, and every query must answer exactly as a
fresh index over that collection does.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset.coverage import _inverted_index
from repro.sketch import SketchIndex
from repro.sketch import index as index_module

N, M, THETA, K = 150, 900, 600, 5
OPS = ("insert", "delete", "reweight_up", "reweight_down")
MODELS = ("IC", "LT")


def scaled_wc(seed=3):
    """WC weights scaled by 0.8, so every node's in-weights sum below 1.

    LT inserts and up-weights need that headroom; ``uniform_random_lt``
    sums to exactly 1 and would reject them.
    """
    base = weighted_cascade(gnm_random_digraph(N, M, rng=seed))
    return base.with_probabilities(base.prob * 0.8)


def headroom(graph, v):
    """How much in-weight ``v`` can still gain under LT (half of it is used)."""
    lo, hi = int(graph.in_ptr[v]), int(graph.in_ptr[v + 1])
    return max(0.0, 1.0 - float(graph.in_prob[lo:hi].sum())) / 2


def apply_op(dynamic, op, rng):
    """Commit one update of kind ``op`` on a random edge; returns its delta."""
    graph = dynamic.graph
    if op == "insert":
        existing = set(zip(graph.src.tolist(), graph.dst.tolist()))
        while True:
            u, v = (int(x) for x in rng.integers(0, graph.n, size=2))
            if u != v and (u, v) not in existing:
                return dynamic.insert_edge(u, v, headroom(graph, v))
    edge = int(rng.integers(0, graph.m))
    u, v, p = int(graph.src[edge]), int(graph.dst[edge]), float(graph.prob[edge])
    if op == "delete":
        return dynamic.delete_edge(u, v)
    if op == "reweight_up":
        return dynamic.reweight_edge(u, v, p + headroom(graph, v))
    if op == "reweight_down":
        return dynamic.reweight_edge(u, v, p / 2)
    return dynamic.reweight_edge(u, v, p)  # "reweight_same": changes no set


def assert_postings_fresh(index):
    """The postings the index answers from equal a from-scratch build."""
    got = index._ensure_postings()
    want = _inverted_index(index.collection.ptr_array, index.collection.nodes_array,
                           index.num_nodes)
    for got_array, want_array in zip(got, want):
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()


def assert_answers_fresh(index, model):
    """select/spread/marginal_gain equal a fresh index over the same collection."""
    fresh = SketchIndex(index.collection, model=model)
    got, want = index.select(K), fresh.select(K)
    assert got.seeds == want.seeds
    assert got.covered == want.covered
    assert got.marginal_gains == want.marginal_gains
    probe = want.seeds[:2]
    assert index.spread(probe) == fresh.spread(probe)
    for candidate in (0, want.seeds[-1], N - 1):
        assert index.marginal_gain(probe, candidate) == fresh.marginal_gain(probe, candidate)


def built_index(model, traced, seed=11):
    graph = scaled_wc()
    index = SketchIndex.build(graph, model, theta=THETA, rng=seed, trace_edges=traced)
    return graph, index


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("traced", [True, False])
@pytest.mark.parametrize("op", OPS)
def test_updates_of_one_kind_keep_postings_equal_to_a_fresh_build(model, traced, op):
    graph, index = built_index(model, traced)
    index.select(K)  # postings and greedy state are live before the update
    dynamic = DynamicDiGraph(graph)
    rng = np.random.default_rng(5)
    replaced = 0
    for step in range(6):
        report = index.apply_update(apply_op(dynamic, op, rng), rng=100 + step)
        replaced += report.num_affected
        assert_postings_fresh(index)
        assert_answers_fresh(index, model)
    assert replaced > 0  # the updates did rewrite sets, so the check has teeth


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("traced", [True, False])
def test_mixed_update_stream_keeps_postings_equal_to_a_fresh_build(model, traced):
    graph, index = built_index(model, traced, seed=23)
    index.select(K)
    dynamic = DynamicDiGraph(graph)
    rng = np.random.default_rng(17)
    for step in range(32):
        index.apply_update(apply_op(dynamic, OPS[step % len(OPS)], rng), rng=step)
        assert_postings_fresh(index)
        if step % 4 == 3:
            assert_answers_fresh(index, model)
    assert index.meta["graph_fingerprint"] == dynamic.fingerprint()


@pytest.mark.parametrize("model", MODELS)
def test_update_before_any_query_builds_postings_lazily(model):
    graph, index = built_index(model, traced=True)
    dynamic = DynamicDiGraph(graph)
    rng = np.random.default_rng(2)
    index.apply_update(apply_op(dynamic, "delete", rng), rng=1)
    assert index._inv_ptr is None  # nothing to patch: no query built them
    assert_postings_fresh(index)
    assert_answers_fresh(index, model)


@pytest.mark.parametrize("model", MODELS)
def test_update_that_changes_no_set_keeps_postings(model):
    graph, index = built_index(model, traced=True)
    before = index.select(K)
    dynamic = DynamicDiGraph(graph)
    report = index.apply_update(apply_op(dynamic, "reweight_same", np.random.default_rng(4)),
                                rng=1)
    assert report.num_affected == 0
    assert_postings_fresh(index)
    assert_answers_fresh(index, model)
    assert index.select(K).seeds == before.seeds


def test_update_keeps_built_postings_instead_of_dropping_them():
    graph, index = built_index("IC", traced=True)
    index.select(K)
    dynamic = DynamicDiGraph(graph)
    index.apply_update(apply_op(dynamic, "delete", np.random.default_rng(6)), rng=1)
    assert index._inv_ptr is not None and index._inv_sets is not None
    assert index._kernel is None  # only the greedy state starts over
    assert_postings_fresh(index)


def test_failed_postings_patch_leaves_the_index_on_the_old_snapshot(monkeypatch):
    graph, index = built_index("IC", traced=True)
    before = index.select(K)
    spread_before = index.spread(before.seeds)
    fingerprint, collection = index.meta["graph_fingerprint"], index.collection
    dynamic = DynamicDiGraph(graph)
    delta = apply_op(dynamic, "delete", np.random.default_rng(6))

    def broken_patch(*args, **kwargs):
        raise RuntimeError("postings patch failed")

    monkeypatch.setattr(index_module, "_patch_postings", broken_patch)
    with pytest.raises(RuntimeError, match="postings patch failed"):
        index.apply_update(delta, rng=1)
    assert index.meta["graph_fingerprint"] == fingerprint
    assert index.graph is graph
    assert index.collection is collection
    after = index.select(K)
    assert after.seeds == before.seeds
    assert after.covered == before.covered
    assert after.marginal_gains == before.marginal_gains
    assert index.spread(before.seeds) == spread_before
    assert_postings_fresh(index)
