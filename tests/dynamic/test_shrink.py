"""The batched traced-IC shrink against the per-set oracle, set by set.

:func:`repro.dynamic.repair._shrink_ic` shrinks every set that lost its
live edge in one vectorised pass; :func:`tests.dynamic.repair_oracle
.shrink_ic` walks one set at a time.  Each set's surviving members and
trace must agree in stored order, on hand-built sets whose shapes a single
propagation pass or a search that skips a case gets wrong, and on sampled
sketches.
"""

import numpy as np
import pytest

from repro.dynamic.repair import _shrink_ic, repair_collection
from repro.graphs import DiGraph, delete_edge, gnm_random_digraph, reweight_edge, weighted_cascade
from repro.rrset import FlatRRCollection, make_rr_sampler
from repro.utils.rng import RandomSource, resolve_rng
from tests.dynamic.repair_oracle import shrink_ic


def edge_id(graph, u, v):
    """In-CSR id of the first ``u -> v`` edge."""
    lo = int(graph.in_ptr[v])
    return lo + int(np.flatnonzero(graph.in_idx[lo : int(graph.in_ptr[v + 1])] == u)[0])


def graph_of(num_nodes, edges):
    src, dst = zip(*edges)
    return DiGraph(num_nodes, np.array(src), np.array(dst), np.full(len(edges), 0.5))


def traced_sets(graph, sets):
    """A traced collection of ``(members, live edges)`` pairs, root first.

    Live edges are ``(u, v)`` pairs, stored in the order given.
    """
    in_deg = np.diff(graph.in_ptr)
    ptr = np.cumsum([0] + [len(members) for members, _ in sets])
    trace_ptr = np.cumsum([0] + [len(edges) for _, edges in sets])
    nodes = np.array([v for members, _ in sets for v in members], dtype=np.int32)
    trace = np.array([edge_id(graph, u, v) for _, edges in sets for u, v in edges],
                     dtype=np.int32)
    widths = np.array([int(in_deg[list(members)].sum()) for members, _ in sets])
    return FlatRRCollection.from_arrays(
        num_nodes=graph.n, graph_edges=graph.m, ptr=ptr, nodes=nodes,
        roots=np.array([members[0] for members, _ in sets], dtype=np.int32),
        widths=widths, costs=widths + np.diff(ptr), trace_ptr=trace_ptr, trace_edges=trace)


def assert_matches_oracle(collection, graph, set_ids, dead_edge):
    set_ids = np.asarray(set_ids, dtype=np.int64)
    ptr, members, trace_ptr, trace = _shrink_ic(collection, graph, set_ids, dead_edge)
    assert members.dtype == collection.nodes_array.dtype
    assert trace.dtype == collection.trace_edges_array.dtype
    assert ptr.size == trace_ptr.size == set_ids.size + 1
    for i, set_id in enumerate(set_ids.tolist()):
        want_members, want_trace = shrink_ic(collection, graph, set_id, dead_edge)
        assert members[ptr[i] : ptr[i + 1]].tolist() == want_members, set_id
        assert trace[trace_ptr[i] : trace_ptr[i + 1]].tolist() == want_trace, set_id
    return [members[ptr[i] : ptr[i + 1]].tolist() for i in range(set_ids.size)]


class TestShapes:
    def test_dead_edge_out_of_the_root(self):
        # 0 pulls 1 and 2; 2 pulls 1 again, so 1 survives its tree edge,
        # while 2 has no other way in.
        g = graph_of(4, [(1, 0), (2, 0), (1, 2), (3, 1)])
        coll = traced_sets(g, [([0, 1, 2, 3], [(1, 0), (2, 0), (1, 2), (3, 1)])])
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0, 1, 2, 3]]
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 2, 0)) == [[0, 1, 3]]

    def test_member_re_reached_after_its_expansion(self):
        # 1 is expanded (pulling 3) before the non-tree edge 1 -> 2 that
        # re-reaches it is stored: one pass in stored order loses 3.
        g = graph_of(4, [(1, 0), (2, 0), (3, 1), (1, 2)])
        coll = traced_sets(g, [([0, 1, 2, 3], [(1, 0), (2, 0), (3, 1), (1, 2)])])
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0, 1, 2, 3]]

    def test_re_reached_member_far_from_the_root(self):
        # The dead edge cuts a chain; a second chain re-reaches its far end
        # 35 hops down, and what hangs below that end survives with it.
        depth = 35
        edges = [(i + 1, i) for i in range(depth)]            # 0 <- 1 <- ... <- 35
        side = list(range(depth + 1, 2 * depth + 1))          # 36 .. 70
        edges += [(side[0], 0)] + [(b, a) for a, b in zip(side, side[1:])]
        edges += [(depth, side[-1]), (2 * depth + 1, depth)]  # 70 pulls 35; 35 pulls 71
        g = graph_of(2 * depth + 2, edges)
        members = [0] + list(range(1, depth + 1)) + side + [2 * depth + 1]
        coll = traced_sets(g, [(members, edges)])
        kept = assert_matches_oracle(coll, g, [0], edge_id(g, 11, 10))[0]
        assert kept == [0, *range(1, 11), depth, *side, 2 * depth + 1]

    def test_chains_deeper_than_thirty(self):
        depth = 40
        chain = [(i + 1, i) for i in range(depth)]  # 0 <- 1 <- ... <- 40
        detour = [(depth + 1, 0), (3, depth + 1)]  # 0 <- 41 <- 3
        g = graph_of(depth + 2, chain + detour)
        # Everything below the dead edge goes: a closure 39 deep.
        cut = traced_sets(g, [(list(range(depth + 1)), chain)])
        assert assert_matches_oracle(cut, g, [0], edge_id(g, 2, 1)) == [[0, 1]]
        # The detour re-reaches 3, and the chain below it comes back with it.
        rejoined = traced_sets(g, [(list(range(depth + 2)), chain + detour)])
        kept = assert_matches_oracle(rejoined, g, [0], edge_id(g, 2, 1))
        assert kept == [[0, 1, *range(3, depth + 2)]]

    def test_set_shrinks_to_its_root(self):
        g = graph_of(4, [(1, 0), (2, 1), (3, 2), (1, 3)])
        coll = traced_sets(g, [([0, 1, 2, 3], [(1, 0), (2, 1), (3, 2), (1, 3)])])
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0]]

    def test_self_loops(self):
        g = graph_of(3, [(1, 0), (1, 1), (2, 1), (2, 2)])
        coll = traced_sets(g, [([0, 1, 2], [(1, 0), (1, 1), (2, 1), (2, 2)])])
        # A dead self-loop leaves every member; a dropped member's loop goes.
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 1)) == [[0, 1, 2]]
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0]]

    def test_re_attachment_chain_against_stored_order(self):
        # The dead edge cuts 1 off the root.  The chain 1 <- 2 <- ... <- 40
        # comes back through the other end only: 0 pulls 41, and from there
        # each member is pulled by the one stored after it, one hop per
        # member, 40 hops deep.
        depth = 40
        forward = [(1, 0)] + [(i + 1, i) for i in range(1, depth)]
        backward = [(depth + 1, 0), (depth, depth + 1)] + [(i, i + 1) for i in range(1, depth)]
        g = graph_of(depth + 2, forward + backward)
        coll = traced_sets(g, [(list(range(depth + 2)), forward + backward)])
        kept = assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0))
        assert kept == [list(range(depth + 2))]
        # Without the way back in, everything below the cut goes.
        coll = traced_sets(g, [(list(range(depth + 2)), forward + backward[:1] + backward[2:])])
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0, depth + 1]]

    def test_cycle_through_the_root(self):
        # The dead edge's source pulls the root back in; the root survives
        # and keeps what it pulls.
        g = graph_of(4, [(1, 0), (0, 1), (2, 0), (1, 2), (3, 1)])
        coll = traced_sets(g, [([0, 1, 2, 3], [(1, 0), (2, 0), (0, 1), (3, 1), (1, 2)])])
        assert assert_matches_oracle(coll, g, [0], edge_id(g, 1, 0)) == [[0, 1, 2, 3]]

    def test_sets_shrink_independently(self):
        # The same nodes in three sets: the dead edge 1 -> 0 only cuts the
        # first; the second re-reaches 1 through 2, the third roots at 1.
        g = graph_of(4, [(1, 0), (2, 0), (1, 2), (3, 1), (0, 1)])
        sets = [([0, 1, 3], [(1, 0), (3, 1)]),
                ([0, 2, 1, 3], [(1, 0), (2, 0), (1, 2), (3, 1)]),
                ([1, 3, 0], [(3, 1), (0, 1), (1, 0)])]
        coll = traced_sets(g, sets)
        kept = assert_matches_oracle(coll, g, [0, 1, 2], edge_id(g, 1, 0))
        assert kept == [[0], [0, 2, 1, 3], [1, 3, 0]]

    def test_no_sets(self):
        g = graph_of(2, [(1, 0)])
        coll = traced_sets(g, [([0, 1], [(1, 0)])])
        ptr, members, trace_ptr, trace = _shrink_ic(coll, g, np.empty(0, dtype=np.int64), 0)
        assert ptr.tolist() == trace_ptr.tolist() == [0]
        assert members.size == trace.size == 0


@pytest.mark.parametrize("seed", range(4))
def test_sampled_sets_match_the_oracle(seed):
    # Self-loops and parallel edges included; every set holding the dead
    # edge is shrunk in one call.
    rng = np.random.default_rng(seed)
    base = weighted_cascade(gnm_random_digraph(60, 360, rng=seed))
    src = np.concatenate([base.src, [3, 7, 7], base.src[:20]])
    dst = np.concatenate([base.dst, [3, 7, 12], base.dst[:20]])
    g = DiGraph(60, src, dst, np.concatenate([base.prob, [0.9, 0.8, 0.7], base.prob[:20]]))
    coll = make_rr_sampler(g, "IC", trace_edges=True).sample_random_batch(
        1500, RandomSource(seed))
    trace, trace_ptr = coll.trace_edges_array, coll.trace_ptr_array
    owner = np.repeat(np.arange(len(coll)), np.diff(trace_ptr))
    for dead_edge in rng.choice(np.unique(trace), size=12, replace=False).tolist():
        assert_matches_oracle(coll, g, np.unique(owner[trace == dead_edge]), dead_edge)


@pytest.mark.parametrize("op", ["delete", "reweight-down"])
def test_repair_shrinks_exactly_the_sets_whose_coin_dies(op):
    """A down-weight draws one keep-coin per candidate, in candidate order,
    and each set whose coin dies (every candidate, for a delete) becomes
    the oracle's shrink; every other set keeps its bytes."""
    g = weighted_cascade(gnm_random_digraph(200, 1200, rng=7))
    coll = make_rr_sampler(g, "IC", trace_edges=True).sample_random_batch(3000, RandomSource(3))
    trace, trace_ptr = coll.trace_edges_array, coll.trace_ptr_array
    owner = np.repeat(np.arange(len(coll)), np.diff(trace_ptr))
    dead = int(np.bincount(trace).argmax())  # the edge most sets hold
    u, v = int(g.in_idx[dead]), int(np.searchsorted(g.in_ptr, dead, side="right") - 1)
    if op == "delete":
        delta = delete_edge(g, u, v)
    else:
        delta = reweight_edge(g, u, v, g.edge_probability(u, v) / 2)
    sampler = make_rr_sampler(delta.new_graph, "IC", trace_edges=True)
    repaired, report = repair_collection(coll, delta, sampler, rng=55)

    candidates = np.unique(owner[trace == dead]).tolist()
    killed = candidates
    if op == "reweight-down":
        random01 = resolve_rng(55).py.random
        killed = [i for i in candidates if random01() >= delta.new_prob / delta.old_prob]
    assert 0 < len(killed) < len(coll)
    assert report.num_candidates == len(candidates)
    assert report.replaced.tolist() == killed
    for i in range(len(coll)):
        if i in killed:
            members, kept_trace = shrink_ic(coll, g, i, dead)
        else:
            members = coll.nodes_array[coll.ptr_array[i] : coll.ptr_array[i + 1]].tolist()
            kept_trace = coll.trace_of(i).tolist()
        ptr = repaired.ptr_array
        assert repaired.nodes_array[ptr[i] : ptr[i + 1]].tolist() == members
        assert repaired.trace_of(i).tolist() == delta.remap_edge_ids(
            np.asarray(kept_trace, dtype=np.int64)).tolist()
