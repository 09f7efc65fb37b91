"""Live-edge trace recording: RNG-invariance and structural invariants."""

import numpy as np
import pytest

from repro.graphs import gnm_random_digraph, uniform_random_lt, weighted_cascade
from repro.rrset import FlatRRCollection, make_rr_sampler
from repro.rrset.ic_sampler import ICRRSampler
from repro.rrset.lt_sampler import LTRRSampler
from repro.utils.rng import RandomSource


@pytest.fixture(scope="module")
def ic_graph():
    return weighted_cascade(gnm_random_digraph(150, 900, rng=7))


@pytest.fixture(scope="module")
def lt_graph():
    return uniform_random_lt(gnm_random_digraph(150, 900, rng=7), rng=3)


def in_edge_destination(graph, edge_ids):
    """Destination node of each in-CSR edge id."""
    return np.searchsorted(graph.in_ptr, np.asarray(edge_ids), side="right") - 1


class TestTracingIsRngInvariant:
    """Tracing must record, never perturb: a traced sampler draws the exact
    same RR sets as an untraced one from the same stream."""

    @pytest.mark.parametrize("maker,graph_fixture", [
        (lambda g, t: ICRRSampler(g, trace_edges=t), "ic_graph"),
        (lambda g, t: ICRRSampler(g, max_depth=2, trace_edges=t), "ic_graph"),
        (lambda g, t: LTRRSampler(g, trace_edges=t), "lt_graph"),
    ], ids=["ic", "ic-bounded", "lt"])
    def test_batch_path(self, maker, graph_fixture, request):
        graph = request.getfixturevalue(graph_fixture)
        roots = np.arange(500) % graph.n
        a = maker(graph, False).sample_batch(roots, RandomSource(11))
        b = maker(graph, True).sample_batch(roots, RandomSource(11))
        for name in ("ptr_array", "nodes_array", "roots_array", "widths_array",
                     "costs_array"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert not a.has_traces and b.has_traces


class TestTraceInvariants:
    def test_ic_trace_edges_connect_members_and_span_the_set(self, ic_graph):
        sampler = ICRRSampler(ic_graph, trace_edges=True)
        batch = sampler.sample_batch(np.arange(300) % ic_graph.n, RandomSource(5))
        ptr, nodes = batch.ptr_array, batch.nodes_array
        dst = in_edge_destination(ic_graph, batch.trace_edges_array)
        for i in range(len(batch)):
            members = set(nodes[ptr[i] : ptr[i + 1]].tolist())
            trace = batch.trace_of(i)
            assert len(set(trace.tolist())) == trace.size  # each coin once
            # Every live edge connects two members...
            adjacency: dict[int, list[int]] = {}
            for j, edge in zip(
                range(int(batch.trace_ptr_array[i]), int(batch.trace_ptr_array[i + 1])),
                trace.tolist(),
            ):
                assert int(dst[j]) in members
                source = int(ic_graph.in_idx[edge])
                assert source in members
                adjacency.setdefault(int(dst[j]), []).append(source)
            # ...and the live edges alone reconstruct the whole membership
            # (reverse reachability from the root over successful coins).
            reached = {int(batch.roots_array[i])}
            frontier = [int(batch.roots_array[i])]
            while frontier:
                node = frontier.pop()
                for source in adjacency.get(node, ()):
                    if source not in reached:
                        reached.add(source)
                        frontier.append(source)
            assert reached == members

    def test_ic_member_order_follows_discovery(self, ic_graph, monkeypatch):
        # The batch commit must keep each set's members in discovery order:
        # the root first, then every member reached by a live edge into a
        # member listed before it, on the wave path and the tail path alike.
        sampler = ICRRSampler(ic_graph, trace_edges=True)
        calls = {"wave": 0, "tail": 0}
        for name, key in (("_expand_wave", "wave"), ("_finish_tail", "tail")):
            method = getattr(sampler, name)

            def counted(*args, _method=method, _key=key, **kwargs):
                calls[_key] += 1
                return _method(*args, **kwargs)

            monkeypatch.setattr(sampler, name, counted)
        batch = sampler.sample_batch(np.arange(300) % ic_graph.n, RandomSource(5))
        assert calls["wave"] > 0 and calls["tail"] > 0
        ptr, nodes = batch.ptr_array, batch.nodes_array
        dst = in_edge_destination(ic_graph, batch.trace_edges_array)
        for i in range(len(batch)):
            members = nodes[ptr[i] : ptr[i + 1]].tolist()
            assert members[0] == int(batch.roots_array[i])
            lo, hi = int(batch.trace_ptr_array[i]), int(batch.trace_ptr_array[i + 1])
            live = list(zip(ic_graph.in_idx[batch.trace_edges_array[lo:hi]].tolist(),
                            dst[lo:hi].tolist()))
            for j in range(1, len(members)):
                earlier = set(members[:j])
                assert any(u == members[j] and w in earlier for u, w in live), (i, j)

    @pytest.mark.parametrize("maker,graph_fixture,commit", [
        (lambda g: ICRRSampler(g, trace_edges=True), "ic_graph", "_commit"),
        (lambda g: ICRRSampler(g, max_depth=3, trace_edges=True), "ic_graph", "_commit"),
        (lambda g: LTRRSampler(g, trace_edges=True), "lt_graph", "_commit_chunk"),
    ], ids=["ic", "ic-bounded", "lt"])
    def test_commit_groups_like_a_stable_argsort(self, maker, graph_fixture, commit,
                                                 request, monkeypatch):
        # Every batch commit lays out members and traces exactly as a stable
        # argsort by sample id of its per-wave lists would.
        graph = request.getfixturevalue(graph_fixture)
        sampler = maker(graph)
        expected = {"nodes": [], "trace": []}
        original = getattr(sampler, commit)

        def recording(roots, samples, nodes, *args):
            # IC passes per-wave lists, LT whole arrays; both pass the trace
            # lists last.
            s, v = samples, nodes
            if commit == "_commit":
                s, v = np.concatenate(samples), np.concatenate(nodes)
            t_s, t_e = (np.concatenate(part) for part in args[-2:])
            expected["nodes"].append(v[np.argsort(s, kind="stable")])
            expected["trace"].append(t_e[np.argsort(t_s, kind="stable")])
            return original(roots, samples, nodes, *args)

        monkeypatch.setattr(sampler, commit, recording)
        batch = sampler.sample_batch(np.arange(400) % graph.n, RandomSource(3))
        assert batch.nodes_array.tolist() == np.concatenate(expected["nodes"]).tolist()
        assert batch.trace_edges_array.tolist() == np.concatenate(expected["trace"]).tolist()

    def test_lt_member_order_follows_the_walk(self, lt_graph):
        # Member j + 1 is the source of the edge member j picked, so the
        # batch commit keeps both the members and the trace in hop order.
        sampler = LTRRSampler(lt_graph, trace_edges=True)
        batch = sampler.sample_batch(np.arange(300) % lt_graph.n, RandomSource(5))
        ptr, nodes = batch.ptr_array, batch.nodes_array
        for i in range(len(batch)):
            members = nodes[ptr[i] : ptr[i + 1]].tolist()
            assert members[0] == int(batch.roots_array[i])
            trace = batch.trace_of(i)
            picked_by = in_edge_destination(lt_graph, trace).tolist()
            sources = lt_graph.in_idx[trace].tolist()
            for j in range(len(members) - 1):
                assert picked_by[j] == members[j], (i, j)
                assert sources[j] == members[j + 1], (i, j)

    def test_lt_trace_is_one_pick_per_member(self, lt_graph):
        sampler = LTRRSampler(lt_graph, trace_edges=True)
        batch = sampler.sample_batch(np.arange(300) % lt_graph.n, RandomSource(5))
        ptr, nodes = batch.ptr_array, batch.nodes_array
        dst = in_edge_destination(lt_graph, batch.trace_edges_array)
        for i in range(len(batch)):
            members = nodes[ptr[i] : ptr[i + 1]].tolist()
            lo, hi = int(batch.trace_ptr_array[i]), int(batch.trace_ptr_array[i + 1])
            # The walk draws once per member: the final draw either stops
            # (no edge) or revisits (one extra edge).
            assert hi - lo in (len(members) - 1, len(members))
            owners = dst[lo:hi].tolist()
            assert len(set(owners)) == len(owners)
            assert set(owners) <= set(members)


class TestCollectionTraceContract:
    def test_traced_collection_rejects_untraced_appends(self, ic_graph):
        traced = FlatRRCollection(ic_graph.n, ic_graph.m, track_traces=True)
        plain_set = ICRRSampler(ic_graph).sample_batch([0], RandomSource(1)).to_rrsets()[0]
        with pytest.raises(ValueError, match="carries none"):
            traced.append(plain_set)

    def test_untraced_collection_drops_rrset_traces_but_rejects_arrays(self, ic_graph):
        plain = FlatRRCollection(ic_graph.n, ic_graph.m)
        traced_set = ICRRSampler(ic_graph, trace_edges=True).sample_batch(
            [0], RandomSource(1)
        ).to_rrsets()[0]
        plain.append(traced_set)  # trace silently dropped: storage is opt-in
        assert len(plain) == 1 and not plain.has_traces
        # ...but handing packed trace arrays to an untracked collection is a
        # caller bug and must be loud.
        with pytest.raises(ValueError, match="track_traces=True"):
            plain.append_arrays(
                root=0,
                members=np.array([0], dtype=np.int32),
                width=1,
                cost=2,
                trace=np.array([0], dtype=np.int32),
            )

    def test_extend_flat_carries_traces(self, ic_graph):
        sampler = ICRRSampler(ic_graph, trace_edges=True)
        a = sampler.sample_batch(np.arange(50), RandomSource(1))
        b = sampler.sample_batch(np.arange(50, 90), RandomSource(2))
        merged = FlatRRCollection(ic_graph.n, ic_graph.m, track_traces=True)
        merged.extend_flat(a)
        merged.extend_flat(b)
        assert len(merged) == 90
        expected = np.concatenate([a.trace_edges_array, b.trace_edges_array])
        assert np.array_equal(merged.trace_edges_array, expected)

    def test_truncate_trims_traces(self, ic_graph):
        sampler = ICRRSampler(ic_graph, trace_edges=True)
        batch = sampler.sample_batch(np.arange(60), RandomSource(1))
        kept_entries = int(batch.trace_ptr_array[25])
        batch.truncate(25)
        assert len(batch) == 25
        assert batch.trace_edges_array.size == kept_entries

    def test_nbytes_counts_trace_payload(self, ic_graph):
        sampler_plain = ICRRSampler(ic_graph)
        sampler_traced = ICRRSampler(ic_graph, trace_edges=True)
        plain = sampler_plain.sample_batch(np.arange(80), RandomSource(1))
        traced = sampler_traced.sample_batch(np.arange(80), RandomSource(1))
        extra = traced.nbytes() - plain.nbytes()
        expected = (
            traced.trace_ptr_array.size * traced.trace_ptr_array.itemsize
            + traced.trace_edges_array.size * traced.trace_edges_array.itemsize
        )
        assert extra == expected

    def test_to_rrsets_roundtrips_traces(self, ic_graph):
        sampler = ICRRSampler(ic_graph, trace_edges=True)
        batch = sampler.sample_batch(np.arange(20), RandomSource(1))
        rebuilt = FlatRRCollection.from_rrsets(
            ic_graph.n, ic_graph.m, batch.to_rrsets(), track_traces=True
        )
        assert np.array_equal(rebuilt.trace_edges_array, batch.trace_edges_array)
        assert np.array_equal(rebuilt.nodes_array, batch.nodes_array)

    def test_make_rr_sampler_rejects_tracing_unsupported_models(self, ic_graph):
        from repro.diffusion.triggering import ICTriggering, TriggeringModel

        model = TriggeringModel(ICTriggering(ic_graph))
        with pytest.raises(ValueError, match="tracing is not supported"):
            make_rr_sampler(ic_graph, model, trace_edges=True)
