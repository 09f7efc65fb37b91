"""The shared batch commit: a stable grouping by sample id, in bounded blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnm_random_digraph, uniform_random_lt, weighted_cascade
from repro.rrset import FlatRRCollection, commit
from repro.rrset.ic_sampler import ICRRSampler
from repro.rrset.lt_sampler import LTRRSampler
from repro.utils.memory import track_peak
from repro.utils.rng import RandomSource


@pytest.fixture(scope="module")
def ic_graph():
    return weighted_cascade(gnm_random_digraph(400, 3000, rng=3))


@pytest.fixture(scope="module")
def lt_graph():
    return uniform_random_lt(gnm_random_digraph(400, 3000, rng=3), rng=5)


@st.composite
def wave_lists(draw):
    """Per-wave (sample, node) lists as a batch driver hands them over."""
    batch = draw(st.integers(min_value=1, max_value=12))
    waves = draw(st.lists(
        st.lists(st.tuples(st.integers(0, batch - 1), st.integers(0, 29)), max_size=15),
        max_size=8,
    ))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    samples = [np.array([s for s, _ in wave], dtype=dtype) for wave in waves]
    nodes = [np.array([v for _, v in wave], dtype=dtype) for wave in waves]
    return batch, samples, nodes


def expected_layout(batch, samples, nodes):
    """A stable argsort by sample id of the concatenated lists."""
    s = np.concatenate(samples) if samples else np.empty(0, dtype=np.int64)
    v = np.concatenate(nodes) if nodes else np.empty(0, dtype=np.int64)
    ptr = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=batch), out=ptr[1:])
    return ptr, v[np.argsort(s, kind="stable")].astype(np.int32)


class TestGroupingOracle:
    @given(wave_lists(), st.integers(min_value=1, max_value=6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_stable_argsort_across_blocks(self, lists, block, traced):
        batch, samples, nodes = lists
        want_ptr, want_nodes = expected_layout(batch, samples, nodes)
        in_degrees = np.arange(30, dtype=np.int64)
        want_widths = np.zeros(batch, dtype=np.int64)
        for s, v in zip(samples, nodes):
            np.add.at(want_widths, s, in_degrees[v])
        out = FlatRRCollection(30, 100, track_traces=traced)
        trace_samples = [piece.copy() for piece in samples] if traced else None
        trace_edges = [piece.copy() for piece in nodes] if traced else None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(commit, "COMMIT_BLOCK_ENTRIES", block)
            commit.commit_batch(out, np.zeros(batch, dtype=np.int64), samples, nodes,
                                in_degrees, trace_samples=trace_samples,
                                trace_edge_ids=trace_edges)
        assert out.ptr_array.tobytes() == want_ptr.tobytes()
        assert out.nodes_array.tobytes() == want_nodes.tobytes()
        assert out.widths_array.tolist() == want_widths.tolist()
        sizes = np.diff(want_ptr)
        assert out.costs_array.tolist() == (sizes + want_widths).tolist()
        if traced:
            assert out.trace_ptr_array.tobytes() == want_ptr.tobytes()
            assert out.trace_edges_array.tobytes() == want_nodes.tobytes()
        # The lists are consumed: every piece has been released.
        assert samples == [] and nodes == []

    def test_walk_costs_twice_the_size(self):
        out = FlatRRCollection(5, 10)
        commit.commit_batch(out, np.array([0, 1]), [np.array([0, 1, 1])],
                            [np.array([3, 1, 4])], np.ones(5, dtype=np.int64), walk=True)
        assert out.sets == [(3,), (1, 4)]
        assert out.costs_array.tolist() == [2, 4]

    def test_given_widths_are_kept(self):
        out = FlatRRCollection(5, 10)
        commit.commit_batch(out, np.array([2]), [np.array([0, 0])], [np.array([2, 0])],
                            np.ones(5, dtype=np.int64), widths=np.array([7]))
        assert out.widths_array.tolist() == [7]
        assert out.costs_array.tolist() == [9]


SAMPLERS = [
    (lambda g: ICRRSampler(g), "ic_graph", "_commit"),
    (lambda g: ICRRSampler(g, trace_edges=True), "ic_graph", "_commit"),
    (lambda g: ICRRSampler(g, max_depth=3, trace_edges=True), "ic_graph", "_commit"),
    (lambda g: LTRRSampler(g, trace_edges=True), "lt_graph", "_commit_chunk"),
]
SAMPLER_IDS = ["ic", "ic-traced", "ic-bounded-traced", "lt-traced"]


def batch_arrays(batch):
    arrays = [batch.ptr_array, batch.nodes_array, batch.roots_array, batch.widths_array,
              batch.costs_array]
    if batch.has_traces:
        arrays += [batch.trace_ptr_array, batch.trace_edges_array]
    return [array.tobytes() for array in arrays]


class TestSamplersThroughBlocks:
    @pytest.mark.parametrize("maker,graph_fixture,_", SAMPLERS, ids=SAMPLER_IDS)
    def test_block_size_changes_no_byte(self, maker, graph_fixture, _, request,
                                        monkeypatch):
        graph = request.getfixturevalue(graph_fixture)
        roots = np.arange(900) % graph.n
        whole = maker(graph).sample_batch(roots, RandomSource(4))
        monkeypatch.setattr(commit, "COMMIT_BLOCK_ENTRIES", 7)
        blocked = maker(graph).sample_batch(roots, RandomSource(4))
        assert batch_arrays(blocked) == batch_arrays(whole)


class TestCommitMemory:
    @pytest.mark.parametrize("maker,graph_fixture,method", SAMPLERS, ids=SAMPLER_IDS)
    def test_peak_stays_near_the_output(self, maker, graph_fixture, method, request,
                                        monkeypatch):
        # Replay a real commit under tracemalloc.  Beyond the collection it
        # builds, a commit may hold one block of scratch, not int64 copies,
        # sort keys and a permutation of the whole batch.
        graph = request.getfixturevalue(graph_fixture)
        sampler = maker(graph)
        captured = []
        monkeypatch.setattr(sampler, method, lambda *args: captured.append(args))
        sampler.sample_batch(np.arange(3000) % graph.n, RandomSource(8))
        roots, samples, nodes, *rest = max(captured, key=lambda args: args[0].size)
        out = FlatRRCollection(graph.n, graph.m, track_traces=sampler.trace_edges)
        rest[-3] = out  # both commits take out, trace_samples, trace_edge_ids last
        monkeypatch.setattr(commit, "COMMIT_BLOCK_ENTRIES", 256)
        commit_method = getattr(type(sampler), method)
        with track_peak() as tracker:
            commit_method(sampler, roots, samples, nodes, *rest)
        assert len(out) == roots.size
        # The single-sort commit peaked at 3.3-6x the output on these batches.
        assert tracker.peak_bytes <= 1.5 * out.nbytes()
