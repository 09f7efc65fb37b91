"""The node → set-ids postings equal a stable-argsort build, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset import FlatRRCollection, coverage
from repro.rrset.coverage import _inverted_index
from repro.rrset.ic_sampler import ICRRSampler
from repro.utils.memory import track_peak
from repro.utils.rng import RandomSource
from tests.rrset.postings_oracle import reference_postings


def assert_same_postings(ptr, nodes, num_nodes):
    got = _inverted_index(ptr, nodes, num_nodes)
    want = reference_postings(ptr, nodes, num_nodes)
    for name, a, b in zip(("inv_ptr", "inv_sets"), got, want):
        assert a.dtype == b.dtype == np.int64, name
        assert a.tobytes() == b.tobytes(), name


def flat_arrays(sets, dtype):
    sizes = [len(members) for members in sets]
    ptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    nodes = np.array([v for members in sets for v in members], dtype=dtype)
    return ptr, nodes


@st.composite
def flat_instances(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=30))
    sets = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=num_nodes - 1), min_size=1, max_size=6),
        max_size=40,
    ))
    return num_nodes, sets


class TestPostingsOracle:
    @given(flat_instances(), st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort(self, instance, dtype):
        num_nodes, sets = instance
        ptr, nodes = flat_arrays(sets, dtype)
        assert_same_postings(ptr, nodes, num_nodes)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_no_sets(self, dtype):
        ptr, nodes = flat_arrays([], dtype)
        assert_same_postings(ptr, nodes, 4)
        inv_ptr, inv_sets = _inverted_index(ptr, nodes, 4)
        assert inv_ptr.tolist() == [0] * 5 and inv_sets.size == 0

    def test_single_member_sets(self):
        sets = [(3,), (0,), (3,), (1,), (3,)]
        ptr, nodes = flat_arrays(sets, np.int32)
        assert_same_postings(ptr, nodes, 5)
        inv_ptr, inv_sets = _inverted_index(ptr, nodes, 5)
        assert inv_sets.tolist() == [1, 3, 0, 2, 4]

    def test_nodes_without_postings(self):
        # Nodes 0, 2 and 5..9 appear in no set: their slices are empty.
        sets = [(4, 1), (3,), (1, 3, 4)]
        ptr, nodes = flat_arrays(sets, np.int32)
        assert_same_postings(ptr, nodes, 10)
        inv_ptr, _ = _inverted_index(ptr, nodes, 10)
        assert np.diff(inv_ptr).tolist() == [0, 2, 0, 2, 2, 0, 0, 0, 0, 0]

    def test_mmap_loaded_sketch(self, tmp_path):
        graph = weighted_cascade(gnm_random_digraph(300, 2400, rng=5))
        batch = ICRRSampler(graph).sample_batch(np.arange(2000) % graph.n, RandomSource(9))
        path = tmp_path / "sketch.npz"
        batch.save(path)
        loaded, _ = FlatRRCollection.load(path, mmap=True)
        assert isinstance(loaded.nodes_array, np.memmap)
        assert_same_postings(loaded.ptr_array, loaded.nodes_array, loaded.num_nodes)


@st.composite
def chunk_instances(draw):
    """Collections with empty, single-member and repeated-member sets."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    sets = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=num_nodes - 1), max_size=5),
        max_size=30,
    ))
    return num_nodes, sets


class TestChunkedBuild:
    """Sets straddling chunk boundaries land exactly where one sort puts them."""

    @given(chunk_instances(), st.integers(min_value=1, max_value=6),
           st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=150, deadline=None)
    def test_tiny_chunks_match_the_oracle(self, instance, chunk, dtype):
        num_nodes, sets = instance
        ptr, nodes = flat_arrays(sets, dtype)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coverage, "POSTINGS_CHUNK_ENTRIES", chunk)
            assert_same_postings(ptr, nodes, num_nodes)

    @pytest.mark.parametrize("sets", [[], [()], [(0,)], [(2,)] * 7, [(0,), (), (1, 0)]],
                             ids=["no-sets", "one-empty-set", "one-member",
                                  "single-member-sets", "empty-between"])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_edge_collections(self, sets, chunk, monkeypatch):
        monkeypatch.setattr(coverage, "POSTINGS_CHUNK_ENTRIES", chunk)
        ptr, nodes = flat_arrays(sets, np.int32)
        assert_same_postings(ptr, nodes, 3)

    @pytest.mark.parametrize("key_max", [10, 25, 61])
    def test_set_cap_keeps_int32_keys(self, key_max, monkeypatch):
        # Chunks hold at most key_max // num_nodes sets, so every packed
        # (node, local set) key stays at or below key_max.
        monkeypatch.setattr(coverage, "_INT32_MAX", key_max)
        rng = np.random.default_rng(key_max)
        sets = [tuple(rng.integers(0, 10, size=rng.integers(0, 5)).tolist())
                for _ in range(40)]
        ptr, nodes = flat_arrays(sets, np.int32)
        assert_same_postings(ptr, nodes, 10)

    def test_sampled_sketch_across_chunks(self, monkeypatch):
        graph = weighted_cascade(gnm_random_digraph(300, 2400, rng=5))
        batch = ICRRSampler(graph).sample_batch(np.arange(3000) % graph.n, RandomSource(9))
        monkeypatch.setattr(coverage, "POSTINGS_CHUNK_ENTRIES", 1000)
        assert_same_postings(batch.ptr_array, batch.nodes_array, batch.num_nodes)


class TestPostingsMemory:
    def test_scratch_stays_flat_as_entries_grow(self, monkeypatch):
        # Beyond its output the build holds one chunk of scratch; building
        # with int64 set ids and keys of the whole sketch added 16 bytes an
        # entry.
        monkeypatch.setattr(coverage, "POSTINGS_CHUNK_ENTRIES", 512)
        rng = np.random.default_rng(3)

        def scratch(num_sets):
            ptr = np.zeros(num_sets + 1, dtype=np.int64)
            np.cumsum(rng.integers(1, 40, size=num_sets), out=ptr[1:])
            nodes = rng.integers(0, 2000, size=int(ptr[-1])).astype(np.int32)
            with track_peak() as tracker:
                inv_ptr, inv_sets = _inverted_index(ptr, nodes, 2000)
            return tracker.peak_bytes - inv_ptr.nbytes - inv_sets.nbytes, nodes.size

        small, small_entries = scratch(2_000)
        large, large_entries = scratch(8_000)
        assert large - small < large_entries - small_entries
