"""FlatRRCollection: layout, estimators, and byte accounting."""

import random

import numpy as np
import pytest

from repro.rrset import FlatRRCollection, RRSet


def random_rrsets(seed: int, num_nodes: int = 40, count: int = 120) -> list[RRSet]:
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        size = rng.randint(1, min(8, num_nodes))
        nodes = tuple(rng.sample(range(num_nodes), size))
        width = rng.randint(0, 30)
        sets.append(RRSet(root=nodes[0], nodes=nodes, width=width, cost=size + width))
    return sets


def paired_collections(seed: int = 0, num_nodes: int = 40, graph_edges: int = 77):
    """The RR sets as a plain list (the reference) and as a flat collection."""
    rr_sets = random_rrsets(seed, num_nodes=num_nodes)
    return rr_sets, FlatRRCollection.from_rrsets(num_nodes, graph_edges, rr_sets)


class TestLayout:
    def test_ptr_and_nodes_consistent(self):
        _, flat = paired_collections()
        ptr = flat.ptr_array
        assert ptr[0] == 0
        assert ptr[-1] == flat.total_nodes_stored == flat.nodes_array.size
        assert np.all(np.diff(ptr) >= 1)

    def test_sets_roundtrip(self):
        rr_sets, flat = paired_collections()
        assert [tuple(s) for s in flat.sets] == [rr.nodes for rr in rr_sets]

    def test_to_rrsets_roundtrip(self):
        rr_sets = random_rrsets(3)
        flat = FlatRRCollection.from_rrsets(40, 77, rr_sets)
        assert flat.to_rrsets() == rr_sets

    def test_iteration_yields_rrsets(self):
        rr_sets = random_rrsets(4)
        flat = FlatRRCollection.from_rrsets(40, 77, rr_sets)
        assert list(flat) == rr_sets

    def test_extend_flat_concatenates(self):
        a = FlatRRCollection.from_rrsets(40, 77, random_rrsets(5, count=30))
        b = FlatRRCollection.from_rrsets(40, 77, random_rrsets(6, count=20))
        merged = FlatRRCollection(40, 77)
        merged.extend_flat(a)
        merged.extend_flat(b)
        assert len(merged) == 50
        assert merged.sets == a.sets + b.sets
        assert merged.total_cost == a.total_cost + b.total_cost

    def test_extend_flat_rejects_universe_mismatch(self):
        a = FlatRRCollection(40, 77)
        b = FlatRRCollection(41, 77)
        with pytest.raises(ValueError):
            a.extend_flat(b)

    def test_truncate(self):
        flat = FlatRRCollection.from_rrsets(40, 77, random_rrsets(7, count=30))
        full_sets = flat.sets
        flat.truncate(12)
        assert len(flat) == 12
        assert flat.sets == full_sets[:12]
        assert flat.ptr_array.size == 13

    def test_truncate_out_of_range(self):
        flat = FlatRRCollection.from_rrsets(40, 77, random_rrsets(8, count=5))
        with pytest.raises(ValueError):
            flat.truncate(6)


class TestMemberIdRange:
    """Every way in rejects member ids outside [0, num_nodes), as from_arrays does."""

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_append_arrays_rejects_out_of_range_members(self, bad):
        flat = FlatRRCollection(3, 1)
        with pytest.raises(ValueError, match="node id out of range"):
            flat.append_arrays(root=0, members=np.array([0, bad], dtype=np.int32),
                               width=0, cost=0)
        assert len(flat) == 0 and flat.nodes_array.size == 0

    @pytest.mark.parametrize("bad", [5, -2])
    def test_append_rejects_out_of_range_members(self, bad):
        flat = FlatRRCollection(3, 1)
        with pytest.raises(ValueError, match="node id out of range"):
            flat.append(RRSet(root=0, nodes=(0, bad), width=0, cost=2))
        assert len(flat) == 0

    @pytest.mark.parametrize("bad", [3, -1])
    def test_extend_arrays_rejects_out_of_range_members(self, bad):
        flat = FlatRRCollection(3, 1)
        flat.append_arrays(root=1, members=np.array([1, 2], dtype=np.int32), width=1, cost=3)
        with pytest.raises(ValueError, match="node id out of range"):
            flat.extend_arrays(roots=np.array([0, 2]), ptr=np.array([0, 1, 3]),
                               nodes=np.array([0, 2, bad], dtype=np.int32),
                               widths=np.zeros(2, dtype=np.int64),
                               costs=np.zeros(2, dtype=np.int64))
        assert flat.sets == [(1, 2)]

    def test_rejected_append_leaves_the_collection_usable(self):
        from repro.rrset.coverage import greedy_max_coverage

        flat = FlatRRCollection(3, 1)
        with pytest.raises(ValueError):
            flat.append_arrays(root=0, members=np.array([0, 5], dtype=np.int32),
                               width=0, cost=0)
        flat.append_arrays(root=0, members=np.array([0, 2], dtype=np.int32), width=0, cost=0)
        assert greedy_max_coverage(flat, 3, 1).seeds == [0]

    def test_in_range_members_are_accepted_at_both_ends(self):
        flat = FlatRRCollection(3, 1)
        flat.append_arrays(root=0, members=np.array([0, 2], dtype=np.int32), width=0, cost=0)
        flat.extend_arrays(roots=np.array([2]), ptr=np.array([0, 2]),
                           nodes=np.array([2, 0], dtype=np.int32),
                           widths=np.zeros(1, dtype=np.int64), costs=np.zeros(1, dtype=np.int64))
        assert flat.sets == [(0, 2), (2, 0)]


class TestTraceIdRange:
    """Every way in rejects trace edge ids outside [0, graph_edges), as from_arrays does,
    so a traced sketch the collection accepted always loads back."""

    @pytest.mark.parametrize("bad", [7, 2, -1])
    def test_append_arrays_rejects_out_of_range_trace(self, bad):
        flat = FlatRRCollection(3, 2, track_traces=True)
        with pytest.raises(ValueError, match="trace edge id out of range"):
            flat.append_arrays(root=0, members=np.array([0, 1], dtype=np.int32), width=1,
                               cost=2, trace=np.array([0, bad], dtype=np.int32))
        assert len(flat) == 0 and flat.trace_edges_array.size == 0

    @pytest.mark.parametrize("bad", [-3, 2])
    def test_extend_arrays_rejects_out_of_range_trace(self, bad):
        flat = FlatRRCollection(3, 2, track_traces=True)
        with pytest.raises(ValueError, match="trace edge id out of range"):
            flat.extend_arrays(roots=np.array([0, 2]), ptr=np.array([0, 2, 3]),
                               nodes=np.array([0, 1, 2], dtype=np.int32),
                               widths=np.ones(2, dtype=np.int64),
                               costs=np.full(2, 2, dtype=np.int64),
                               trace_ptr=np.array([0, 1, 2]),
                               trace_edges=np.array([1, bad], dtype=np.int32))
        assert len(flat) == 0

    def test_accepted_traced_sets_load_back(self, tmp_path):
        flat = FlatRRCollection(3, 2, track_traces=True)
        flat.append_arrays(root=0, members=np.array([0, 1], dtype=np.int32), width=1,
                           cost=2, trace=np.array([1], dtype=np.int32))
        flat.extend_arrays(roots=np.array([2]), ptr=np.array([0, 2]),
                           nodes=np.array([2, 0], dtype=np.int32),
                           widths=np.ones(1, dtype=np.int64), costs=np.full(1, 3),
                           trace_ptr=np.array([0, 2]),
                           trace_edges=np.array([0, 1], dtype=np.int32))
        path = tmp_path / "traced.npz"
        flat.save(path)
        loaded, _ = FlatRRCollection.load(path)
        assert loaded.sets == [(0, 1), (2, 0)]
        assert loaded.trace_edges_array.tolist() == [1, 0, 1]
        assert path.exists()


class TestEstimatorsMatchDirectSums:
    """Each estimator equals the same quantity summed over the stored sets."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_estimators_agree(self, seed):
        rr_sets, flat = paired_collections(seed)
        widths = [rr.width for rr in rr_sets]
        costs = [rr.cost for rr in rr_sets]
        assert len(flat) == len(rr_sets)
        assert list(flat.widths) == widths
        assert list(flat.roots) == [rr.root for rr in rr_sets]
        assert list(flat.costs) == costs
        assert np.array_equal(flat.costs_array, costs)
        assert np.array_equal(flat.set_sizes(), [len(rr) for rr in rr_sets])
        assert flat.total_cost == sum(costs)
        assert flat.total_nodes_stored == sum(len(rr) for rr in rr_sets)
        assert flat.mean_width() == pytest.approx(sum(widths) / len(widths))
        for k in (1, 3, 10):
            kappas = [1.0 - (1.0 - w / 77) ** k for w in widths]
            assert flat.mean_kappa(k) == pytest.approx(sum(kappas) / len(kappas))
            assert flat.kappa_sum(k) == pytest.approx(sum(kappas))
        frequencies = [0] * 40
        for rr in rr_sets:
            for node in rr.nodes:
                frequencies[node] += 1
        assert flat.node_frequencies() == frequencies
        assert np.array_equal(flat.node_frequency_array(), frequencies)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coverage_agrees(self, seed):
        rr_sets, flat = paired_collections(seed)
        rng = random.Random(seed + 100)
        for _ in range(10):
            probe = rng.sample(range(40), rng.randint(1, 6))
            covered = sum(1 for rr in rr_sets if set(probe).intersection(rr.nodes))
            assert flat.coverage_count(probe) == covered
            assert flat.coverage_fraction(probe) == pytest.approx(covered / len(rr_sets))
            assert flat.estimate_spread(probe) == pytest.approx(40 * covered / len(rr_sets))

    def test_empty_collection_estimators(self):
        flat = FlatRRCollection(5, 10)
        assert flat.coverage_fraction([1]) == 0.0
        assert flat.mean_width() == 0.0
        assert flat.mean_kappa(2) == 0.0
        assert flat.kappa_sum(3) == 0.0
        assert flat.total_cost == 0
        assert flat.costs_array.size == 0
        assert flat.set_sizes().size == 0
        assert np.array_equal(flat.node_frequency_array(), np.zeros(5))

    def test_kappa_sum_matches_mean(self):
        _, flat = paired_collections()
        assert flat.kappa_sum(4) == pytest.approx(flat.mean_kappa(4) * len(flat))


class TestBytesAccounting:
    def test_flat_nbytes_is_exact(self):
        flat = FlatRRCollection.from_rrsets(40, 77, random_rrsets(9, count=50))
        expected = (
            (len(flat) + 1) * 8  # ptr int64
            + flat.total_nodes_stored * 4  # nodes int32
            + len(flat) * (8 + 4 + 8)  # widths int64 + roots int32 + costs int64
        )
        assert flat.nbytes() == expected

    def test_flat_nbytes_ignores_overallocation(self):
        a = FlatRRCollection(40, 77)
        b = FlatRRCollection(40, 77)
        rr = RRSet(root=1, nodes=(1, 2, 3), width=4, cost=7)
        a.append(rr)
        # b holds the same live data but went through many growth cycles.
        for _ in range(30):
            b.append(rr)
        b.truncate(1)
        assert a.nbytes() == b.nbytes()

    def test_grows_with_contents(self):
        small = FlatRRCollection.from_rrsets(40, 77, random_rrsets(12, count=10))
        big = FlatRRCollection.from_rrsets(40, 77, random_rrsets(12, count=200))
        assert big.nbytes() > small.nbytes()


class TestEstimatorIdRange:
    """The estimators check node ids as SketchIndex does, instead of reading
    node 4 for id -1 or raising numpy's IndexError for id 5."""

    @pytest.fixture
    def five_nodes(self):
        return FlatRRCollection.from_rrsets(5, 10, [
            RRSet(root=4, nodes=(4, 1), width=2, cost=4),
            RRSet(root=0, nodes=(0,), width=1, cost=2),
        ])

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    @pytest.mark.parametrize("estimator", ["coverage_count", "coverage_fraction",
                                           "estimate_spread"])
    def test_out_of_range_ids_raise(self, five_nodes, estimator, bad):
        with pytest.raises(ValueError, match="out of range"):
            getattr(five_nodes, estimator)([0, bad])

    def test_empty_collection_checks_ids_too(self):
        with pytest.raises(ValueError, match="out of range"):
            FlatRRCollection(5, 10).coverage_count([-1])

    def test_both_ends_are_in_range(self, five_nodes):
        assert five_nodes.coverage_count([4]) == 1
        assert five_nodes.coverage_count([0]) == 1
        assert five_nodes.estimate_spread([0, 4]) == 5.0
        assert five_nodes.coverage_count([]) == 0

    def test_empty_sets_own_no_hits(self):
        # Hits map to their owning set through ptr, so a set with no
        # members in between never takes one.
        flat = FlatRRCollection.from_arrays(
            5, 10, ptr=np.array([0, 2, 2, 3, 3]), nodes=np.array([1, 2, 3], dtype=np.int32),
            roots=np.array([1, 0, 3, 4], dtype=np.int32), widths=np.zeros(4, dtype=np.int64),
            costs=np.zeros(4, dtype=np.int64))
        assert flat.coverage_count([3]) == 1
        assert flat.coverage_count([1, 2]) == 1
        assert flat.coverage_count([2, 3]) == 2


class TestAdoption:
    """An empty collection adopts a bulk batch, and neither side ever writes
    into storage the other still reads."""

    def test_empty_collection_takes_the_batch_uncopied(self):
        batch = FlatRRCollection.from_rrsets(40, 77, random_rrsets(5, count=30))
        merged = FlatRRCollection(40, 77)
        merged.extend_flat(batch)
        assert np.shares_memory(merged.nodes_array, batch.nodes_array)
        assert merged.sets == batch.sets
        assert merged.total_cost == batch.total_cost

    def test_a_non_empty_collection_copies(self):
        merged = FlatRRCollection.from_rrsets(40, 77, random_rrsets(6, count=3))
        batch = FlatRRCollection.from_rrsets(40, 77, random_rrsets(5, count=30))
        merged.extend_flat(batch)
        assert not np.shares_memory(merged.nodes_array, batch.nodes_array)

    def test_appends_after_adoption_leave_the_source_alone(self):
        batch = FlatRRCollection.from_rrsets(40, 77, random_rrsets(5, count=30))
        before = batch.sets
        merged = FlatRRCollection(40, 77)
        merged.extend_flat(batch)
        extra = RRSet(root=7, nodes=(7, 8, 9), width=3, cost=6)
        merged.truncate(4)
        merged.append(extra)
        assert batch.sets == before
        assert merged.sets == before[:4] + [(7, 8, 9)]

    def test_source_appends_after_adoption_leave_the_adopter_alone(self):
        batch = FlatRRCollection.from_rrsets(40, 77, random_rrsets(5, count=30))
        before = batch.sets
        merged = FlatRRCollection(40, 77)
        merged.extend_flat(batch)
        batch.truncate(2)
        batch.append(RRSet(root=7, nodes=(7, 8, 9), width=3, cost=6))
        assert merged.sets == before

    def test_truncated_memmap_sketch_can_grow(self, tmp_path):
        flat = FlatRRCollection.from_rrsets(40, 77, random_rrsets(8, count=20))
        path = tmp_path / "sketch.npz"
        flat.save(path)
        loaded, _ = FlatRRCollection.load(path, mmap=True)
        loaded.truncate(5)
        loaded.append(RRSet(root=1, nodes=(1, 2), width=1, cost=3))
        assert loaded.sets == flat.sets[:5] + [(1, 2)]
