"""Tests for greedy maximum coverage."""

import numpy as np
import pytest

from repro.rrset import (
    brute_force_max_coverage,
    coverage,
    coverage_of,
    greedy_max_coverage,
)
from repro.rrset.coverage import _GreedyKernel, _inverted_index
from repro.utils.memory import track_peak
from tests.rrset.greedy_oracle import reference_greedy


SIMPLE_SETS = [(0, 1), (1, 2), (2,), (3,), (0, 3)]


class TestCoverageOf:
    def test_counts_intersections(self):
        assert coverage_of(SIMPLE_SETS, [1]) == 2
        assert coverage_of(SIMPLE_SETS, [0, 2]) == 4
        assert coverage_of(SIMPLE_SETS, []) == 0


class TestExactGreedy:
    def test_single_pick_is_most_frequent(self):
        result = greedy_max_coverage(SIMPLE_SETS, 4, 1)
        # Node frequencies: 0:2, 1:2, 2:2, 3:2 — tie broken to node 0.
        assert result.seeds == [0]
        assert result.covered == 2

    def test_greedy_two_picks(self):
        sets = [(0,), (0,), (0, 1), (1,), (2,)]
        result = greedy_max_coverage(sets, 3, 2)
        assert result.seeds[0] == 0  # covers 3 sets
        assert result.covered == 4  # then node 1 adds set (1,)

    def test_coverage_matches_reference_counter(self):
        result = greedy_max_coverage(SIMPLE_SETS, 4, 2)
        assert result.covered == coverage_of(SIMPLE_SETS, result.seeds)

    def test_seeds_distinct(self):
        result = greedy_max_coverage(SIMPLE_SETS, 4, 4)
        assert len(set(result.seeds)) == 4

    def test_covers_everything_with_enough_seeds(self):
        result = greedy_max_coverage(SIMPLE_SETS, 4, 4)
        assert result.covered == len(SIMPLE_SETS)

    def test_marginal_gains_non_increasing(self):
        sets = [(0,), (0,), (0, 1), (1,), (2,), (2, 3)]
        result = greedy_max_coverage(sets, 4, 3)
        gains = list(result.marginal_gains)
        assert gains == sorted(gains, reverse=True)

    def test_fraction(self):
        result = greedy_max_coverage(SIMPLE_SETS, 4, 1)
        assert result.fraction == pytest.approx(2 / 5)

    def test_empty_rr_sets(self):
        result = greedy_max_coverage([], 4, 2)
        assert result.covered == 0
        assert len(result.seeds) == 2

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            greedy_max_coverage(SIMPLE_SETS, 2, 3)

    @pytest.mark.parametrize("bad", [5, 3, -1])
    def test_rejects_out_of_range_tuple_members(self, bad):
        with pytest.raises(ValueError, match="node id out of range for num_nodes"):
            greedy_max_coverage([(0, 1), (0, bad)], 3, 1)


class TestTieBreak:
    """A tied maximum goes to the smaller node id, exactly as in the oracle."""

    def test_all_tied_singletons(self):
        sets = [(0,), (1,), (2,), (3,)]  # every node covers exactly one set
        for k in (1, 2, 4):
            result = greedy_max_coverage(sets, 4, k)
            assert result.seeds == reference_greedy(sets, 4, k).seeds == list(range(k))

    def test_duplicated_sets_force_ties(self):
        sets = [(2, 3)] * 5 + [(0, 1)] * 5 + [(4,)] * 2
        for k in (1, 2, 3):
            assert greedy_max_coverage(sets, 5, k).seeds == reference_greedy(sets, 5, k).seeds
        # Tied top gain (0,1) vs (2,3): smaller node id wins.
        assert greedy_max_coverage(sets, 5, 1).seeds == [0]

    def test_randomised_instances_identical_seeds(self):
        import random

        rng = random.Random(1234)
        for trial in range(40):
            num_nodes = rng.randint(4, 10)
            # Small universes + duplicated sets make ties frequent.
            pool = [
                tuple(rng.sample(range(num_nodes), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))
            ]
            sets = [rng.choice(pool) for _ in range(rng.randint(2, 24))]
            k = rng.randint(1, num_nodes)
            result = greedy_max_coverage(sets, num_nodes, k)
            expected = reference_greedy(sets, num_nodes, k)
            assert result.seeds == expected.seeds, f"trial {trial}: {sets}"
            assert result.marginal_gains == expected.marginal_gains

    def test_degenerate_fill_smallest_ids_first(self):
        # Only node 0 ever covers anything; the rest is zero-gain padding,
        # filled with the smallest unchosen ids.
        for num_nodes, k in ((5, 4), (3, 3)):
            result = greedy_max_coverage([(0,)], num_nodes, k)
            assert result.seeds == reference_greedy([(0,)], num_nodes, k).seeds
            assert result.seeds == list(range(k))
            assert result.marginal_gains == (1,) + (0,) * (k - 1)


class TestNumpyPythonParity:
    """The vectorised exact greedy must match the pure-Python oracle."""

    def test_simple_sets(self):
        for k in (1, 2, 3, 4):
            vec = greedy_max_coverage(SIMPLE_SETS, 4, k)
            ref = reference_greedy(SIMPLE_SETS, 4, k)
            assert vec.seeds == ref.seeds
            assert vec.covered == ref.covered
            assert vec.marginal_gains == ref.marginal_gains

    def test_randomised_instances(self):
        import random

        rng = random.Random(77)
        for trial in range(30):
            num_nodes = rng.randint(3, 15)
            sets = [
                tuple(rng.sample(range(num_nodes), rng.randint(1, min(5, num_nodes))))
                for _ in range(rng.randint(1, 40))
            ]
            k = rng.randint(1, num_nodes)
            vec = greedy_max_coverage(sets, num_nodes, k)
            ref = reference_greedy(sets, num_nodes, k)
            assert vec.seeds == ref.seeds, f"trial {trial}"
            assert vec.covered == ref.covered
            assert vec.marginal_gains == ref.marginal_gains

    def test_flat_collection_input(self):
        from repro.rrset import FlatRRCollection, RRSet

        flat = FlatRRCollection(4, 10)
        for i, rr in enumerate(SIMPLE_SETS):
            flat.append(RRSet(root=rr[0], nodes=rr, width=i, cost=len(rr) + i))
        from_flat = greedy_max_coverage(flat, 4, 2)
        from_tuples = greedy_max_coverage(SIMPLE_SETS, 4, 2)
        assert from_flat.seeds == from_tuples.seeds == reference_greedy(SIMPLE_SETS, 4, 2).seeds
        assert from_flat.covered == from_tuples.covered


class TestApproximationGuarantee:
    def test_greedy_within_1_minus_1_over_e_of_optimum(self):
        import random

        rng = random.Random(7)
        for trial in range(15):
            num_nodes = rng.randint(4, 9)
            sets = [
                tuple(rng.sample(range(num_nodes), rng.randint(1, 3)))
                for _ in range(rng.randint(3, 20))
            ]
            k = rng.randint(1, 3)
            greedy = greedy_max_coverage(sets, num_nodes, k)
            optimal = brute_force_max_coverage(sets, num_nodes, k)
            assert greedy.covered >= (1 - 1 / 2.7182818284) * optimal.covered - 1e-9


class TestBruteForce:
    def test_finds_true_optimum(self):
        # node 0 covers sets {0, 2}; node 1 covers {1, 2}; nodes 2/3 cover {3}.
        # Every pair covers exactly 3 of the 4 sets; brute force must find 3.
        sets = [(0,), (1,), (0, 1), (2, 3)]
        result = brute_force_max_coverage(sets, 4, 2)
        assert result.covered == 3

    def test_beats_or_ties_greedy_everywhere(self):
        import random

        rng = random.Random(3)
        for _ in range(10):
            num_nodes = rng.randint(3, 7)
            sets = [
                tuple(rng.sample(range(num_nodes), rng.randint(1, 3)))
                for _ in range(rng.randint(2, 12))
            ]
            k = rng.randint(1, 2)
            greedy = greedy_max_coverage(sets, num_nodes, k)
            optimal = brute_force_max_coverage(sets, num_nodes, k)
            assert optimal.covered >= greedy.covered

    def test_optimum_small_instance(self):
        sets = [(0,), (1,), (2,)]
        result = brute_force_max_coverage(sets, 3, 2)
        assert result.covered == 2
        assert result.seeds == [0, 1]


def random_sketch(num_sets, num_nodes=2000, seed=3):
    """Random flat sets of 1–79 members, every one holding node 0."""
    rng = np.random.default_rng(seed)
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(rng.integers(1, 80, size=num_sets), out=ptr[1:])
    nodes = rng.integers(1, num_nodes, size=int(ptr[-1])).astype(np.int32)
    nodes[ptr[:-1]] = 0
    return ptr, nodes


class TestGreedyGather:
    """A pick decrements the counts over bounded steps of gathered members."""

    @pytest.mark.parametrize("step", [1, 7, 100])
    def test_stepped_picks_equal_one_gather(self, monkeypatch, step):
        ptr, nodes = random_sketch(600, num_nodes=50)
        whole = _GreedyKernel(ptr, nodes, *_inverted_index(ptr, nodes, 50))
        whole.extend_to(10)
        monkeypatch.setattr(coverage, "GREEDY_GATHER_ENTRIES", step)
        stepped = _GreedyKernel(ptr, nodes, *_inverted_index(ptr, nodes, 50))
        stepped.extend_to(10)
        assert stepped.seeds == whole.seeds
        assert stepped.gains == whole.gains
        assert np.array_equal(stepped.counts, whole.counts)
        assert np.array_equal(stepped.covered, whole.covered)

    def test_scratch_stays_flat_as_the_pick_grows(self, monkeypatch):
        # Node 0 is in every set, so its pick gathers every member; in one
        # gather that held about 24 bytes an entry.
        monkeypatch.setattr(coverage, "GREEDY_GATHER_ENTRIES", 512)

        def scratch(num_sets):
            ptr, nodes = random_sketch(num_sets)
            kernel = _GreedyKernel(ptr, nodes, *_inverted_index(ptr, nodes, 2000))
            with track_peak() as tracker:
                kernel.take(0)
            assert kernel.gains == [num_sets]
            return tracker.peak_bytes, nodes.size

        small, small_entries = scratch(2_000)
        large, large_entries = scratch(8_000)
        assert large - small < large_entries - small_entries
