"""Tests for the sharded worker-pool RR engine (repro.parallel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion import BoundedIndependentCascade
from repro.graphs import gnm_random_digraph, uniform_random_lt, weighted_cascade
from repro.parallel import (
    MAX_SHARDS,
    MIN_SHARD,
    ParallelSampler,
    maybe_parallel,
    resolve_jobs,
    shard_sizes,
)
from repro.parallel.worker import run_shard_with
from repro.rrset import FlatRRCollection, make_rr_sampler
from repro.utils.memory import track_peak
from repro.utils.rng import RandomSource, spawn_seed_streams


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(1500, 9000, rng=17))


@pytest.fixture(scope="module")
def lt_graph():
    return uniform_random_lt(gnm_random_digraph(1000, 6000, rng=18), rng=1)


def collection_arrays(collection):
    return (
        collection.ptr_array,
        collection.nodes_array,
        collection.roots_array,
        collection.widths_array,
        collection.costs_array,
    )


def assert_collections_identical(a, b):
    for left, right in zip(collection_arrays(a), collection_arrays(b)):
        assert np.array_equal(left, right)


class TestShardLayout:
    def test_sizes_sum_to_count(self):
        for count in (1, 7, MIN_SHARD, MIN_SHARD + 1, 50_000, 10**6):
            sizes = shard_sizes(count)
            assert sum(sizes) == count
            assert all(size >= 1 for size in sizes)

    def test_small_batches_are_one_shard(self):
        assert shard_sizes(MIN_SHARD) == [MIN_SHARD]
        assert len(shard_sizes(MIN_SHARD - 1)) == 1

    def test_shard_count_capped(self):
        assert len(shard_sizes(10**7)) == MAX_SHARDS

    def test_balanced_within_one(self):
        sizes = shard_sizes(10_001)
        assert max(sizes) - min(sizes) <= 1

    def test_empty(self):
        assert shard_sizes(0) == []
        assert shard_sizes(-5) == []

    def test_layout_is_worker_count_free(self):
        # The layout API deliberately has no jobs parameter: this pins the
        # determinism contract at the signature level.
        import inspect

        assert "jobs" not in inspect.signature(shard_sizes).parameters


class TestResolveJobs:
    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_literal(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5

    def test_rejects_negative_and_bool(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        with pytest.raises(ValueError):
            resolve_jobs(True)
        with pytest.raises(ValueError):
            resolve_jobs(1.5)


class TestMaybeParallel:
    def test_none_passes_through(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        wrapped, owned = maybe_parallel(sampler, None)
        assert wrapped is sampler and not owned

    def test_wraps_on_explicit_jobs(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        wrapped, owned = maybe_parallel(sampler, 1)
        assert isinstance(wrapped, ParallelSampler) and owned
        wrapped.close()

    def test_already_wrapped_passes_through(self, wc_graph):
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1) as wrapped:
            again, owned = maybe_parallel(wrapped, None)
            assert again is wrapped and not owned
            same, owned = maybe_parallel(wrapped, 1)
            assert same is wrapped and not owned

    def test_conflicting_jobs_on_wrapped_sampler_warns(self, wc_graph):
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1) as wrapped:
            with pytest.warns(RuntimeWarning, match="conflicting jobs=4"):
                again, owned = maybe_parallel(wrapped, 4)
            assert again is wrapped and not owned


class TestDeterminism:
    def test_random_batch_identical_across_jobs(self, wc_graph):
        results = {}
        for jobs in (1, 2, 4):
            with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=jobs) as sampler:
                results[jobs] = sampler.sample_random_batch(3000, rng=101)
        assert_collections_identical(results[1], results[2])
        assert_collections_identical(results[1], results[4])

    def test_explicit_roots_identical_across_jobs(self, wc_graph):
        roots = np.arange(0, wc_graph.n, 1, dtype=np.int64)
        batches = []
        for jobs in (1, 3):
            with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=jobs) as sampler:
                batches.append(sampler.sample_batch(roots, rng=5))
        assert_collections_identical(*batches)
        assert np.array_equal(batches[0].roots_array, roots.astype(np.int32))

    def test_lt_identical_across_jobs(self, lt_graph):
        results = []
        for jobs in (1, 2):
            with ParallelSampler(make_rr_sampler(lt_graph, "LT"), jobs=jobs) as sampler:
                results.append(sampler.sample_random_batch(2500, rng=7))
        assert_collections_identical(*results)

    def test_same_seed_same_result_repeated(self, wc_graph):
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2) as sampler:
            first = sampler.sample_random_batch(2000, rng=9)
            second = sampler.sample_random_batch(2000, rng=9)
        assert_collections_identical(first, second)

    def test_transports_agree(self, wc_graph):
        with ParallelSampler(
            make_rr_sampler(wc_graph, "IC"), jobs=2, transport="shared_memory"
        ) as shm_sampler:
            via_shm = shm_sampler.sample_random_batch(2000, rng=13)
        with ParallelSampler(
            make_rr_sampler(wc_graph, "IC"), jobs=2, transport="memmap"
        ) as mm_sampler:
            via_memmap = mm_sampler.sample_random_batch(2000, rng=13)
        assert_collections_identical(via_shm, via_memmap)

    def test_distribution_matches_serial_engine(self, wc_graph):
        # Different RNG consumption than the legacy stream, but the same
        # distribution: compare mean RR-set sizes.
        base = make_rr_sampler(wc_graph, "IC")
        serial = base.sample_random_batch(4000, RandomSource(1))
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1) as sampler:
            sharded = sampler.sample_random_batch(4000, rng=2)
        assert sharded.set_sizes().mean() == pytest.approx(
            serial.set_sizes().mean(), rel=0.15
        )


class TestPoolLifecycle:
    def test_pool_is_lazy(self, wc_graph):
        sampler = ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2)
        assert sampler._state.get("executor") is None
        sampler.sample_random_batch(1500, rng=3)
        assert sampler._state.get("executor") is not None
        sampler.close()
        assert sampler._state.get("executor") is None

    def test_jobs_one_never_spawns(self, wc_graph):
        inline = ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1)
        inline.sample_random_batch(5000, rng=3)
        assert inline._state.get("executor") is None
        inline.close()

    def test_reuse_after_close_respawns(self, wc_graph):
        sampler = ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2)
        first = sampler.sample_random_batch(2000, rng=21)
        sampler.close()
        second = sampler.sample_random_batch(2000, rng=21)
        sampler.close()
        assert_collections_identical(first, second)

    def test_crashed_pool_recovers(self, wc_graph):
        sampler = ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2)
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1) as reference:
            expected = reference.sample_random_batch(3000, rng=31)
        sampler.sample_random_batch(2000, rng=30)  # spawn the pool
        for process in sampler._state["executor"]._processes.values():
            process.kill()  # simulate an OOM-killed / crashed worker
        survived = sampler.sample_random_batch(3000, rng=31)
        sampler.close()
        assert_collections_identical(survived, expected)

    def test_double_crashed_pool_recovers_identically(self, wc_graph):
        # Two separate pool losses in one sampler lifetime: each wave
        # respawns under the retry budget and re-runs the same shard seed
        # stream, so every recovery reproduces the un-faulted bytes.
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=1) as reference:
            expected_a = reference.sample_random_batch(3000, rng=41)
            expected_b = reference.sample_random_batch(2500, rng=42)
        sampler = ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2)
        sampler.sample_random_batch(2000, rng=40)  # spawn the pool
        for process in sampler._state["executor"]._processes.values():
            process.kill()
        first = sampler.sample_random_batch(3000, rng=41)
        for process in sampler._state["executor"]._processes.values():
            process.kill()
        second = sampler.sample_random_batch(2500, rng=42)
        assert not sampler._pool_disabled  # both crashes stayed in budget
        sampler.close()
        assert_collections_identical(first, expected_a)
        assert_collections_identical(second, expected_b)

    def test_context_manager_closes(self, wc_graph):
        with ParallelSampler(make_rr_sampler(wc_graph, "IC"), jobs=2) as sampler:
            sampler.sample_random_batch(1500, rng=1)
        assert sampler._state.get("executor") is None


class TestDegradation:
    def test_unsupported_sampler_warns_once_and_stays_correct(self, wc_graph):
        from repro.diffusion.triggering import ICTriggering, TriggeringModel
        from repro.rrset import make_rr_sampler as make

        model = TriggeringModel(ICTriggering(wc_graph))
        with pytest.warns(RuntimeWarning, match="cannot be rebuilt in worker"):
            with ParallelSampler(make(wc_graph, model), jobs=2) as sampler:
                degraded = sampler.sample_random_batch(1200, rng=4)
        with ParallelSampler(make(wc_graph, model), jobs=1) as sampler:
            inline = sampler.sample_random_batch(1200, rng=4)
        assert_collections_identical(degraded, inline)

    def test_delegated_surface(self, wc_graph):
        base = make_rr_sampler(wc_graph, "IC")
        with ParallelSampler(base, jobs=1) as sampler:
            assert sampler.model_name == "IC"
            assert sampler.graph is wc_graph
            assert sampler.base_sampler is base
            # Sampler attributes read through to the base sampler.
            assert sampler.max_depth is None
            assert sampler.trace_edges is False


def traced_arrays(collection):
    return collection_arrays(collection) + (
        collection.trace_ptr_array,
        collection.trace_edges_array,
    )


class TestWorkerSpec:
    """A worker rebuilds the sampler from its spec alone: ``kind``,
    ``max_depth`` and ``trace_edges``; a spawned pool must reproduce the
    inline shards byte for byte, traces included."""

    def test_spec_carries_only_the_model_settings(self, wc_graph, lt_graph):
        from repro.parallel.worker import sampler_spec
        from repro.rrset.ic_sampler import ICRRSampler
        from repro.rrset.lt_sampler import LTRRSampler

        assert sampler_spec(ICRRSampler(wc_graph, max_depth=3, trace_edges=True)) == {
            "kind": "ic", "max_depth": 3, "trace_edges": True}
        assert sampler_spec(LTRRSampler(lt_graph, trace_edges=True)) == {
            "kind": "lt", "trace_edges": True}

    def test_weighted_spec_wraps_the_inner_spec(self, wc_graph):
        from repro.core.weighted import WeightedRootSampler
        from repro.diffusion.triggering import ICTriggering, TriggeringModel
        from repro.parallel.worker import build_sampler, sampler_spec
        from repro.rrset.ic_sampler import ICRRSampler

        weights = np.arange(wc_graph.n, dtype=np.float64)
        spec = sampler_spec(WeightedRootSampler(ICRRSampler(wc_graph, max_depth=2), weights))
        assert spec["kind"] == "weighted"
        assert spec["inner"] == {"kind": "ic", "max_depth": 2, "trace_edges": False}
        assert np.array_equal(spec["node_weights"], weights)
        rebuilt = build_sampler(wc_graph, spec)
        assert isinstance(rebuilt, WeightedRootSampler)
        assert rebuilt.inner.max_depth == 2
        assert np.array_equal(rebuilt.node_weights, weights)
        # A wrapper around a sampler without a spec has none either.
        triggering = make_rr_sampler(wc_graph, TriggeringModel(ICTriggering(wc_graph)))
        assert sampler_spec(WeightedRootSampler(triggering, weights)) is None

    @pytest.mark.parametrize("model,graph_fixture,traced", [
        (BoundedIndependentCascade(2), "wc_graph", False),
        (BoundedIndependentCascade(2), "wc_graph", True),
        ("LT", "lt_graph", True),
    ], ids=["bounded-ic", "bounded-ic-traced", "lt-traced"])
    def test_pool_matches_inline(self, model, graph_fixture, traced, request):
        graph = request.getfixturevalue(graph_fixture)
        results = []
        for jobs in (1, 2):
            base = make_rr_sampler(graph, model, trace_edges=traced)
            with ParallelSampler(base, jobs=jobs) as sampler:
                results.append(sampler.sample_random_batch(3000, rng=61))
                if jobs == 2:
                    assert sampler._state.get("executor") is not None  # a real pool
        first, second = results
        assert first.has_traces == second.has_traces == traced
        arrays = traced_arrays if traced else collection_arrays
        for left, right in zip(arrays(first), arrays(second)):
            assert np.array_equal(left, right)


class TestMerge:
    """``_merge`` concatenates shards once, in shard order, byte for byte."""

    @staticmethod
    def shards(graph, traced, sizes=(1500, 1024, 3, 2048, 700)):
        base = make_rr_sampler(graph, "IC", trace_edges=traced)
        tasks = [("random", seed, size) for seed, size in zip(spawn_seed_streams(5, len(sizes)),
                                                              sizes)]
        return ParallelSampler(base, jobs=1), [run_shard_with(base, task) for task in tasks]

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_matches_concatenating_the_shards(self, wc_graph, traced):
        sampler, shards = self.shards(wc_graph, traced)

        def joined(field, offsets_of=None):
            parts = [shard[field] for shard in shards]
            if offsets_of is None:
                return np.concatenate(parts)
            # Local offsets: shift each shard by the payload before it.
            starts = np.cumsum([0] + [shard[offsets_of].size for shard in shards])
            return np.concatenate([[0]] + [part[1:] + start
                                           for part, start in zip(parts, starts)])

        want = [joined(0, offsets_of=1), joined(1), joined(2), joined(3), joined(4)]
        if traced:
            want += [joined(5, offsets_of=6), joined(6)]
        merged = sampler._merge(list(shards))
        got = traced_arrays(merged) if traced else collection_arrays(merged)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()
        assert merged.total_cost == int(want[4].sum())

    def test_releases_each_shard_once_copied(self, wc_graph):
        sampler, shards = self.shards(wc_graph, False)
        sampler._merge(shards)
        assert shards == [None] * 5

    def test_peak_is_one_output(self, wc_graph):
        # Shards copied into one allocation per array; appending them one by
        # one grew every array by doubling and peaked at 2-3x the output.
        sampler, shards = self.shards(wc_graph, True, sizes=(2048,) * 12)
        with track_peak() as tracker:
            merged = sampler._merge(shards)
        assert tracker.peak_bytes <= 1.1 * merged.nbytes()
