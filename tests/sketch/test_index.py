"""SketchIndex: selection parity, estimator queries, warm extension."""

import numpy as np
import pytest

from repro.core.tim import tim
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset.coverage import greedy_max_coverage
from repro.sketch import SketchGraphMismatchError, SketchIndex
from tests.rrset.greedy_oracle import reference_greedy


@pytest.fixture
def wc_graph():
    return weighted_cascade(gnm_random_digraph(120, 480, rng=21))


@pytest.fixture
def index(wc_graph):
    return SketchIndex.build(wc_graph, "IC", theta=1500, rng=77)


class TestSelection:
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 25])
    def test_matches_exact_greedy(self, index, wc_graph, k):
        expected = greedy_max_coverage(index.collection, wc_graph.n, k)
        result = index.select(k)
        assert result.seeds == expected.seeds
        assert result.covered == expected.covered
        assert result.marginal_gains == expected.marginal_gains

    def test_matches_node_selection(self, wc_graph):
        """select(k) equals Algorithm 1's exact greedy over the same collection."""
        index = SketchIndex.build(wc_graph, "IC", theta=900, rng=5)
        for k in (1, 3, 8, 15):
            expected = greedy_max_coverage(index.collection, wc_graph.n, k)
            assert index.select(k).seeds == expected.seeds

    def test_incremental_extends_previous_answer(self, index, wc_graph):
        first = index.select(4)
        longer = index.select(12)
        assert longer.seeds[:4] == first.seeds
        assert longer.seeds == greedy_max_coverage(index.collection, wc_graph.n, 12).seeds

    def test_incremental_prefix_reuse(self, index):
        full = index.select(10)
        again = index.select(6)
        assert again.seeds == full.seeds[:6]
        assert again.marginal_gains == full.marginal_gains[:6]

    def test_forced_include_taken_first(self, index):
        result = index.select(5, forced_include=[42, 7])
        assert result.seeds[:2] == [42, 7]
        assert len(result.seeds) == 5

    def test_forced_exclude_never_selected(self, index):
        unconstrained = index.select(5)
        banned = unconstrained.seeds[0]
        result = index.select(5, forced_exclude=[banned])
        assert banned not in result.seeds

    def test_constraint_validation(self, index):
        with pytest.raises(ValueError):
            index.select(2, forced_include=[1, 2, 3])
        with pytest.raises(ValueError):
            index.select(3, forced_include=[1], forced_exclude=[1])
        with pytest.raises(ValueError):
            index.select(3, forced_include=[1, 1])

    def test_degenerate_fill(self, wc_graph):
        """k larger than the number of useful nodes still yields k seeds."""
        index = SketchIndex.build(wc_graph, "IC", theta=3, rng=0)
        result = index.select(50)
        assert len(result.seeds) == 50
        assert len(set(result.seeds)) == 50


class TestConstrainedSelection:
    """A constrained select equals the pure-Python oracle, pick for pick."""

    @staticmethod
    def assert_matches_oracle(index, k, include, exclude):
        result = index.select(k, forced_include=include, forced_exclude=exclude)
        expected = reference_greedy(index.collection.sets, index.num_nodes, k,
                                    include=include, exclude=exclude)
        assert result.seeds == expected.seeds
        assert result.covered == expected.covered
        assert result.marginal_gains == expected.marginal_gains

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    def test_matches_oracle(self, index, k):
        top = greedy_max_coverage(index.collection, index.num_nodes, 6).seeds
        include = [42, 7][:k]
        # Excluding the strongest nodes moves every later pick.
        exclude = [v for v in top if v not in include][:3]
        self.assert_matches_oracle(index, k, include, exclude)
        self.assert_matches_oracle(index, k, [], exclude)
        self.assert_matches_oracle(index, k, include, [])
        # A constrained select leaves the shared greedy state alone.
        assert index.select(k).seeds == greedy_max_coverage(
            index.collection, index.num_nodes, k).seeds

    @pytest.mark.parametrize("k", [4, 20, 50])
    def test_zero_gain_fill_skips_exclusions(self, wc_graph, k):
        """With three sets most picks gain nothing; the fill must still go to
        the smallest eligible ids and step over the excluded ones."""
        index = SketchIndex.build(wc_graph, "IC", theta=3, rng=0)
        top = greedy_max_coverage(index.collection, index.num_nodes, 1).seeds
        exclude = sorted({0, 1, 3, *top} - {2})
        self.assert_matches_oracle(index, k, [2], exclude)
        self.assert_matches_oracle(index, k, [], exclude)


class TestEstimators:
    def test_spread_matches_collection(self, index):
        seeds = index.select(6).seeds
        assert index.spread(seeds) == pytest.approx(index.collection.estimate_spread(seeds))
        assert index.coverage_count(seeds) == index.collection.coverage_count(seeds)

    def test_marginal_gain_is_spread_difference(self, index):
        seeds = index.select(6).seeds
        base, candidate = seeds[:5], seeds[5]
        expected = index.spread(seeds) - index.spread(base)
        assert index.marginal_gain(base, candidate) == pytest.approx(expected)

    def test_marginal_gain_of_member_is_zero(self, index):
        seeds = index.select(3).seeds
        assert index.marginal_gain(seeds, seeds[0]) == 0.0

    def test_out_of_range_rejected(self, index):
        with pytest.raises(ValueError):
            index.spread([10_000])
        with pytest.raises(ValueError):
            index.marginal_gain([0], 10_000)

    @pytest.mark.parametrize("query", [
        lambda index: index.spread([10**6]),
        lambda index: index.coverage_fraction([-3]),
        lambda index: index.coverage_count([10**6]),
        lambda index: index.marginal_gain([10**6], 3),
        lambda index: index.marginal_gain([3], 10**6),
    ], ids=["spread", "coverage_fraction", "coverage_count",
            "marginal_gain_seed", "marginal_gain_candidate"])
    def test_out_of_range_rejected_on_empty_sketch(self, wc_graph, query):
        """Regression: an empty sketch answered 0.0 instead of checking ids."""
        with pytest.raises(ValueError, match="out of range"):
            query(SketchIndex(graph=wc_graph))


class TestWarmExtension:
    def test_ensure_theta_appends_only_shortfall(self, index):
        before = index.num_sets
        added = index.ensure_theta(before + 300, rng=1)
        assert added == 300
        assert index.num_sets == before + 300
        assert index.ensure_theta(10, rng=1) == 0  # already satisfied

    def test_extension_invalidates_selection(self, index, wc_graph):
        index.select(5)
        index.ensure_theta(index.num_sets + 200, rng=2)
        fresh = greedy_max_coverage(index.collection, wc_graph.n, 5)
        assert index.select(5).seeds == fresh.seeds

    def test_ensure_theta_samples_without_stale_postings(self, index):
        # The postings and greedy state of the old sets are dropped before
        # the batch is drawn, not held beside it until extend_flat.
        index.select(5)
        assert index._inv_sets is not None
        sampler = index.sampler()
        seen = []

        class Spy:
            def sample_random_batch(self, count, rng):
                seen.append((index._inv_ptr, index._inv_sets, index._kernel))
                return sampler.sample_random_batch(count, rng)

        index._sampler = Spy()
        assert index.ensure_theta(index.num_sets + 50, rng=4) == 50
        assert seen == [(None, None, None)]

    def test_first_batch_is_adopted_uncopied(self, wc_graph):
        index = SketchIndex(graph=wc_graph, model="IC")
        batches = []
        sampler = index.sampler()

        class Keep:
            def sample_random_batch(self, count, rng):
                batches.append(sampler.sample_random_batch(count, rng))
                return batches[-1]

        index._sampler = Keep()
        index.ensure_theta(400, rng=5)
        assert np.shares_memory(index.collection.nodes_array, batches[0].nodes_array)

    def test_grown_sketch_persists(self, index, wc_graph, tmp_path):
        index.ensure_theta(index.num_sets + 100, rng=3)
        path = tmp_path / "grown.npz"
        index.save(path)
        reloaded = SketchIndex.load(path, graph=wc_graph)
        assert reloaded.num_sets == index.num_sets
        assert reloaded.select(4).seeds == index.select(4).seeds

    def test_ensure_epsilon_grows_for_tighter_epsilon(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", k=5, epsilon=0.8, rng=11)
        loose = index.num_sets
        added = index.ensure_epsilon(5, epsilon=0.4, rng=12)
        assert added > 0
        assert index.num_sets == loose + added

    def test_ensure_epsilon_records_tightest_epsilon_on_noop(self, wc_graph):
        """Regression: a no-op tighter-ε request must still update meta.

        Pre-grow the sketch past θ(0.5) by hand so the ensure_epsilon call
        adds zero sets — the certification metadata has to record ε=0.5
        anyway, or persisted sketches under-report what they satisfy.
        """
        from repro.core.parameters import (
            adjusted_ell_tim,
            lambda_param,
            theta_from_kpt,
        )

        index = SketchIndex.build(wc_graph, "IC", k=5, epsilon=0.8, rng=11)
        assert index.meta["epsilon"] == 0.8
        kpt_star = index.meta["kpt_star"]
        ell_adjusted = adjusted_ell_tim(1.0, wc_graph.n)
        theta_tight = theta_from_kpt(
            lambda_param(wc_graph.n, 5, 0.5, ell_adjusted), kpt_star)
        index.ensure_theta(theta_tight, rng=1)
        added = index.ensure_epsilon(5, epsilon=0.5, rng=2)
        assert added == 0
        assert index.meta["epsilon"] == 0.5

    def test_ensure_epsilon_never_loosens_certification(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", k=5, epsilon=0.8, rng=11)
        index.ensure_epsilon(5, epsilon=0.4, rng=12)
        assert index.meta["epsilon"] == 0.4
        # A looser request is a no-op and must not regress the record.
        index.ensure_epsilon(5, epsilon=0.7, rng=13)
        assert index.meta["epsilon"] == 0.4

    def test_recorded_epsilon_survives_save_load(self, wc_graph, tmp_path):
        from repro.core.parameters import (
            adjusted_ell_tim,
            lambda_param,
            theta_from_kpt,
        )

        index = SketchIndex.build(wc_graph, "IC", k=5, epsilon=0.8, rng=11)
        kpt_star = index.meta["kpt_star"]
        theta_tight = theta_from_kpt(
            lambda_param(wc_graph.n, 5, 0.5, adjusted_ell_tim(1.0, wc_graph.n)),
            kpt_star)
        index.ensure_theta(theta_tight, rng=1)
        assert index.ensure_epsilon(5, epsilon=0.5, rng=2) == 0
        path = tmp_path / "certified.npz"
        index.save(path)
        reloaded = SketchIndex.load(path, graph=wc_graph)
        assert reloaded.meta["epsilon"] == 0.5


class TestPersistedIndex:
    def test_load_validates_graph(self, index, wc_graph, tmp_path):
        path = tmp_path / "sketch.npz"
        index.save(path)
        other = weighted_cascade(gnm_random_digraph(120, 480, rng=22))
        with pytest.raises(SketchGraphMismatchError):
            SketchIndex.load(path, graph=other)

    def test_load_without_graph_serves_reads(self, index, tmp_path):
        path = tmp_path / "sketch.npz"
        index.save(path)
        readonly = SketchIndex.load(path)
        assert readonly.select(3).seeds == index.select(3).seeds
        with pytest.raises(ValueError, match="no graph"):
            readonly.ensure_theta(readonly.num_sets + 1, rng=0)

    def test_mmap_load_selects_identically(self, index, wc_graph, tmp_path):
        path = tmp_path / "sketch.npz"
        index.save(path)
        mapped = SketchIndex.load(path, graph=wc_graph, mmap=True)
        assert isinstance(mapped.collection.nodes_array, np.memmap)
        assert mapped.select(7).seeds == index.select(7).seeds


class TestTimThroughIndex:
    def test_capture_run_matches_cold_run(self, wc_graph):
        cold = tim(wc_graph, 5, epsilon=0.6, rng=42)
        index = SketchIndex(graph=wc_graph, model="IC")
        captured = tim(wc_graph, 5, epsilon=0.6, rng=42, index=index)
        assert captured.seeds == cold.seeds
        assert captured.theta == cold.theta
        assert len(index.collection) >= cold.theta

    def test_warm_run_reuses_sketch_and_kpt(self, wc_graph):
        index = SketchIndex(graph=wc_graph, model="IC")
        first = tim(wc_graph, 5, epsilon=0.6, rng=42, index=index)
        warm = tim(wc_graph, 5, epsilon=0.6, rng=43, index=index)
        assert warm.extras["kpt_cache_hit"]
        assert warm.rr_sets_per_phase["parameter_estimation"] == 0
        assert warm.rr_sets_per_phase["node_selection"] == 0  # sketch already >= theta
        assert warm.seeds == first.seeds  # same collection, same greedy

    def test_build_derives_theta_like_tim(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", k=5, epsilon=0.6, ell=1.0, rng=9)
        assert index.num_sets >= 1
        assert index.meta["epsilon"] == 0.6
        assert index.meta["k"] == 5
        assert "kpt_star" in index.meta

    def test_model_mismatch_rejected(self, wc_graph, tmp_path):
        index = SketchIndex.build(wc_graph, "IC", theta=10, rng=0)
        path = tmp_path / "ic.npz"
        index.save(path)
        with pytest.raises(ValueError, match="model"):
            SketchIndex.load(path, graph=None, model="LT")


class TestKptCacheKeying:
    def test_ensure_epsilon_kpt_is_keyed_by_k(self, wc_graph):
        """KPT* is k-dependent; a cached value for one k must not price another."""
        index = SketchIndex.build(wc_graph, "IC", k=10, epsilon=0.8, rng=11)
        index.ensure_epsilon(2, epsilon=0.8, rng=12)
        by_k = {k: pricing.kpt_star for (_, k, _), pricing in index.priced.items()}
        assert set(by_k) == {10, 2}
        # KPT is non-decreasing in k (Equation 7).
        assert by_k[10] >= by_k[2]
