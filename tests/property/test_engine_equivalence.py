"""Distributional equivalence of the batched and scalar RR samplers.

The batched sampler consumes random numbers in a different order than the
scalar one, so set-for-set equality is impossible; what must hold is that
both draw from the *same distribution*.  These tests pin that down with
Monte-Carlo estimates under fixed seeds: marginal node-inclusion
frequencies, mean widths / κ, and the KPT and spread figures the
algorithms report must agree with estimates from the scalar sampler within
sampling tolerance, and each path must be exactly deterministic given its
seed.
"""

import numpy as np
import pytest

from repro.core import estimate_kpt, node_selection, tim, tim_plus
from repro.graphs import gnm_random_digraph, star_digraph, weighted_cascade
from repro.rrset import make_rr_sampler
from repro.rrset.ic_sampler import ICRRSampler
from repro.utils.rng import RandomSource

NUM_SAMPLES = 12_000


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(300, 1800, rng=42))


def scalar_reference(sampler, graph, count, seed):
    rng = RandomSource(seed)
    frequencies = np.zeros(graph.n)
    widths = np.zeros(count)
    sizes = np.zeros(count)
    for i in range(count):
        rr = sampler.sample_rooted(rng.randrange(graph.n), rng)
        widths[i] = rr.width
        sizes[i] = len(rr)
        for node in rr.nodes:
            frequencies[node] += 1
    return frequencies / count, widths, sizes


def scalar_spread(sampler, graph, seeds, count, seed):
    """``n · F_R(seeds)`` over RR sets drawn one at a time by ``sampler``."""
    rng = RandomSource(seed)
    chosen = set(seeds)
    covered = 0
    for _ in range(count):
        if chosen.intersection(sampler.sample_rooted(rng.randrange(graph.n), rng).nodes):
            covered += 1
    return graph.n * covered / count


class TestSamplerEquivalence:
    def test_batch_deterministic_given_seed(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        roots = RandomSource(0).np.integers(0, wc_graph.n, size=500)
        a = sampler.sample_batch(roots, RandomSource(1))
        b = sampler.sample_batch(roots, RandomSource(1))
        assert np.array_equal(a.ptr_array, b.ptr_array)
        assert np.array_equal(a.nodes_array, b.nodes_array)
        assert np.array_equal(a.widths_array, b.widths_array)

    def test_marginal_inclusion_frequencies_match(self, wc_graph):
        """Per-node inclusion rates of both engines agree within MC noise."""
        sampler = make_rr_sampler(wc_graph, "IC")
        py_freq, py_widths, py_sizes = scalar_reference(
            sampler, wc_graph, NUM_SAMPLES, seed=7
        )
        batch = sampler.sample_random_batch(NUM_SAMPLES, RandomSource(8))
        vec_freq = batch.node_frequency_array() / NUM_SAMPLES

        # Binomial standard error per node is sqrt(p(1-p)/N); allow 5 sigma
        # plus an absolute floor for the rarely-included nodes.
        sigma = np.sqrt(np.maximum(py_freq * (1 - py_freq), 1e-4) / NUM_SAMPLES)
        assert np.all(np.abs(vec_freq - py_freq) < 5 * sigma + 5e-3)

        # Aggregate moments: mean set size and mean width within 5%.
        assert batch.set_sizes().mean() == pytest.approx(py_sizes.mean(), rel=0.05)
        assert batch.widths_array.mean() == pytest.approx(py_widths.mean(), rel=0.05)

    def test_mean_kappa_matches(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        _, py_widths, _ = scalar_reference(sampler, wc_graph, NUM_SAMPLES, seed=9)
        batch = sampler.sample_random_batch(NUM_SAMPLES, RandomSource(10))
        m = wc_graph.m
        for k in (1, 5, 20):
            py_kappa = float(np.mean(1.0 - (1.0 - py_widths / m) ** k))
            assert batch.mean_kappa(k) == pytest.approx(py_kappa, rel=0.05, abs=5e-4)

    def test_geometric_skip_on_off_equivalent(self, wc_graph):
        """Skip sampling is exact: both variants draw the same distribution."""
        on = ICRRSampler(wc_graph, use_geometric_skip=True)
        # Force the skip path to actually engage on modest frontiers.
        on.GEOMETRIC_SKIP_MIN_EDGES = 1
        off = ICRRSampler(wc_graph, use_geometric_skip=False)
        batch_on = on.sample_random_batch(NUM_SAMPLES, RandomSource(11))
        batch_off = off.sample_random_batch(NUM_SAMPLES, RandomSource(12))
        assert batch_on.set_sizes().mean() == pytest.approx(
            batch_off.set_sizes().mean(), rel=0.05
        )
        assert batch_on.widths_array.mean() == pytest.approx(
            batch_off.widths_array.mean(), rel=0.05
        )

    def test_mixed_probability_graph(self):
        """Non-uniform in-probabilities exercise the per-edge flip path."""
        rng = np.random.default_rng(13)
        base = gnm_random_digraph(200, 1200, rng=13)
        graph = base.with_probabilities(rng.uniform(0.02, 0.4, size=base.m))
        sampler = make_rr_sampler(graph, "IC")
        py_freq, py_widths, _ = scalar_reference(sampler, graph, 8000, seed=14)
        batch = sampler.sample_random_batch(8000, RandomSource(15))
        vec_freq = batch.node_frequency_array() / 8000
        sigma = np.sqrt(np.maximum(py_freq * (1 - py_freq), 1e-4) / 8000)
        assert np.all(np.abs(vec_freq - py_freq) < 5 * sigma + 8e-3)
        assert batch.widths_array.mean() == pytest.approx(py_widths.mean(), rel=0.05)

    def test_bounded_depth_equivalence(self, wc_graph):
        """max_depth truncation matches between wave BFS and scalar FIFO."""
        bounded_py = ICRRSampler(wc_graph, max_depth=2)
        py_freq, py_widths, py_sizes = scalar_reference(
            bounded_py, wc_graph, 8000, seed=16
        )
        batch = bounded_py.sample_random_batch(8000, RandomSource(17))
        assert batch.set_sizes().mean() == pytest.approx(py_sizes.mean(), rel=0.05)
        assert batch.widths_array.mean() == pytest.approx(py_widths.mean(), rel=0.05)
        vec_freq = batch.node_frequency_array() / 8000
        sigma = np.sqrt(np.maximum(py_freq * (1 - py_freq), 1e-4) / 8000)
        assert np.all(np.abs(vec_freq - py_freq) < 5 * sigma + 8e-3)

    def test_depth_one_is_direct_in_neighbors_subset(self, wc_graph):
        sampler = ICRRSampler(wc_graph, max_depth=1)
        batch = sampler.sample_random_batch(300, RandomSource(18))
        ptr, nodes = batch.ptr_array, batch.nodes_array
        for i, root in enumerate(batch.roots_array[:100]):
            members = set(nodes[ptr[i] : ptr[i + 1]].tolist())
            members.discard(int(root))
            allowed = set(wc_graph.in_neighbors(int(root)).tolist())
            assert members <= allowed


class TestAlgorithmEquivalence:
    def test_kpt_estimates_agree(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        vec = estimate_kpt(wc_graph, 5, sampler, rng=20)
        # Algorithm 2 returns n·mean κ / 2 once its threshold test fires.
        _, py_widths, _ = scalar_reference(sampler, wc_graph, NUM_SAMPLES, seed=21)
        py_kpt = wc_graph.n * float(np.mean(1.0 - (1.0 - py_widths / wc_graph.m) ** 5)) / 2
        assert vec.kpt_star == pytest.approx(py_kpt, rel=0.35)
        assert len(vec.last_iteration_sets) > 0

    def test_node_selection_spread_agrees(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        vec = node_selection(wc_graph, 5, theta=3000, sampler=sampler, rng=22)
        py = scalar_spread(sampler, wc_graph, vec.seeds, NUM_SAMPLES, seed=23)
        assert vec.estimated_spread == pytest.approx(py, rel=0.1)

    def test_tim_spread_agrees_with_scalar_estimate(self, wc_graph):
        vec = tim(wc_graph, 5, epsilon=0.5, rng=24)
        py = scalar_spread(make_rr_sampler(wc_graph, "IC"), wc_graph, vec.seeds,
                           NUM_SAMPLES, seed=24)
        assert vec.estimated_spread == pytest.approx(py, rel=0.1)

    def test_tim_plus_spread_agrees_with_scalar_estimate(self, wc_graph):
        vec = tim_plus(wc_graph, 4, epsilon=0.5, rng=25)
        py = scalar_spread(make_rr_sampler(wc_graph, "IC"), wc_graph, vec.seeds,
                           NUM_SAMPLES, seed=25)
        assert vec.estimated_spread == pytest.approx(py, rel=0.1)

    def test_finds_the_obvious_seed(self):
        g = star_digraph(40, prob=1.0, outward=True)
        assert tim(g, 1, epsilon=0.5, rng=26).seeds == [0]

    def test_python_fallback_batch_for_lt(self):
        """Samplers without a numpy path batch via the base-class loop."""
        from repro.graphs import uniform_random_lt

        g = uniform_random_lt(gnm_random_digraph(80, 400, rng=30), rng=31)
        result = tim(g, 3, epsilon=0.5, model="LT", rng=32)
        assert len(result.seeds) == 3
