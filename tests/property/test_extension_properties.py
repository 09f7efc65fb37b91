"""Property-based tests for the extension features (bounded IC, weighted IM)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weighted import WeightedRootSampler
from repro.graphs import from_edges
from repro.rrset import ICRRSampler, make_rr_sampler
from repro.utils.rng import RandomSource


@st.composite
def probabilistic_graphs(draw, max_nodes=9):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pair_space = [(u, v) for u in range(n) for v in range(n) if u != v]
    count = draw(st.integers(min_value=1, max_value=min(20, len(pair_space))))
    pairs = draw(st.permutations(pair_space).map(lambda p: p[:count]))
    probs = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    return n, [(u, v, p) for (u, v), p in zip(pairs, probs)]


class TestBoundedRRProperties:
    @given(
        probabilistic_graphs(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_subset_of_unbounded_superset(self, data, horizon, seed):
        """A depth-T RR set must sit inside the deterministic depth-T reverse
        ball of its root, and contain the root."""
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        sampler = ICRRSampler(g, max_depth=horizon)
        [rr] = sampler.sample_random_batch(1, RandomSource(seed)).to_rrsets()
        assert rr.root in rr.nodes
        # Depth-limited reverse reachability (all edges assumed live).
        from collections import deque

        in_adj, _ = g.in_adjacency()
        ball = {rr.root}
        queue = deque([(rr.root, 0)])
        while queue:
            node, depth = queue.popleft()
            if depth >= horizon:
                continue
            for source_node in in_adj[node]:
                if source_node not in ball:
                    ball.add(source_node)
                    queue.append((source_node, depth + 1))
        assert set(rr.nodes) <= ball

    @given(probabilistic_graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_growing_horizon_in_expectation(self, data, seed):
        """Larger horizons cannot shrink the RR-set size distribution.

        Checked in (sampled) expectation: mean size at T=1 <= mean at T=3,
        with slack for Monte-Carlo noise on 300 draws.
        """
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        short_sampler = ICRRSampler(g, max_depth=1)
        long_sampler = ICRRSampler(g, max_depth=3)
        runs = 300
        short_mean = short_sampler.sample_random_batch(runs, RandomSource(seed)).set_sizes().mean()
        long_mean = long_sampler.sample_random_batch(runs, RandomSource(seed)).set_sizes().mean()
        assert long_mean >= short_mean - 0.5


class TestWeightedSamplerProperties:
    @given(
        probabilistic_graphs(),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_weight_node_never_roots(self, data, seed, zero_node):
        n, edges = data
        if zero_node >= n:
            zero_node = 0
        g = from_edges(edges, num_nodes=n)
        weights = np.ones(n)
        weights[zero_node] = 0.0
        if weights.sum() == 0.0:
            return
        sampler = WeightedRootSampler(make_rr_sampler(g, "IC"), weights)
        roots = sampler.sample_random_batch(100, RandomSource(seed)).roots_array
        assert not (roots == zero_node).any()

    @given(probabilistic_graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weights_keep_rr_invariants(self, data, seed):
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        sampler = WeightedRootSampler(make_rr_sampler(g, "IC"), np.ones(n))
        [rr] = sampler.sample_random_batch(1, RandomSource(seed)).to_rrsets()
        assert rr.root in rr.nodes
        assert len(set(rr.nodes)) == len(rr.nodes)
        assert 0 <= rr.root < n
