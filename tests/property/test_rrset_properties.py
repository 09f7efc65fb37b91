"""Property-based tests for RR-set samplers (the paper's core objects)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges
from repro.graphs.transforms import reverse_reachable_to
from repro.rrset import ICRRSampler, LTRRSampler
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import ic_rr_set


@st.composite
def weighted_graphs(draw, max_nodes=10):
    """Random digraph with per-node sub-stochastic in-weights (LT-legal)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pair_space = [(u, v) for u in range(n) for v in range(n) if u != v]
    count = draw(st.integers(min_value=1, max_value=min(25, len(pair_space))))
    pairs = draw(st.permutations(pair_space).map(lambda p: p[:count]))
    # Assign weights then normalise per in-node so LT validity holds.
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    in_sums: dict[int, float] = {}
    for (u, v), w in zip(pairs, raw):
        in_sums[v] = in_sums.get(v, 0.0) + w
    edges = [
        (u, v, w / max(in_sums[v], 1.0) if in_sums[v] > 1.0 else w)
        for (u, v), w in zip(pairs, raw)
    ]
    return n, edges


@st.composite
def coin_graphs(draw, max_nodes=12):
    """Random digraph whose coins all have probability 0 or 1.

    Each node's in-edges all share p = 0 (no coin drawn) or p = 1 (gaps of
    0, past ``GAP_ROUNDS`` into the slice fallback on in-degrees above it),
    or mix both (coin by coin).
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pair_space = [(u, v) for u in range(n) for v in range(n) if u != v]
    count = draw(st.integers(min_value=1, max_value=min(40, len(pair_space))))
    pairs = draw(st.permutations(pair_space).map(lambda p: p[:count]))
    shared = draw(st.lists(st.sampled_from([0.0, 1.0, None]), min_size=n, max_size=n))
    coins = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=count, max_size=count))
    edges = [(u, v, coin if shared[v] is None else shared[v])
             for (u, v), coin in zip(pairs, coins)]
    return n, edges


class TestICSamplerProperties:
    @given(weighted_graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data, seed):
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        sampler = ICRRSampler(g)
        [rr] = sampler.sample_random_batch(1, RandomSource(seed)).to_rrsets()
        # Root membership.
        assert rr.root in rr.nodes
        # No duplicates.
        assert len(set(rr.nodes)) == len(rr.nodes)
        # Subset of deterministic reverse reachability.
        assert set(rr.nodes) <= reverse_reachable_to(g, rr.root)
        # Width accounting (Equation 1).
        in_degrees = g.in_degrees()
        assert rr.width == int(sum(in_degrees[v] for v in rr.nodes))
        # Cost = nodes + edges examined.
        assert rr.cost == len(rr.nodes) + rr.width

    @given(coin_graphs(), st.sampled_from([None, 1, 2]), st.booleans(),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_gap_and_flip_paths_match_the_oracle(self, data, max_depth, waves_only, seed):
        """With every coin at 0 or 1 an RR set is determined by its root, so
        the batch must return the oracle's set, width and trace exactly,
        whichever way a wave expands each node."""
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        sampler = ICRRSampler(g, max_depth=max_depth, trace_edges=True)
        if waves_only:
            sampler.TAIL_CUTOVER_PAIRS = 0  # no scalar tail: every level is a wave
        roots = RandomSource(seed).np.integers(0, n, size=20)
        batch = sampler.sample_batch(roots, RandomSource(seed))
        for rr, root in zip(batch.to_rrsets(), roots.tolist()):
            expected = ic_rr_set(g, root, RandomSource(0), max_depth=max_depth)
            assert rr.nodes[0] == root
            assert len(set(rr.nodes)) == len(rr.nodes)
            assert sorted(rr.nodes) == sorted(expected.nodes)
            assert rr.width == expected.width
            assert sorted(rr.trace) == sorted(expected.trace)


class TestLTSamplerProperties:
    @given(weighted_graphs(), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data, seed):
        n, edges = data
        g = from_edges(edges, num_nodes=n)
        sampler = LTRRSampler(g)
        [rr] = sampler.sample_random_batch(1, RandomSource(seed)).to_rrsets()
        assert rr.root in rr.nodes
        assert rr.nodes[0] == rr.root
        assert len(set(rr.nodes)) == len(rr.nodes)
        # Walk property: consecutive nodes are in-neighbour hops.
        in_adj, _ = g.in_adjacency()
        nodes = list(rr.nodes)
        for i in range(len(nodes) - 1):
            assert nodes[i + 1] in in_adj[nodes[i]]
        assert set(rr.nodes) <= reverse_reachable_to(g, rr.root)
