"""Distributional equivalence of the batched RR samplers and the oracle.

``sample_batch`` consumes random numbers in its own order, so set-for-set
equality with the one-set-at-a-time oracle (``tests/rrset/sampler_oracle.py``)
is impossible; what must hold is that both draw from the *same
distribution*.  These tests pin that down with Monte-Carlo estimates under
fixed seeds: marginal node-inclusion frequencies, mean sizes, widths, κ and
trace lengths, and the KPT and spread figures the algorithms report must
agree with estimates over oracle RR sets within sampling tolerance, and each
path must be exactly deterministic given its seed.
"""

import warnings

import numpy as np
import pytest

from repro.core import estimate_kpt, node_selection, tim, tim_plus
from repro.diffusion import ICTriggering, TriggeringModel
from repro.graphs import (
    DiGraph,
    gnm_random_digraph,
    star_digraph,
    uniform_random_lt,
    weighted_cascade,
)
from repro.rrset import make_rr_sampler
from repro.rrset.ic_sampler import ICRRSampler
from repro.rrset.lt_sampler import LTRRSampler
from repro.utils.rng import RandomSource
from tests.rrset.sampler_oracle import (
    assert_same_distribution,
    assert_same_inclusion,
    assert_same_means,
    oracle_batch,
)

NUM_SAMPLES = 12_000


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(300, 1800, rng=42))


@pytest.fixture(scope="module")
def lt_graph():
    return uniform_random_lt(gnm_random_digraph(300, 1800, rng=42), rng=43)


@pytest.fixture(scope="module")
def wc_oracle(wc_graph):
    return oracle_batch(wc_graph, "IC", NUM_SAMPLES, seed=7)


@pytest.fixture(scope="module")
def oracles(wc_graph, wc_oracle, lt_graph):
    """Oracle collections per sampler configuration, with their graph."""
    return {
        "ic": (wc_graph, wc_oracle),
        "ic-depth2": (wc_graph, oracle_batch(wc_graph, "IC", 8000, seed=16, max_depth=2)),
        "lt": (lt_graph, oracle_batch(lt_graph, "LT", NUM_SAMPLES, seed=19)),
    }


#: Per configuration: the sampler, and the absolute inclusion-rate floor
#: added to 5σ for the rarely-included nodes.
SAMPLERS = {
    "ic": (lambda g, traced: ICRRSampler(g, trace_edges=traced), 5e-3),
    "ic-depth2": (lambda g, traced: ICRRSampler(g, max_depth=2, trace_edges=traced), 8e-3),
    "lt": (lambda g, traced: LTRRSampler(g, trace_edges=traced), 8e-3),
}


def _with_node_probs(base, node_p, edge_p):
    """``base`` whose in-edges into ``v`` all get ``node_p[v]``, or keep
    their own ``edge_p`` where ``node_p[v]`` is NaN."""
    probs = node_p[base.dst]
    return base.with_probabilities(np.where(np.isnan(probs), edge_p, probs))


def _branch_case(case):
    """A graph and roots whose waves reach one expansion branch of ``ICRRSampler``."""
    rng = np.random.default_rng(31)
    if case == "hub":
        # Constant p, every set rooted at a hub of 1,100 in-edges: about 88
        # successes, far past GAP_ROUNDS, so the rest of its slice is
        # flipped coin by coin.
        base = gnm_random_digraph(1200, 3600, rng=31)
        pairs = set(zip(base.src.tolist(), base.dst.tolist()))
        pairs |= {(v, 0) for v in range(1, 1101)} | {(0, v) for v in range(1, 401)}
        src, dst = zip(*sorted(pairs))
        return DiGraph(1200, src, dst, np.full(len(src), 0.08)), np.zeros(4000, int)
    base = gnm_random_digraph(300, 1200, rng=31)
    draw = rng.random(base.n)
    with np.errstate(divide="ignore"):
        wc = 1.0 / base.in_degrees()
    if case == "p-one":
        # Every in-edge of a tenth of the nodes is live: gaps of 0.
        node_p = np.where(draw < 0.1, 1.0, 0.1)
    elif case == "p-zero":
        # A third of the nodes share p = 0, so no coin of theirs is drawn.
        node_p = np.where(draw < 0.3, 0.0, wc)
    else:
        # "mixed-wave": half the nodes share 1/indeg, half mix their own.
        node_p = np.where(draw < 0.5, wc, np.nan)
    graph = _with_node_probs(base, node_p, rng.uniform(0.02, 0.4, size=base.m))
    return graph, rng.integers(0, base.n, size=BRANCH_SETS)


BRANCH_CASES = ["hub", "p-one", "p-zero", "mixed-wave"]
BRANCH_SETS = 6000


@pytest.fixture(scope="module")
def branch_oracles():
    """Per (case, max_depth): graph, roots and the oracle's sets, built once."""
    made = {}

    def get(case, max_depth):
        if (case, max_depth) not in made:
            graph, roots = _branch_case(case)
            made[case, max_depth] = (graph, roots, oracle_batch(
                graph, "IC", roots.size, seed=33, max_depth=max_depth, roots=roots))
        return made[case, max_depth]
    return get


class TestSamplerEquivalence:
    def test_batch_deterministic_given_seed(self, wc_graph):
        sampler = make_rr_sampler(wc_graph, "IC")
        roots = RandomSource(0).np.integers(0, wc_graph.n, size=500)
        a = sampler.sample_batch(roots, RandomSource(1))
        b = sampler.sample_batch(roots, RandomSource(1))
        assert np.array_equal(a.ptr_array, b.ptr_array)
        assert np.array_equal(a.nodes_array, b.nodes_array)
        assert np.array_equal(a.widths_array, b.widths_array)

    def test_mean_kappa_matches(self, wc_graph, wc_oracle):
        sampler = make_rr_sampler(wc_graph, "IC")
        batch = sampler.sample_random_batch(NUM_SAMPLES, RandomSource(10))
        for k in (1, 5, 20):
            assert batch.mean_kappa(k) == pytest.approx(
                wc_oracle.mean_kappa(k), rel=0.05, abs=5e-4)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("config", sorted(SAMPLERS))
    def test_sampler_matches_oracle(self, oracles, config, traced):
        """Every model's batch path, traced or not, draws the oracle's sets:
        per-node inclusion rates, mean size and mean width (with
        ``max_depth`` truncation for ic-depth2).

        A traced batch must also record as many live edges per set as the
        oracle's traces do: every successful coin (IC), every pick (LT).
        """
        graph, oracle = oracles[config]
        make, floor = SAMPLERS[config]
        batch = make(graph, traced).sample_random_batch(len(oracle), RandomSource(20))
        assert_same_distribution(batch, oracle, floor=floor)
        assert batch.has_traces == traced
        if traced:
            assert np.diff(batch.trace_ptr_array).mean() == pytest.approx(
                np.diff(oracle.trace_ptr_array).mean(), rel=0.05)

    @pytest.mark.parametrize("max_depth", [None, 2], ids=["unbounded", "depth2"])
    @pytest.mark.parametrize("case", BRANCH_CASES)
    def test_expansion_branch_matches_oracle(self, branch_oracles, case, max_depth):
        """Each way a wave expands a node draws the oracle's sets: geometric
        gaps with the per-edge fallback (a constant-p hub), p = 1 and p = 0
        shared in-probabilities, and waves mixing gap and per-edge nodes,
        with and without ``max_depth``.  Traced, each set records as many
        live edges as the oracle's."""
        graph, roots, oracle = branch_oracles(case, max_depth)
        sampler = ICRRSampler(graph, max_depth=max_depth, trace_edges=True)
        batch = sampler.sample_batch(roots, RandomSource(34))
        assert_same_inclusion(batch, oracle, floor=1e-2)
        assert_same_means(batch.set_sizes(), oracle.set_sizes())
        assert_same_means(batch.widths_array, oracle.widths_array)
        assert_same_means(np.diff(batch.trace_ptr_array), np.diff(oracle.trace_ptr_array))

    def test_mixed_probability_graph(self):
        """Non-uniform in-probabilities exercise the per-edge flip path."""
        rng = np.random.default_rng(13)
        base = gnm_random_digraph(200, 1200, rng=13)
        graph = base.with_probabilities(rng.uniform(0.02, 0.4, size=base.m))
        sampler = make_rr_sampler(graph, "IC")
        batch = sampler.sample_random_batch(8000, RandomSource(15))
        assert_same_distribution(batch, oracle_batch(graph, "IC", 8000, seed=14), floor=8e-3)

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
    def test_kpt_estimates_agree(self, wc_graph, wc_oracle):
        sampler = make_rr_sampler(wc_graph, "IC")
        vec = estimate_kpt(wc_graph, 5, sampler, rng=20)
        # Algorithm 2 returns n·mean κ / 2 once its threshold test fires.
        oracle_kpt = wc_graph.n * wc_oracle.mean_kappa(5) / 2
        assert vec.kpt_star == pytest.approx(oracle_kpt, rel=0.35)
        assert len(vec.last_iteration_sets) > 0

    def test_node_selection_spread_agrees(self, wc_graph, wc_oracle):
        sampler = make_rr_sampler(wc_graph, "IC")
        vec = node_selection(wc_graph, 5, theta=3000, sampler=sampler, rng=22)
        assert vec.estimated_spread == pytest.approx(
            wc_oracle.estimate_spread(vec.seeds), rel=0.1)

    def test_tim_spread_agrees_with_oracle_estimate(self, wc_graph, wc_oracle):
        vec = tim(wc_graph, 5, epsilon=0.5, rng=24)
        assert vec.estimated_spread == pytest.approx(
            wc_oracle.estimate_spread(vec.seeds), rel=0.1)

    def test_tim_plus_spread_agrees_with_oracle_estimate(self, wc_graph, wc_oracle):
        vec = tim_plus(wc_graph, 4, epsilon=0.5, rng=25)
        assert vec.estimated_spread == pytest.approx(
            wc_oracle.estimate_spread(vec.seeds), rel=0.1)

    def test_finds_the_obvious_seed(self):
        g = star_digraph(40, prob=1.0, outward=True)
        assert tim(g, 1, epsilon=0.5, rng=26).seeds == [0]

    def test_triggering_model_samples_without_warning(self):
        """The triggering sampler's own per-root sample_batch runs silently."""
        g = weighted_cascade(gnm_random_digraph(80, 400, rng=30))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = tim(g, 3, epsilon=0.5, model=TriggeringModel(ICTriggering(g)), rng=32)
        assert len(result.seeds) == 3
