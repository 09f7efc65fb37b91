"""Statistical verification of the paper's key lemmas on exact oracles.

All tests run at fixed seeds with tolerances wide enough to be deterministic
in practice (≥5σ), yet tight enough that a wrong implementation (e.g. biased
RR sampling) fails decisively.
"""

import pytest

from repro.analysis import (
    estimate_ept,
    exact_activation_probability_ic,
    exact_spread_ic,
    sample_indegree_weighted_node,
)
from repro.graphs import GraphBuilder, gnm_random_digraph, weighted_cascade
from repro.rrset import make_rr_sampler
from repro.utils.rng import RandomSource


@pytest.fixture
def oracle_graph():
    """8 nodes, 12 random-probability edges — enumerable exactly."""
    builder = GraphBuilder(num_nodes=8)
    edges = [
        (0, 1, 0.5),
        (1, 2, 0.4),
        (2, 3, 0.6),
        (0, 4, 0.3),
        (4, 5, 0.7),
        (5, 1, 0.2),
        (3, 6, 0.5),
        (6, 7, 0.8),
        (7, 0, 0.1),
        (2, 5, 0.3),
        (4, 2, 0.4),
        (1, 6, 0.25),
    ]
    builder.add_edges_from(edges)
    return builder.build()


class TestLemma2:
    """RR-set overlap probability == activation probability."""

    @pytest.mark.parametrize("target,seeds", [(3, [0]), (6, [0, 4]), (1, [5]), (7, [2])])
    def test_overlap_equals_activation(self, oracle_graph, target, seeds):
        exact_rho2 = exact_activation_probability_ic(oracle_graph, seeds, target)
        sampler = make_rr_sampler(oracle_graph, "IC")
        runs = 8000
        batch = sampler.sample_batch([target] * runs, RandomSource(1000 + target))
        rho1 = batch.coverage_count(seeds) / runs
        assert rho1 == pytest.approx(exact_rho2, abs=0.03)


class TestCorollary1:
    """E[n · F_R(S)] == E[I(S)]."""

    @pytest.mark.parametrize("seeds", [[0], [0, 2], [1, 4, 7]])
    def test_rr_spread_estimator_unbiased(self, oracle_graph, seeds):
        exact = exact_spread_ic(oracle_graph, seeds)
        sampler = make_rr_sampler(oracle_graph, "IC")
        collection = sampler.sample_random_batch(20000, RandomSource(7))
        estimate = collection.estimate_spread(seeds)
        assert estimate == pytest.approx(exact, abs=0.15)


class TestLemma4:
    """(n/m) · EPT == E[I({v*})] with v* in-degree weighted."""

    def test_identity_on_wc_graph(self):
        graph = weighted_cascade(gnm_random_digraph(40, 160, rng=11))
        sampler = make_rr_sampler(graph, "IC")
        rng = RandomSource(12)
        ept = estimate_ept(sampler, num_samples=12000, rng=rng)
        lhs = graph.n / graph.m * ept

        # Right side: two-level MC over v* and the propagation process.
        from repro.diffusion import simulate_ic

        rng2 = RandomSource(13)
        runs = 12000
        total = 0
        for _ in range(runs):
            v_star = sample_indegree_weighted_node(graph, rng2)
            total += len(simulate_ic(graph, [v_star], rng2))
        rhs = total / runs
        assert lhs == pytest.approx(rhs, rel=0.08)


class TestLemma3Empirically:
    """With θ from Equation 2, n·F_R(S) lands within (ε/2)·OPT of E[I(S)]."""

    def test_estimator_within_band(self, oracle_graph):
        from repro.analysis import brute_force_opt
        from repro.core.parameters import lambda_param, theta_from_kpt

        k, epsilon, ell = 2, 0.5, 1.0
        _, opt = brute_force_opt(oracle_graph, k, "IC")
        theta = theta_from_kpt(lambda_param(oracle_graph.n, k, epsilon, ell), opt)
        sampler = make_rr_sampler(oracle_graph, "IC")
        collection = sampler.sample_random_batch(theta, RandomSource(21))
        # Check the band for a handful of seed sets, as Lemma 3 promises
        # for every set simultaneously whp.
        for seeds in ([0, 1], [2, 3], [4, 7], [0, 6]):
            estimate = collection.estimate_spread(seeds)
            exact = exact_spread_ic(oracle_graph, seeds)
            assert abs(estimate - exact) < epsilon / 2 * opt
