"""Tests for the time-critical (bounded-horizon) IC model."""

import pytest

from repro.analysis import exact_spread_ic
from repro.diffusion import BoundedIndependentCascade, simulate_bounded_ic, simulate_ic
from repro.graphs import path_digraph, star_digraph
from repro.utils.rng import RandomSource


class TestSimulation:
    def test_horizon_limits_chain(self):
        g = path_digraph(6, prob=1.0)
        assert simulate_bounded_ic(g, [0], max_steps=2, rng=1) == {0, 1, 2}

    def test_horizon_one_is_direct_neighbours(self):
        g = star_digraph(5, prob=1.0, outward=True)
        assert simulate_bounded_ic(g, [0], max_steps=1, rng=1) == {0, 1, 2, 3, 4}
        g2 = path_digraph(4, prob=1.0)
        assert simulate_bounded_ic(g2, [0], max_steps=1, rng=1) == {0, 1}

    def test_large_horizon_equals_plain_ic(self):
        g = path_digraph(5, prob=1.0)
        bounded = simulate_bounded_ic(g, [0], max_steps=50, rng=2)
        plain = simulate_ic(g, [0], rng=3)
        assert bounded == plain

    def test_monotone_in_horizon_statistically(self):
        g = path_digraph(5, prob=0.7)
        rng = RandomSource(4)
        short = sum(len(simulate_bounded_ic(g, [0], 1, rng)) for _ in range(2000)) / 2000
        rng = RandomSource(4)
        long = sum(len(simulate_bounded_ic(g, [0], 3, rng)) for _ in range(2000)) / 2000
        assert long >= short

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            simulate_bounded_ic(path_digraph(3), [0], max_steps=0)


class TestModelClass:
    def test_name_and_repr(self):
        model = BoundedIndependentCascade(3)
        assert model.name == "bounded-IC"
        assert "3" in repr(model)

    def test_simulate_delegates(self):
        g = path_digraph(4, prob=1.0)
        model = BoundedIndependentCascade(2)
        assert model.simulate(g, [0], RandomSource(1)) == {0, 1, 2}


class TestExactOracleBounded:
    def test_exact_bounded_chain(self):
        g = path_digraph(4, prob=0.5)
        # Within 2 hops: 1 + 0.5 + 0.25 (node 3 at hop 3 excluded).
        assert exact_spread_ic(g, [0], max_steps=2) == pytest.approx(1.75)

    def test_exact_bounded_matches_mc(self):
        g = path_digraph(5, prob=0.6)
        exact = exact_spread_ic(g, [0], max_steps=2)
        rng = RandomSource(5)
        runs = 20000
        mc = sum(len(simulate_bounded_ic(g, [0], 2, rng)) for _ in range(runs)) / runs
        assert mc == pytest.approx(exact, abs=0.03)


class TestBoundedRRSets:
    def test_sampler_dispatch(self, small_wc_graph):
        from repro.rrset import ICRRSampler, make_rr_sampler

        sampler = make_rr_sampler(small_wc_graph, BoundedIndependentCascade(2))
        assert isinstance(sampler, ICRRSampler)
        assert sampler.max_depth == 2

    def test_depth_one_rr_sets_are_in_neighbourhoods(self, small_wc_graph):
        from repro.rrset import ICRRSampler

        sampler = ICRRSampler(small_wc_graph, max_depth=1)
        in_adj, _ = small_wc_graph.in_adjacency()
        for rr in sampler.sample_random_batch(50, RandomSource(6)).to_rrsets():
            allowed = set(in_adj[rr.root]) | {rr.root}
            assert set(rr.nodes) <= allowed

    def test_lemma2_analog_bounded(self):
        """RR overlap == bounded activation probability (Lemma 2/9 analog)."""
        from repro.rrset import ICRRSampler

        g = path_digraph(4, prob=0.6)
        horizon = 2
        sampler = ICRRSampler(g, max_depth=horizon)
        from repro.analysis import exact_activation_probability_ic

        target = 3
        seeds = [1]
        exact = exact_activation_probability_ic(g, seeds, target, max_steps=horizon)
        runs = 8000
        batch = sampler.sample_batch([target] * runs, RandomSource(7))
        assert batch.coverage_count(seeds) / runs == pytest.approx(exact, abs=0.03)

    def test_tim_plus_with_bounded_model(self, small_wc_graph):
        from repro.core import tim_plus

        result = tim_plus(
            small_wc_graph, 3, epsilon=0.5, model=BoundedIndependentCascade(2), rng=8
        )
        assert result.model == "bounded-IC"
        assert len(result.seeds) == 3

    def test_rejects_bad_depth(self, small_wc_graph):
        from repro.rrset import ICRRSampler

        with pytest.raises(ValueError):
            ICRRSampler(small_wc_graph, max_depth=0)
