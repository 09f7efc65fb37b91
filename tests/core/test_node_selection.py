"""Tests for Algorithm 1 (NodeSelection)."""

import pytest

from repro.core import node_selection
from repro.graphs import path_digraph, star_digraph
from repro.rrset import make_rr_sampler
from repro.sketch import SketchIndex


class TestSelection:
    def test_star_hub_selected_first(self):
        g = star_digraph(20, prob=1.0, outward=True)
        sampler = make_rr_sampler(g, "IC")
        result = node_selection(g, 1, theta=200, sampler=sampler, rng=1)
        assert result.seeds == [0]

    def test_seed_count_and_distinctness(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        result = node_selection(small_wc_graph, 7, theta=500, sampler=sampler, rng=2)
        assert len(result.seeds) == 7
        assert len(set(result.seeds)) == 7

    def test_estimated_spread_formula(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        result = node_selection(small_wc_graph, 3, theta=400, sampler=sampler, rng=3)
        assert result.estimated_spread == pytest.approx(
            small_wc_graph.n * result.coverage_fraction
        )

    def test_theta_respected(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        result = node_selection(small_wc_graph, 3, theta=123, sampler=sampler, rng=4)
        assert result.num_rr_sets == 123
        assert len(result.collection) == 123

    def test_deterministic_given_seed(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        a = node_selection(small_wc_graph, 3, theta=300, sampler=sampler, rng=5)
        b = node_selection(small_wc_graph, 3, theta=300, sampler=sampler, rng=5)
        assert a.seeds == b.seeds

    def test_prefilled_index_reused(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        index = SketchIndex.build(small_wc_graph, "IC", theta=50, rng=7)
        try:
            held = index.collection
            result = node_selection(
                small_wc_graph, 3, theta=50, sampler=sampler, rng=8, index=index
            )
            assert result.collection is held
            assert result.num_rr_sets == 50  # nothing new sampled
        finally:
            index.close()

    def test_prefilled_index_topped_up(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        index = SketchIndex.build(small_wc_graph, "IC", theta=10, rng=9)
        try:
            result = node_selection(
                small_wc_graph, 3, theta=60, sampler=sampler, rng=10, index=index
            )
            assert result.num_rr_sets == 60
            assert len(index.collection) == 60
        finally:
            index.close()


class TestQuality:
    def test_beats_worst_singleton_on_path(self):
        # On a p=1 path, node 0 covers every RR set; selection must find it.
        g = path_digraph(10, prob=1.0)
        sampler = make_rr_sampler(g, "IC")
        result = node_selection(g, 1, theta=300, sampler=sampler, rng=11)
        assert result.seeds == [0]
        assert result.coverage_fraction == 1.0


class TestValidation:
    def test_rejects_bad_theta(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        with pytest.raises(ValueError):
            node_selection(small_wc_graph, 3, theta=0, sampler=sampler)
