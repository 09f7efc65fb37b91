"""Tests for the RR-set interface and sampler dispatch."""

import warnings

import pytest

from repro.diffusion import ICTriggering, TriggeringModel
from repro.rrset import ICRRSampler, LTRRSampler, RRSet, TriggeringRRSampler, make_rr_sampler
from repro.utils.rng import RandomSource


class TestRRSet:
    def test_container_protocol(self):
        rr = RRSet(root=1, nodes=(1, 3, 5), width=4, cost=7)
        assert len(rr) == 3
        assert 3 in rr
        assert 2 not in rr
        assert list(rr) == [1, 3, 5]

    def test_frozen(self):
        rr = RRSet(root=1, nodes=(1,), width=0, cost=1)
        with pytest.raises(AttributeError):
            rr.root = 2


class TestDispatch:
    def test_ic_by_name(self, small_wc_graph):
        assert isinstance(make_rr_sampler(small_wc_graph, "IC"), ICRRSampler)

    def test_lt_by_name(self, small_lt_graph):
        assert isinstance(make_rr_sampler(small_lt_graph, "LT"), LTRRSampler)

    def test_triggering_instance(self, small_wc_graph):
        model = TriggeringModel(ICTriggering(small_wc_graph))
        sampler = make_rr_sampler(small_wc_graph, model)
        assert isinstance(sampler, TriggeringRRSampler)

    def test_lt_validates_weights(self, small_wc_graph):
        # WC weights sum to 1 per node, so they are legal LT weights too.
        assert isinstance(make_rr_sampler(small_wc_graph, "LT"), LTRRSampler)

    def test_unknown_model_rejected(self, small_wc_graph):
        with pytest.raises(ValueError):
            make_rr_sampler(small_wc_graph, "bogus")


class TestUniformRootSampling:
    def test_roots_cover_graph(self, small_wc_graph):
        sampler = make_rr_sampler(small_wc_graph, "IC")
        roots = set(sampler.sample_random_batch(600, RandomSource(1)).roots_array.tolist())
        # 600 uniform draws over 60 nodes should hit nearly all of them.
        assert len(roots) > 50

    def test_width_of_helper(self, small_wc_graph):
        sampler = make_rr_sampler(
            small_wc_graph, TriggeringModel(ICTriggering(small_wc_graph)))
        in_degrees = small_wc_graph.in_degrees()
        assert sampler.width_of([0, 1]) == int(in_degrees[0] + in_degrees[1])


class TestSampleBatchIsTheSamplingPath:
    def test_sampler_without_sample_batch_is_abstract(self, small_wc_graph):
        from repro.rrset.base import RRSampler

        class Unfinished(RRSampler):
            model_name = "unfinished"

        with pytest.raises(TypeError, match="sample_batch"):
            Unfinished(small_wc_graph)

    def test_no_sampler_warns(self, small_wc_graph):
        triggering = TriggeringModel(ICTriggering(small_wc_graph))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_rr_sampler(small_wc_graph, "IC").sample_batch([0, 1], RandomSource(3))
            make_rr_sampler(small_wc_graph, "LT").sample_batch([0, 1], RandomSource(4))
            make_rr_sampler(small_wc_graph, triggering).sample_batch([0, 1], RandomSource(5))
