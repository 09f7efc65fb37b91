"""Tests for the generic triggering RR-set sampler."""

import numpy as np
import pytest

from repro.diffusion import FixedTriggering, ICTriggering, LTTriggering
from repro.graphs import path_digraph
from repro.rrset import ICRRSampler, LTRRSampler, TriggeringRRSampler
from repro.utils.rng import RandomSource


def members(batch, i):
    return batch.nodes_array[batch.ptr_array[i] : batch.ptr_array[i + 1]].tolist()


class TestFixedDistribution:
    def test_follows_fixed_sets(self):
        g = path_digraph(4, prob=0.5)
        dist = FixedTriggering(g, {3: [2], 2: [1], 1: []})
        batch = TriggeringRRSampler(g, dist).sample_batch([3], RandomSource(1))
        assert set(members(batch, 0)) == {1, 2, 3}

    def test_empty_everything(self):
        g = path_digraph(4, prob=0.5)
        dist = FixedTriggering(g, {})
        batch = TriggeringRRSampler(g, dist).sample_batch([2], RandomSource(1))
        assert members(batch, 0) == [2]


class TestEquivalenceWithSpecialisedSamplers:
    def test_matches_ic_sampler_distribution(self, small_wc_graph):
        generic = TriggeringRRSampler(small_wc_graph, ICTriggering(small_wc_graph))
        special = ICRRSampler(small_wc_graph)
        roots = np.zeros(3000, dtype=np.int64)
        generic_mean = generic.sample_batch(roots, RandomSource(1)).set_sizes().mean()
        special_mean = special.sample_batch(roots, RandomSource(10_000)).set_sizes().mean()
        assert generic_mean == pytest.approx(special_mean, rel=0.12, abs=0.15)

    def test_matches_lt_sampler_distribution(self, small_lt_graph):
        generic = TriggeringRRSampler(small_lt_graph, LTTriggering(small_lt_graph))
        special = LTRRSampler(small_lt_graph)
        roots = np.zeros(3000, dtype=np.int64)
        generic_mean = generic.sample_batch(roots, RandomSource(1)).set_sizes().mean()
        special_mean = special.sample_batch(roots, RandomSource(10_000)).set_sizes().mean()
        assert generic_mean == pytest.approx(special_mean, rel=0.12, abs=0.15)


class TestValidation:
    def test_rejects_foreign_graph(self):
        g1 = path_digraph(3)
        g2 = path_digraph(3)
        with pytest.raises(ValueError, match="different graph"):
            TriggeringRRSampler(g2, ICTriggering(g1))

    def test_width_accounting(self, small_wc_graph):
        sampler = TriggeringRRSampler(small_wc_graph, ICTriggering(small_wc_graph))
        batch = sampler.sample_random_batch(30, RandomSource(5))
        in_degrees = small_wc_graph.in_degrees()
        for i in range(len(batch)):
            assert batch.widths_array[i] == int(in_degrees[members(batch, i)].sum())
