"""Tests for the generic triggering RR-set sampler."""

import numpy as np
import pytest

from repro.diffusion import FixedTriggering, ICTriggering, LTTriggering
from repro.graphs import gnm_random_digraph, path_digraph, weighted_cascade
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


class TestMemberOrder:
    def test_members_follow_the_queue_root_first(self, monkeypatch):
        # Each set lists its members in discovery order, root first, as the
        # IC and LT batches do: the nodes whose triggering sets the traversal
        # draws, in draw order, are exactly the members, and each member
        # after the root sits in the triggering set of a member before it.
        graph = weighted_cascade(gnm_random_digraph(300, 2000, rng=3))
        distribution = ICTriggering(graph)
        draws = []
        sample = distribution.sample

        def recording(node, rng):
            triggering_set = sample(node, rng)
            draws.append((node, set(triggering_set)))
            return triggering_set

        monkeypatch.setattr(distribution, "sample", recording)
        batch = TriggeringRRSampler(graph, distribution).sample_random_batch(
            2000, RandomSource(1))
        assert [node for node, _ in draws] == batch.nodes_array.tolist()
        drawn = iter(draws)
        for i in range(len(batch)):
            order = members(batch, i)
            assert order[0] == int(batch.roots_array[i])
            reached = [next(drawn)[1] for _ in order]
            for j in range(1, len(order)):
                assert any(order[j] in reached[h] for h in range(j)), (i, j)


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
