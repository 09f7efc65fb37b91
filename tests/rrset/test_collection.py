"""FlatRRCollection on a hand-built collection with hand-computed answers."""

import pytest

from repro.rrset import FlatRRCollection, RRSet


def make_collection() -> FlatRRCollection:
    collection = FlatRRCollection(num_nodes=5, graph_edges=10)
    collection.append(RRSet(root=0, nodes=(0, 1), width=3, cost=5))
    collection.append(RRSet(root=2, nodes=(2,), width=1, cost=2))
    collection.append(RRSet(root=3, nodes=(3, 1, 4), width=6, cost=9))
    return collection


class TestBookkeeping:
    def test_len(self):
        assert len(make_collection()) == 3

    def test_total_cost(self):
        assert make_collection().total_cost == 16

    def test_total_nodes_stored(self):
        assert make_collection().total_nodes_stored == 6

    def test_widths_and_roots(self):
        collection = make_collection()
        assert list(collection.widths) == [3, 1, 6]
        assert list(collection.roots) == [0, 2, 3]

    def test_extend(self):
        collection = FlatRRCollection(num_nodes=3, graph_edges=2)
        rr_sets = [RRSet(0, (0,), 0, 1), RRSet(1, (1,), 1, 2)]
        collection.extend(rr_sets)
        assert len(collection) == 2
        assert collection.to_rrsets() == rr_sets

    def test_nbytes_grows(self):
        small = FlatRRCollection(num_nodes=5, graph_edges=10)
        small.append(RRSet(0, (0,), 0, 1))
        assert make_collection().nbytes() > small.nbytes()

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            FlatRRCollection(num_nodes=0, graph_edges=0)


class TestCoverage:
    def test_coverage_count(self):
        collection = make_collection()
        assert collection.coverage_count([1]) == 2  # sets 0 and 2
        assert collection.coverage_count([2]) == 1
        assert collection.coverage_count([0, 2, 3]) == 3

    def test_coverage_fraction(self):
        assert make_collection().coverage_fraction([1]) == pytest.approx(2 / 3)

    def test_empty_collection_fraction_zero(self):
        collection = FlatRRCollection(num_nodes=5, graph_edges=10)
        assert collection.coverage_count([1]) == 0
        assert collection.coverage_fraction([1]) == 0.0

    def test_estimate_spread_is_n_times_fraction(self):
        collection = make_collection()
        assert collection.estimate_spread([1]) == pytest.approx(5 * 2 / 3)

    def test_node_frequencies(self):
        assert make_collection().node_frequencies() == [1, 2, 1, 1, 1]


class TestEstimators:
    def test_mean_width(self):
        assert make_collection().mean_width() == pytest.approx(10 / 3)

    def test_mean_width_empty(self):
        assert FlatRRCollection(num_nodes=5, graph_edges=10).mean_width() == 0.0

    def test_mean_kappa_k1_is_mean_width_over_m(self):
        collection = make_collection()
        # k=1: kappa(R) = w(R)/m exactly.
        assert collection.mean_kappa(1) == pytest.approx(collection.mean_width() / 10)

    def test_mean_kappa_increases_with_k(self):
        collection = make_collection()
        assert collection.mean_kappa(5) > collection.mean_kappa(1)

    def test_mean_kappa_bounded_by_one(self):
        assert make_collection().mean_kappa(1000) <= 1.0

    def test_mean_kappa_rejects_bad_k(self):
        with pytest.raises(ValueError):
            make_collection().mean_kappa(0)
