"""Every way RR sets enter a FlatRRCollection yields one estimator surface.

Sets arrive three ways: one :class:`RRSet` at a time from the scalar
samplers (``append``), as packed chunks from the vectorised samplers
(``extend_arrays``), and as read-only memory-mapped arrays adopted from a
saved sketch (``load_sketch(mmap=True)``).  The algorithms and the sketch
index read the same estimators off all three, so every estimator and
accessor must agree across them on the same RR sets.
"""

import random

import numpy as np
import pytest

from repro.rrset import FlatRRCollection, RRSet
from repro.sketch import load_sketch, save_sketch

NUM_NODES = 30
GRAPH_EDGES = 55

#: The shared estimator/accessor surface, each with the arguments it is
#: probed with (``None`` marks a property).
PARITY_SURFACE = {
    "coverage_count": ([3, 7, 11],),
    "coverage_fraction": ([3, 7, 11],),
    "estimate_spread": ([3, 7, 11],),
    "mean_width": (),
    "mean_kappa": (5,),
    "kappa_sum": (5,),
    "node_frequencies": (),
    "node_frequency_array": (),
    "set_sizes": (),
    "sets": None,
    "widths": None,
    "roots": None,
    "costs": None,
    "costs_array": None,
    "total_cost": None,
    "total_nodes_stored": None,
    "nbytes": (),
}


def sample_rrsets(seed: int = 7, count: int = 90) -> list[RRSet]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(1, 6)
        nodes = tuple(rng.sample(range(NUM_NODES), size))
        width = rng.randint(0, 25)
        out.append(RRSet(root=nodes[0], nodes=nodes, width=width, cost=size + width))
    return out


def appended(rr_sets: list[RRSet]) -> FlatRRCollection:
    collection = FlatRRCollection(NUM_NODES, GRAPH_EDGES)
    for rr in rr_sets:
        collection.append(rr)
    return collection


def bulk(rr_sets: list[RRSet], chunk: int = 40) -> FlatRRCollection:
    """Commit the sets in packed chunks, as the vectorised samplers do."""
    collection = FlatRRCollection(NUM_NODES, GRAPH_EDGES)
    for start in range(0, len(rr_sets), chunk):
        part = rr_sets[start : start + chunk]
        sizes = [len(rr) for rr in part]
        collection.extend_arrays(
            roots=np.array([rr.root for rr in part], dtype=np.int32),
            ptr=np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            nodes=np.array([node for rr in part for node in rr.nodes], dtype=np.int32),
            widths=np.array([rr.width for rr in part], dtype=np.int64),
            costs=np.array([rr.cost for rr in part], dtype=np.int64),
        )
    return collection


def mapped(collection: FlatRRCollection, path) -> FlatRRCollection:
    save_sketch(path, collection, {"model": "IC"})
    loaded, _ = load_sketch(path, mmap=True)
    return loaded


def assert_agree(trio, read):
    """``read`` gives the same answer on every collection of ``trio``."""
    reference, *others = (read(collection) for collection in trio)
    for other in others:
        if isinstance(reference, np.ndarray):
            assert other.dtype == reference.dtype
            assert np.array_equal(other, reference)
        elif isinstance(reference, float):
            assert other == pytest.approx(reference, rel=1e-12)
        else:
            assert other == reference


@pytest.fixture
def trio(tmp_path):
    rr_sets = sample_rrsets()
    return appended(rr_sets), bulk(rr_sets), mapped(appended(rr_sets), tmp_path / "s.npz")


class TestSurfaceParity:
    def test_fill_paths_are_what_they_claim(self, trio):
        _, _, loaded = trio
        assert isinstance(loaded.nodes_array, np.memmap)
        assert not loaded.nodes_array.flags.writeable

    @pytest.mark.parametrize("name", sorted(PARITY_SURFACE))
    def test_surface_agrees(self, trio, name):
        args = PARITY_SURFACE[name]

        def read(collection):
            value = getattr(collection, name)
            return value if args is None else value(*args)

        assert_agree(trio, read)

    def test_coverage_estimators_agree(self, trio):
        rr_sets = sample_rrsets()
        for probe in ([0], [3, 7, 11], range(10)):
            covered = sum(1 for rr in rr_sets if set(probe).intersection(rr.nodes))
            assert_agree(trio, lambda c: c.coverage_count(probe))
            assert_agree(trio, lambda c: c.coverage_fraction(probe))
            assert_agree(trio, lambda c: c.estimate_spread(probe))
            assert trio[0].coverage_count(probe) == covered

    def test_kappa_estimators_agree(self, trio):
        for k in (1, 2, 5, 10):
            assert_agree(trio, lambda c: c.mean_kappa(k))
            assert_agree(trio, lambda c: c.kappa_sum(k))

    def test_frequencies_agree(self, trio):
        assert_agree(trio, lambda c: c.node_frequencies())
        assert_agree(trio, lambda c: c.node_frequency_array())
        assert sum(trio[0].node_frequencies()) == trio[0].total_nodes_stored

    def test_costs_and_sizes_agree(self, trio):
        rr_sets = sample_rrsets()
        assert_agree(trio, lambda c: list(c.costs))
        assert_agree(trio, lambda c: c.costs_array)
        assert_agree(trio, lambda c: c.set_sizes())
        assert_agree(trio, lambda c: c.total_cost)
        assert_agree(trio, lambda c: c.total_nodes_stored)
        assert trio[0].total_cost == sum(rr.cost for rr in rr_sets)
        assert trio[0].set_sizes().tolist() == [len(rr) for rr in rr_sets]

    def test_kappa_sum_validates_k(self, trio):
        for collection in trio:
            with pytest.raises(ValueError):
                collection.kappa_sum(0)
            with pytest.raises(ValueError):
                collection.mean_kappa(0)

    def test_empty_collections_agree(self, tmp_path):
        empty = (appended([]), bulk([]), mapped(appended([]), tmp_path / "e.npz"))
        assert_agree(empty, lambda c: len(c))
        assert_agree(empty, lambda c: c.kappa_sum(3))
        assert_agree(empty, lambda c: c.costs_array)
        assert_agree(empty, lambda c: c.set_sizes())
        assert_agree(empty, lambda c: c.node_frequency_array())
        assert_agree(empty, lambda c: c.coverage_fraction([1]))
        assert empty[0].kappa_sum(3) == 0.0
        assert len(empty[0]) == 0
