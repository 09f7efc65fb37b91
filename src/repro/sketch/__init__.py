"""Persistent RR-sketch index and influence query service.

TIM's RR sets are *query-independent of k*: one sketch collection answers
seed selection for every budget, spread estimation for any seed set, and
marginal-gain probes.  This package turns that observation into a serving
subsystem:

* :mod:`repro.sketch.persistence` — a versioned ``.npz`` on-disk format for
  :class:`~repro.rrset.flat_collection.FlatRRCollection` (bit-exact
  roundtrips, optional ``mmap`` loading so processes share pages, graph
  fingerprint validation),
* :mod:`repro.sketch.index` — :class:`SketchIndex`, the reusable oracle:
  prebuilt inverted index, incremental greedy ``select(k)``,
  ``spread`` / ``marginal_gain`` / forced-seed queries, warm-start theta
  extension,
* :mod:`repro.sketch.service` — :class:`InfluenceService`, an LRU of
  indexes keyed by (graph fingerprint, model) behind a JSONL query front
  (the ``repro-im serve`` CLI).

Typical flow::

    from repro.sketch import SketchIndex

    index = SketchIndex.build(graph, "IC", k=10, epsilon=0.3, rng=0)
    index.save("nethept-ic.npz")                  # build once ...
    index = SketchIndex.load("nethept-ic.npz", graph=graph, mmap=True)
    seeds = index.select(25).seeds                # ... query for any k
    lift = index.marginal_gain(seeds, candidate=7)
"""

from repro.sketch.index import SketchIndex
from repro.sketch.persistence import (
    SKETCH_FORMAT_VERSION,
    SketchCorruptionError,
    SketchFileError,
    SketchGraphMismatchError,
    SketchVersionError,
    load_sketch,
    read_sketch_meta,
    save_sketch,
)
from repro.sketch.service import InfluenceService, ServiceStats

__all__ = [
    "SketchIndex",
    "InfluenceService",
    "ServiceStats",
    "SKETCH_FORMAT_VERSION",
    "SketchCorruptionError",
    "SketchFileError",
    "SketchGraphMismatchError",
    "SketchVersionError",
    "load_sketch",
    "read_sketch_meta",
    "save_sketch",
]
