"""Dynamic-graph subsystem: evolving networks over the static RR machinery.

The paper's machinery assumes a static graph; this package opens the
evolving-network workload the ROADMAP targets.  Three layers:

* :class:`~repro.dynamic.graph.DynamicDiGraph` — a mutable overlay that
  applies edge inserts/deletes/reweights as spliced CSR snapshots
  (:mod:`repro.graphs.delta`) and versions every snapshot by fingerprint;
* :mod:`repro.dynamic.repair` — incremental RR-sketch repair: trace-aware
  invalidation, then exact extension or shrink of the affected sets on a
  traced IC sketch, or deterministic resampling of them otherwise;
* the integration points: :meth:`repro.sketch.index.SketchIndex
  .apply_update`, the service's ``update`` op, and the CLI ``update``
  subcommand.
"""

from repro.dynamic.graph import DynamicDiGraph
from repro.dynamic.repair import (
    RepairReport,
    affected_set_ids,
    repair_collection,
)
from repro.dynamic.updates import UPDATE_ACTIONS, EdgeUpdate, parse_update
from repro.graphs.delta import GraphDelta, delete_edge, insert_edge, reweight_edge

__all__ = [
    "DynamicDiGraph",
    "EdgeUpdate",
    "GraphDelta",
    "RepairReport",
    "UPDATE_ACTIONS",
    "affected_set_ids",
    "delete_edge",
    "insert_edge",
    "parse_update",
    "repair_collection",
    "reweight_edge",
]
