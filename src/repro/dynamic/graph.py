"""`DynamicDiGraph` — a mutable overlay over immutable CSR snapshots.

The rest of the system (samplers, sketch files, service caches) is built on
immutable :class:`~repro.graphs.digraph.DiGraph` snapshots keyed by content
fingerprint.  ``DynamicDiGraph`` is the thin mutable façade an evolving
workload talks to: it holds the *current* snapshot, applies edge updates as
spliced snapshots (:mod:`repro.graphs.delta`: one entry of each CSR edited,
no re-sort of the edges), bumps a version counter, and keeps the
fingerprint lineage so every historical cache key can be traced to the
version that produced it.

The returned :class:`~repro.graphs.delta.GraphDelta` objects are the
currency of incremental sketch repair — hold on to them in the order they
were produced and feed them to
:meth:`repro.sketch.index.SketchIndex.apply_update`.
"""

from __future__ import annotations

from repro.dynamic.updates import EdgeUpdate
from repro.graphs.delta import GraphDelta, delete_edge, insert_edge, reweight_edge
from repro.graphs.digraph import DiGraph
from repro.utils.validation import require

__all__ = ["DynamicDiGraph"]


class DynamicDiGraph:
    """Mutable edge set over immutable :class:`DiGraph` snapshots.

    Parameters
    ----------
    graph:
        The initial snapshot (version 0).
    """

    def __init__(self, graph: DiGraph):
        require(isinstance(graph, DiGraph), "DynamicDiGraph wraps a DiGraph snapshot")
        self._graph = graph
        self.version = 0
        #: ``(version, fingerprint)`` pairs, oldest first; entry 0 is the
        #: initial snapshot.  This is what lets a cache spot *any* stale key
        #: produced by an earlier version of this graph, not just the
        #: immediately preceding one.
        self.lineage: list[tuple[int, str]] = [(0, graph.fingerprint())]

    # ------------------------------------------------------------------
    # Snapshot accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current immutable snapshot."""
        return self._graph

    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def m(self) -> int:
        return self._graph.m

    @property
    def num_nodes(self) -> int:
        return self._graph.n

    @property
    def num_edges(self) -> int:
        return self._graph.m

    def fingerprint(self) -> str:
        """Fingerprint of the current snapshot."""
        return self._graph.fingerprint()

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int, prob: float) -> GraphDelta:
        """Append edge ``u -> v`` with the given probability."""
        return self._commit(insert_edge(self._graph, u, v, prob))

    def delete_edge(self, u: int, v: int) -> GraphDelta:
        """Remove the first ``u -> v`` edge."""
        return self._commit(delete_edge(self._graph, u, v))

    def reweight_edge(self, u: int, v: int, prob: float) -> GraphDelta:
        """Replace the first ``u -> v`` edge's probability."""
        return self._commit(reweight_edge(self._graph, u, v, prob))

    def apply(self, update: EdgeUpdate) -> GraphDelta:
        """Apply a parsed :class:`EdgeUpdate` request."""
        return self.commit(self.preview(update))

    def preview(self, update: EdgeUpdate) -> GraphDelta:
        """Build the delta an update *would* produce, without committing.

        Lets callers validate the post-update snapshot (and repair derived
        state) before the mutation becomes visible; hand the delta to
        :meth:`commit` to make it current.  A never-committed preview has
        no effect.
        """
        if update.action == "insert":
            return insert_edge(self._graph, update.u, update.v, update.prob)
        if update.action == "delete":
            return delete_edge(self._graph, update.u, update.v)
        return reweight_edge(self._graph, update.u, update.v, update.prob)

    def commit(self, delta: GraphDelta) -> GraphDelta:
        """Make a previewed delta current (it must chain off this snapshot)."""
        require(delta.old_fingerprint == self._graph.fingerprint(),
                "delta does not chain off the current snapshot")
        return self._commit(delta)

    def _commit(self, delta: GraphDelta) -> GraphDelta:
        self._graph = delta.new_graph
        self.version += 1
        self.lineage.append((self.version, delta.new_fingerprint))
        return delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicDiGraph(n={self.n}, m={self.m}, version={self.version})"
