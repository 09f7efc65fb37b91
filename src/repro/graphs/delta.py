"""Single-edge graph mutations as spliced CSR snapshots.

:class:`~repro.graphs.digraph.DiGraph` is immutable by design — every other
subsystem keys caches and persisted sketches off its content fingerprint.
Evolving-network workloads therefore model a mutation as a *transition
between two immutable snapshots*: each primitive here builds a fresh
``DiGraph`` and returns a :class:`GraphDelta` describing exactly what moved.

The new snapshot is spliced, not re-sorted.  A ``DiGraph`` groups its edges
by a stable sort, so each node's CSR slices list its edges in input-edge
order, and a one-edge change edits one entry of each CSR:

* an insert appends the edge to the input arrays, so it lands *last* in
  ``u``'s out-slice and in ``v``'s in-slice;
* a delete drops its entry from both slices (and from the input arrays);
* a reweight overwrites its probability in both slices.

Every pointer after the edited slice moves by at most one, so a snapshot
costs a few copies of the edge arrays, not the two O(m log m) sorts of
``DiGraph(n, src, dst, prob)``; its arrays equal that constructor's byte
for byte.

The delta is what makes *incremental* downstream repair possible.  RR-set
machinery addresses edges by their position in the **in-CSR** arrays
(``in_ptr``/``in_idx``/``in_prob`` — the arrays the reverse traversals
walk), so the delta records

* the touched edge's old in-CSR position (``in_pos``) and the old in-CSR
  slice ``[slice_lo, slice_hi)`` of its destination node, and
* how every *other* in-CSR edge id shifts across the mutation
  (:meth:`GraphDelta.remap_edge_ids`) — a pure ±1 threshold shift, because
  only the edited entry moves within the CSR.

Deletion and reweighting resolve parallel ``u -> v`` duplicates to the
first match in input-edge order, which by stability is also the first match
in the destination's in-CSR slice and in the source's out-CSR slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.utils.validation import check_node, require

__all__ = [
    "GraphDelta",
    "insert_edge",
    "delete_edge",
    "reweight_edge",
    "locate_edge",
]


@dataclass(frozen=True)
class GraphDelta:
    """One edge mutation between two immutable graph snapshots.

    ``in_pos`` is the edge's position in the **old** graph's in-CSR arrays
    for ``delete``/``reweight``; for ``insert`` it is the new edge's
    position in the **new** graph's in-CSR arrays (which equals
    ``slice_hi``, the old end of the destination's slice, because the new
    edge sorts last within the slice).  ``slice_lo``/``slice_hi`` bound the
    destination node's in-CSR slice in the *old* graph.
    """

    op: str
    u: int
    v: int
    old_prob: float | None
    new_prob: float | None
    edge_index: int | None
    in_pos: int
    slice_lo: int
    slice_hi: int
    old_graph: DiGraph
    new_graph: DiGraph
    old_fingerprint: str
    new_fingerprint: str

    def remap_edge_ids(self, ids: np.ndarray) -> np.ndarray:
        """Map old-graph in-CSR edge ids into the new graph's id space.

        Only valid for ids that still exist after the mutation.  A deleted
        edge's own id must not be passed; surviving traces never hold it,
        because downstream repair rewrites every RR set whose trace does (a
        traced IC sketch shrinks them over their other live edges, the
        resample path draws them again).
        """
        ids = np.asarray(ids)
        if self.op == "insert":
            # Ids at/after the old end of v's slice shift up by one to make
            # room for the appended edge (which takes id ``slice_hi``).
            return ids + (ids >= self.slice_hi)
        if self.op == "delete":
            return ids - (ids > self.in_pos)
        return ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prob = "" if self.new_prob is None else f", p={self.new_prob:g}"
        return f"GraphDelta({self.op} {self.u}->{self.v}{prob})"


def locate_edge(graph: DiGraph, u: int, v: int) -> tuple[int, int]:
    """``(input_edge_index, in_csr_position)`` of the first ``u -> v`` edge.

    Both "firsts" agree: the in-CSR build sorts stably by destination, so
    within ``v``'s slice the sources appear in input-edge order.
    """
    edge_index, _, in_pos = _locate(graph, u, v)
    return edge_index, in_pos


def _locate(graph: DiGraph, u: int, v: int) -> tuple[int, int, int]:
    """Input index, out-CSR position and in-CSR position of the first ``u -> v``."""
    u = check_node(u, graph.n)
    v = check_node(v, graph.n)
    lo, hi = int(graph.in_ptr[v]), int(graph.in_ptr[v + 1])
    matches = np.flatnonzero(graph.in_idx[lo:hi] == u)
    if matches.size == 0:
        raise KeyError(f"no edge {u} -> {v}")
    in_pos = lo + int(matches[0])
    out_lo, out_hi = int(graph.out_ptr[u]), int(graph.out_ptr[u + 1])
    out_pos = out_lo + int(np.flatnonzero(graph.out_idx[out_lo:out_hi] == v)[0])
    edge_index = int(np.flatnonzero((graph.src == u) & (graph.dst == v))[0])
    return edge_index, out_pos, in_pos


def _csr_insert(ptr, idx, prob, node, at, other, p):
    """One CSR triplet with ``(other, p)`` inserted at ``at``, in ``node``'s slice."""
    new_ptr = ptr.copy()
    new_ptr[node + 1 :] += 1
    return new_ptr, np.insert(idx, at, other), np.insert(prob, at, p)


def _csr_delete(ptr, idx, prob, node, at):
    """One CSR triplet without entry ``at``, which lies in ``node``'s slice."""
    new_ptr = ptr.copy()
    new_ptr[node + 1 :] -= 1
    return new_ptr, np.delete(idx, at), np.delete(prob, at)


def _delta(op, u, v, old_prob, new_prob, edge_index, in_pos, graph, new_graph) -> GraphDelta:
    lo, hi = int(graph.in_ptr[v]), int(graph.in_ptr[v + 1])
    return GraphDelta(
        op=op,
        u=int(u),
        v=int(v),
        old_prob=old_prob,
        new_prob=new_prob,
        edge_index=edge_index,
        in_pos=in_pos,
        slice_lo=lo,
        slice_hi=hi,
        old_graph=graph,
        new_graph=new_graph,
        old_fingerprint=graph.fingerprint(),
        new_fingerprint=new_graph.fingerprint(),
    )


def insert_edge(graph: DiGraph, u: int, v: int, prob: float) -> GraphDelta:
    """A new snapshot with edge ``u -> v`` (probability ``prob``) appended.

    Parallel edges are allowed, matching :class:`DiGraph` semantics; the new
    edge is appended to the input edge list, so it materialises *last*
    within ``u``'s out-CSR slice and ``v``'s in-CSR slice, and every
    pre-existing in-CSR id is either unchanged or shifted up by exactly one.
    """
    u = check_node(u, graph.n)
    v = check_node(v, graph.n)
    require(0.0 <= prob <= 1.0, f"edge probability must lie in [0, 1]; got {prob}")
    p = np.float64(prob)
    # The appended edge's id in the NEW graph: old end of v's slice.
    in_pos = int(graph.in_ptr[v + 1])
    new_graph = DiGraph._from_csr(
        graph.n,
        np.append(graph.src, np.int64(u)),
        np.append(graph.dst, np.int64(v)),
        np.append(graph.prob, p),
        _csr_insert(graph.out_ptr, graph.out_idx, graph.out_prob, u,
                    int(graph.out_ptr[u + 1]), v, p),
        _csr_insert(graph.in_ptr, graph.in_idx, graph.in_prob, v, in_pos, u, p),
    )
    return _delta("insert", u, v, None, float(prob), int(graph.m), in_pos, graph, new_graph)


def delete_edge(graph: DiGraph, u: int, v: int) -> GraphDelta:
    """A new snapshot with the first ``u -> v`` edge removed."""
    edge_index, out_pos, in_pos = _locate(graph, u, v)
    old_prob = float(graph.prob[edge_index])
    new_graph = DiGraph._from_csr(
        graph.n,
        np.delete(graph.src, edge_index),
        np.delete(graph.dst, edge_index),
        np.delete(graph.prob, edge_index),
        _csr_delete(graph.out_ptr, graph.out_idx, graph.out_prob, u, out_pos),
        _csr_delete(graph.in_ptr, graph.in_idx, graph.in_prob, v, in_pos),
    )
    return _delta("delete", u, v, old_prob, None, edge_index, in_pos, graph, new_graph)


def reweight_edge(graph: DiGraph, u: int, v: int, prob: float) -> GraphDelta:
    """A new snapshot with the first ``u -> v`` edge's probability replaced.

    The new snapshot shares every array but the three probability arrays
    with ``graph`` (both are immutable).
    """
    require(0.0 <= prob <= 1.0, f"edge probability must lie in [0, 1]; got {prob}")
    edge_index, out_pos, in_pos = _locate(graph, u, v)
    old_prob = float(graph.prob[edge_index])
    probs, out_prob, in_prob = graph.prob.copy(), graph.out_prob.copy(), graph.in_prob.copy()
    probs[edge_index] = out_prob[out_pos] = in_prob[in_pos] = prob
    new_graph = DiGraph._from_csr(
        graph.n, graph.src, graph.dst, probs,
        (graph.out_ptr, graph.out_idx, out_prob),
        (graph.in_ptr, graph.in_idx, in_prob),
    )
    return _delta("reweight", u, v, old_prob, float(prob), edge_index, in_pos, graph, new_graph)
