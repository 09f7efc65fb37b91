"""RR-set sampling under the linear threshold model.

Under LT the triggering set of every node is empty or a single in-neighbour
(chosen with probability equal to the edge weight), so the reverse traversal
degenerates into a random walk: from the root repeatedly hop to one sampled
in-neighbour, stopping when the draw lands in the "no neighbour" mass or the
walk revisits a node (Section 4.2; the paper's Section 7.2 notes this is why
LT needs one random number per *node* instead of one per *edge*).

Vectorised path (:meth:`LTRRSampler.sample_batch`): many walks advance in
lockstep, one wave per hop.  The inverse-CDF edge pick becomes a single
``searchsorted`` against the global prefix sum of ``in_prob`` — for walk at
node ``v`` with CSR slice ``[lo, hi)`` and uniform draw ``r``, the live
in-edge is the first position whose cumulative weight exceeds
``prefix[lo] + r``, and ``r >= Σ w`` is the "no neighbour" stop — while
revisit detection reuses the IC engine's visited-bitmap row pool (one row
per in-flight walk).  Same distribution as one walk at a time, not
draw-for-draw identical (batched draws consume the RNG in a different
order); the whole batch lands in one packed
:class:`~repro.rrset.flat_collection.FlatRRCollection`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.weights import validate_lt_weights
from repro.obs import runtime as obs
from repro.obs.registry import SIZE_BUCKETS
from repro.rrset.base import RRSampler
from repro.rrset.commit import commit_batch
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng

__all__ = ["LTRRSampler"]


def _pick_in_edge_index(in_weights, random01) -> int | None:
    """Index-returning twin of :func:`sample_lt_in_edge`.

    Identical RNG consumption (no draw for in-degree-0 nodes, one uniform
    otherwise) and identical cumulative float arithmetic, so it picks the
    same in-edge — but returns its *position* in the CSR slice, which is
    what edge tracing records.  The batch's scalar tail uses it.
    """
    if not in_weights:
        return None
    draw = random01()
    cumulative = 0.0
    for index in range(len(in_weights)):
        cumulative += in_weights[index]
        if draw < cumulative:
            return index
    return None


class LTRRSampler(RRSampler):
    """Reverse random walk generating LT RR sets."""

    model_name = "LT"

    #: Visited-bitmap row pool bounds, matching the IC engine's sweet spot
    #: (at most this many boolean cells / concurrent walks per chunk).
    BATCH_CHUNK_CELLS = 16 << 20
    BATCH_CHUNK_MAX = 8192

    #: When fewer than this many walks are still alive, the chunk's
    #: stragglers are finished one walk at a time: numpy call overhead
    #: dominates waves this small, and long walks (deep LT chains) would
    #: otherwise pay it once per hop.
    TAIL_CUTOVER_WALKS = 64

    def __init__(self, graph: DiGraph, trace_edges: bool = False):
        super().__init__(graph)
        validate_lt_weights(graph)
        #: Record the chosen live in-edge (in-CSR id) of every visited node.
        #: The traced pick consumes the RNG exactly like the untraced one
        #: (one uniform per visited node, same cumulative scan), so traced
        #: and untraced runs walk identical chains.
        self.trace_edges = bool(trace_edges)
        self._np_in_deg = graph.in_degrees()
        self._cumw = np.cumsum(graph.in_prob)
        # prefix[i] = Σ in_prob[:i], so a node's in-weight mass over CSR
        # slice [lo, hi) is prefix[hi] - prefix[lo].
        self._prefix = np.concatenate(([0.0], self._cumw))

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """Generate one LT RR set per root with numpy-batched walk waves.

        Draws the per-root walk's distribution but not draw-for-draw (a
        wave draws one uniform per live walk at once, including walks at
        in-degree-0 nodes, where a single walk stops without drawing).
        """
        source = resolve_rng(rng)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        n = self.graph.n
        out = FlatRRCollection(n, self.graph.m, track_traces=self.trace_edges)
        if roots.size == 0:
            return out
        rows = max(1, min(self.BATCH_CHUNK_MAX, self.BATCH_CHUNK_CELLS // max(n, 1)))
        rows = min(rows, int(roots.size))
        visited = np.zeros((rows, n), dtype=bool)
        with obs.trace("sampling.lt_batch", sets=int(roots.size)):
            for start in range(0, roots.size, rows):
                self._walk_chunk(roots[start : start + rows], source, out, visited)
        if obs.enabled():
            obs.add("rr.sets", int(roots.size))
            obs.add("rr.cost", int(out.costs_array.sum()))
            obs.observe_many("rr.width", out.widths_array, bounds=SIZE_BUCKETS)
        return out

    def _walk_chunk(
        self,
        chunk_roots: np.ndarray,
        source,
        out: FlatRRCollection,
        visited: np.ndarray,
    ) -> None:
        """Advance every walk of the chunk one hop per wave until all stop.

        ``visited`` is an all-False scratch matrix with at least
        ``len(chunk_roots)`` rows (walk ``i`` owns row ``i``); touched cells
        are cleared before return.
        """
        graph = self.graph
        in_ptr = graph.in_ptr
        cumw = self._cumw
        prefix = self._prefix
        batch = int(chunk_roots.size)
        sample_ids = np.arange(batch, dtype=np.int64)
        visited[sample_ids, chunk_roots] = True
        member_samples = [sample_ids]
        member_nodes = [chunk_roots]
        trace_samples: list[np.ndarray] | None = [] if self.trace_edges else None
        trace_edge_ids: list[np.ndarray] | None = [] if self.trace_edges else None

        active_s, active_v = sample_ids, chunk_roots
        while active_v.size:
            if active_v.size <= self.TAIL_CUTOVER_WALKS:
                self._finish_tail(
                    active_s, active_v, visited, source, member_samples, member_nodes,
                    trace_samples, trace_edge_ids,
                )
                break
            draws = source.np.random(active_v.size)
            lo = in_ptr[active_v]
            hi = in_ptr[active_v + 1]
            base = prefix[lo]
            total = prefix[hi] - base
            cont = draws < total  # else the "no live in-edge" mass: walk ends
            if not cont.any():
                break
            walk_s = active_s[cont]
            # Inverse CDF over the node's CSR weight slice, done globally:
            # first edge position whose cumulative weight exceeds the draw.
            edge = np.searchsorted(cumw, base[cont] + draws[cont], side="right")
            # `total` can round a hair above the true weight sum, letting a
            # draw in that float sliver pass `cont` with base + draw beyond
            # the node's last cumulative entry — clamp into the CSR slice so
            # such a draw takes the last in-edge instead of a neighbour
            # node's edge (or an out-of-bounds index at the array end).
            np.minimum(edge, hi[cont] - 1, out=edge)
            if trace_samples is not None:
                # The chosen edge is live even when it lands on an already
                # visited node (the revisit that ends the walk), so capture
                # before the freshness filter.
                trace_samples.append(walk_s)
                trace_edge_ids.append(edge)
            parent = graph.in_idx[edge]
            fresh = ~visited[walk_s, parent]
            walk_s, parent = walk_s[fresh], parent[fresh]
            if walk_s.size == 0:
                break
            visited[walk_s, parent] = True
            member_samples.append(walk_s)
            member_nodes.append(parent)
            active_s, active_v = walk_s, parent

        all_s = np.concatenate(member_samples)
        all_v = np.concatenate(member_nodes)
        visited[all_s, all_v] = False  # reset scratch for the next chunk
        self._commit_chunk(chunk_roots, all_s, all_v, out, trace_samples, trace_edge_ids)

    def _finish_tail(
        self,
        active_s: np.ndarray,
        active_v: np.ndarray,
        visited: np.ndarray,
        source,
        member_samples: list[np.ndarray],
        member_nodes: list[np.ndarray],
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Walk the few remaining chains to completion with the scalar hop.

        In-edges come straight off the CSR slice per hop (not the cached
        full adjacency) so shared-graph pool workers stay at the one-copy
        memory footprint.
        """
        random01 = source.py.random
        graph = self.graph
        in_ptr = graph.in_ptr
        in_idx = graph.in_idx
        in_prob = graph.in_prob
        tracing = trace_samples is not None
        extra_s: list[int] = []
        extra_v: list[int] = []
        extra_ts: list[int] = []
        extra_te: list[int] = []
        for sample, current in zip(active_s.tolist(), active_v.tolist()):
            row = visited[sample]
            while True:
                lo, hi = int(in_ptr[current]), int(in_ptr[current + 1])
                index = _pick_in_edge_index(in_prob[lo:hi].tolist(), random01)
                if index is None:
                    break
                if tracing:
                    extra_ts.append(sample)
                    extra_te.append(lo + index)
                parent = int(in_idx[lo + index])
                if row[parent]:
                    break
                row[parent] = True
                extra_s.append(sample)
                extra_v.append(parent)
                current = parent
        if extra_s:
            member_samples.append(np.asarray(extra_s, dtype=np.int64))
            member_nodes.append(np.asarray(extra_v, dtype=np.int64))
        if tracing and extra_ts:
            trace_samples.append(np.asarray(extra_ts, dtype=np.int64))
            trace_edge_ids.append(np.asarray(extra_te, dtype=np.int64))

    def _commit_chunk(
        self, chunk_roots: np.ndarray, all_s: np.ndarray, all_v: np.ndarray,
        out: FlatRRCollection,
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Append the chunk's walks to ``out`` through the shared
        :func:`~repro.rrset.commit.commit_batch`.

        Each set keeps its members in hop order, root first, and its trace
        in pick order.  A walk draws once per member, so its cost is 2|R|.
        """
        commit_batch(out, chunk_roots, [all_s], [all_v], self._np_in_deg, walk=True,
                     trace_samples=trace_samples, trace_edge_ids=trace_edge_ids)
