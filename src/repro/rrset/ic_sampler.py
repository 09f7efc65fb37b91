"""RR-set sampling under the independent cascade model (Section 3.1).

The paper's randomized reverse BFS: starting at the root, for each in-edge
of a dequeued node flip a coin with the edge's probability and enqueue the
(unvisited) source on success.

:meth:`ICRRSampler.sample_batch` grows many RR sets *simultaneously* as one
level-synchronous reverse BFS over ``(sample, node)`` pairs.  Each wave
expands the whole frontier at once, straight from ``DiGraph.in_ptr`` /
``in_idx`` / ``in_prob``, in one of two ways per node:

* a node whose in-edges share one probability ``p`` (every node of a
  weighted-cascade graph) skips from success to success: the gaps between
  successful coins are Geometric(p), so each vectorised round draws one gap
  per live node until it passes its in-degree ``d``, about ``1 + d·p``
  draws instead of ``d``.  A node still live after
  :attr:`ICRRSampler.GAP_ROUNDS` rounds flips the rest of its slice;
* a node whose in-probabilities differ flips every coin, the whole wave's
  in one ``rng.np.random(len)`` call over a CSR range-gather.

Both draw the coins' distribution, so a set's w(R) (Equation 1) and cost
are what per-edge flipping gives; only the number of random draws falls.
Newly reached pairs are deduplicated against a visited matrix with one row
per in-flight sample, and each row carries a uint8 generation stamp: a
finished row is recycled by advancing its stamp and wiped only when the
stamp wraps around.  The whole batch is returned as a
:class:`~repro.rrset.flat_collection.FlatRRCollection`, so no per-set
Python objects are created on the hot path.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.obs import runtime as obs
from repro.obs.registry import SIZE_BUCKETS
from repro.rrset.base import RRSampler
from repro.rrset.commit import commit_batch
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import RandomSource, resolve_rng

__all__ = ["ICRRSampler"]


def _retire_rows(visited: np.ndarray, stamps: np.ndarray, rows: np.ndarray) -> None:
    """Forget every mark in ``rows`` of ``visited`` by advancing their stamps.

    A cell is marked in its row when it holds the row's current stamp
    (1..255), so one increment clears the whole row.  Only a row whose
    stamp wraps to 0 is wiped, once per 255 uses, and starts again at 1.
    """
    stamps[rows] += 1
    wrapped = rows[stamps[rows] == 0]
    if wrapped.size:
        visited[wrapped] = 0
        stamps[wrapped] = 1


class ICRRSampler(RRSampler):
    """Randomized reverse BFS generating IC RR sets."""

    model_name = "IC"

    #: Geometric-gap rounds a node with one shared in-probability gets per
    #: wave; a node still live after them flips the rest of its slice.  A
    #: weighted-cascade node has about one success (Poisson(1)), so about 2%
    #: of them fall through, and a constant-p hub with hundreds of successes
    #: does not take one round per success.
    GAP_ROUNDS = 4

    #: Upper bounds on the visited-row pool: at most this many one-byte
    #: cells (rows · n, i.e. at most 16 MiB of scratch) and at most this
    #: many concurrent samples.  Measured sweet spot: much smaller and the
    #: waves lose their numpy amortisation, much bigger and the scattered
    #: row accesses fall out of last-level cache.
    BATCH_CHUNK_CELLS = 16 << 20
    BATCH_CHUNK_MAX = 8192

    #: When the live frontier shrinks below this many (sample, node) pairs,
    #: the chunk's stragglers are finished by the scalar BFS: numpy call
    #: overhead dominates vectorised waves this small, and deep RR sets
    #: (long weighted-cascade chains) would otherwise pay it per level.
    TAIL_CUTOVER_PAIRS = 64

    def __init__(
        self,
        graph: DiGraph,
        max_depth: int | None = None,
        trace_edges: bool = False,
    ):
        super().__init__(graph)
        #: Record the in-CSR ids of every successful coin on each sample
        #: (the live-edge trace incremental repair depends on).  Tracing
        #: never touches the RNG stream: every code path below derives the
        #: edge id from state it already computes, so a traced run samples
        #: the exact same sets as an untraced one.
        self.trace_edges = bool(trace_edges)
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1; got {max_depth}")
        #: Depth truncation for the time-critical (bounded-horizon) IC model:
        #: a node enters the RR set only via live paths of length <= max_depth.
        self.max_depth = max_depth
        #: Per node: the shared in-probability if uniform, NaN otherwise
        #: (computed straight off the CSR arrays — no Python materialisation,
        #: so pool workers sampling over a shared graph stay at the one-copy
        #: memory footprint).
        self._np_unif_p = self._uniform_in_probs()
        self._np_in_deg = graph.in_degrees()
        #: Per node, how a wave expands it: ``c = -1/ln(1-p)`` for a shared
        #: in-probability p in (0, 1], so that ``⌊E·c⌋`` with E ~ Exp(1) is a
        #: Geometric(p) gap (``P(⌊E·c⌋ >= j) = (1-p)^j``; c = 0 at p = 1);
        #: NaN when the in-probabilities differ (coin by coin); +inf when no
        #: coin can succeed (in-degree 0 or p = 0).
        scale = np.where(np.isnan(self._np_unif_p) & (self._np_in_deg > 0), np.nan, np.inf)
        gaps = self._np_unif_p > 0
        with np.errstate(divide="ignore", over="ignore"):
            scale[gaps] = -1.0 / np.log1p(-self._np_unif_p[gaps])
        self._np_gap_scale = scale

    def _uniform_in_probs(self) -> np.ndarray:
        """Per-node shared in-probability (NaN when mixed or in-degree 0)."""
        graph = self.graph
        out = np.full(graph.n, np.nan, dtype=np.float64)
        if graph.m == 0:
            return out
        in_deg = graph.in_degrees()
        node_of_edge = np.repeat(np.arange(graph.n, dtype=np.int64), in_deg)
        first_prob = graph.in_prob[graph.in_ptr[node_of_edge]]
        mixed = np.zeros(graph.n, dtype=bool)
        mixed[node_of_edge[graph.in_prob != first_prob]] = True
        uniform = (in_deg > 0) & ~mixed
        out[uniform] = graph.in_prob[graph.in_ptr[:-1][uniform]]
        return out

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """Generate one IC RR set per root with numpy-batched expansion.

        Draws the per-root reverse BFS's distribution, including
        ``max_depth`` truncation; the coin order is the batch's own.  Two
        internal drivers share the wave-expansion core:

        * unbounded sampling uses a *streaming* reverse BFS: a pool of
          visited rows grows many RR sets concurrently and admits the next
          root the moment a row frees up, so the frontier stays wide and
          numpy call overhead is amortised across the whole batch;
        * ``max_depth`` sampling processes fixed chunks level-synchronously
          (every wave is one BFS depth), so each member's depth is its live
          distance and truncation is exact.

        Both mark a visited node with its row's stamp and recycle a row by
        advancing the stamp (:func:`_retire_rows`).
        """
        source = resolve_rng(rng)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        n = self.graph.n
        out = FlatRRCollection(n, self.graph.m, track_traces=self.trace_edges)
        if roots.size == 0:
            return out
        rows = max(1, min(self.BATCH_CHUNK_MAX, self.BATCH_CHUNK_CELLS // max(n, 1)))
        rows = min(rows, int(roots.size))
        visited = np.zeros((rows, n), dtype=np.uint8)
        stamps = np.ones(rows, dtype=np.uint8)
        with obs.trace("sampling.ic_batch", sets=int(roots.size)):
            if self.max_depth is None:
                self._sample_stream(roots, source, out, visited, stamps)
            else:
                for start in range(0, roots.size, rows):
                    self._expand_chunk(roots[start : start + rows], source, out,
                                       visited, stamps)
        if obs.enabled():
            obs.add("rr.sets", int(roots.size))
            obs.add("rr.cost", int(out.costs_array.sum()))
            obs.observe_many("rr.width", out.widths_array, bounds=SIZE_BUCKETS)
        return out

    def _sample_stream(
        self,
        roots: np.ndarray,
        source: RandomSource,
        out: FlatRRCollection,
        visited: np.ndarray,
        stamps: np.ndarray,
    ) -> None:
        """Streaming driver: grow all RR sets through one shared frontier.

        Each in-flight sample owns one row of ``visited``; a finished row is
        retired by advancing its stamp and recycled to admit the next root,
        so the wave width stays near the pool size instead of decaying into
        long tails of tiny frontiers.  The per-wave member lists hold int32
        sample and node ids until the commit.
        """
        n = self.graph.n
        num_rows = visited.shape[0]
        total = int(roots.size)
        id_dtype = np.int32 if num_rows * n < 2**31 else np.int64
        sample_of_row = np.empty(num_rows, dtype=np.int32)
        free_rows: list[int] = list(range(num_rows - 1, -1, -1))
        member_samples: list[np.ndarray] = []
        member_nodes: list[np.ndarray] = []
        trace_samples: list[np.ndarray] | None = [] if self.trace_edges else None
        trace_edge_ids: list[np.ndarray] | None = [] if self.trace_edges else None
        next_root = 0
        active_s = np.empty(0, dtype=np.int32)
        active_v = np.empty(0, dtype=np.int64)
        active_r = np.empty(0, dtype=id_dtype)
        row_live = np.zeros(num_rows, dtype=bool)
        visited_flat = visited.reshape(-1)

        while True:
            if next_root < total and free_rows:
                take = min(len(free_rows), total - next_root)
                new_r = np.array(free_rows[-take:][::-1], dtype=id_dtype)
                del free_rows[-take:]
                new_s = np.arange(next_root, next_root + take, dtype=np.int32)
                new_v = roots[next_root : next_root + take]
                next_root += take
                sample_of_row[new_r] = new_s
                row_live[new_r] = True
                visited[new_r, new_v] = stamps[new_r]
                member_samples.append(new_s)
                member_nodes.append(new_v.astype(np.int32))
                active_s = np.concatenate([active_s, new_s])
                active_v = np.concatenate([active_v, new_v])
                active_r = np.concatenate([active_r, new_r])
            if active_v.size == 0:
                break
            if active_v.size <= self.TAIL_CUTOVER_PAIRS and next_root >= total:
                self._finish_tail(
                    active_s, active_r, active_v, 0, visited, stamps, None, source,
                    member_samples, member_nodes, trace_samples, trace_edge_ids,
                )
                break
            hit_pos, hit_v, hit_e = self._expand_wave(active_v, source)
            if trace_samples is not None and hit_pos.size:
                # Traces record every successful coin — captured before the
                # visited filter and the within-wave dedup, because a success
                # into an already-reached member is still a live edge.
                trace_samples.append(sample_of_row[active_r[hit_pos]])
                trace_edge_ids.append(hit_e.astype(np.int32))
            key = np.empty(0, dtype=id_dtype)
            if hit_pos.size:
                # One flat (row·n + node) key drives everything: the visited
                # lookup, the within-wave dedup (in-place sort + adjacent
                # diff beats a hash-based unique here), and the row write.
                hit_r = active_r[hit_pos]
                key = hit_r * id_dtype(n) + hit_v.astype(id_dtype, copy=False)
                key = key[visited_flat[key] != stamps[hit_r]]
            if key.size:
                key.sort()
                if key.size > 1:
                    keep = np.empty(key.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(key[1:], key[:-1], out=keep[1:])
                    key = key[keep]
                cand_r = key // id_dtype(n)
                visited_flat[key] = stamps[cand_r]
                cand_node = key % id_dtype(n)
                cand_v = cand_node.astype(np.int64, copy=False)
                cand_s = sample_of_row[cand_r]
                member_samples.append(cand_s)
                member_nodes.append(cand_node.astype(np.int32, copy=False))
            else:
                cand_s = np.empty(0, dtype=np.int32)
                cand_v = np.empty(0, dtype=np.int64)
                cand_r = np.empty(0, dtype=id_dtype)
            # Rows whose frontier died this wave are retired and recycled.
            # Row bookkeeping is O(rows + frontier), no sorting.
            still_live = np.zeros(num_rows, dtype=bool)
            still_live[cand_r] = True
            finished = np.flatnonzero(row_live & ~still_live)
            if finished.size:
                _retire_rows(visited, stamps, finished)
                free_rows.extend(finished.tolist())
            row_live = still_live
            active_s, active_v, active_r = cand_s, cand_v, cand_r

        self._commit(roots, member_samples, member_nodes, None, out,
                     trace_samples, trace_edge_ids)

    def _expand_chunk(
        self,
        chunk_roots: np.ndarray,
        source: RandomSource,
        out: FlatRRCollection,
        visited: np.ndarray,
        stamps: np.ndarray,
    ) -> None:
        """Level-synchronous driver for ``max_depth``-truncated sampling.

        Wave ``d`` expands exactly the nodes at live distance ``d``, so a
        member's recorded depth is its true live distance and truncation is
        exact.  Sample ``i`` of the chunk owns row ``i`` of ``visited``
        (which has at least ``len(chunk_roots)`` rows); the rows are retired
        before return.
        """
        n = self.graph.n
        in_deg = self._np_in_deg
        batch = chunk_roots.size
        id_dtype = np.int32 if batch * n < 2**31 else np.int64
        sample_ids = np.arange(batch, dtype=np.int64)
        visited[sample_ids, chunk_roots] = stamps[sample_ids]
        member_samples = [sample_ids]
        member_nodes = [chunk_roots]
        trace_samples: list[np.ndarray] | None = [] if self.trace_edges else None
        trace_edge_ids: list[np.ndarray] | None = [] if self.trace_edges else None
        # Depth-truncated width needs the running per-wave total: members
        # sitting exactly at the horizon contribute no examined edges.
        widths = np.zeros(batch, dtype=np.int64)

        active_s, active_v = sample_ids, chunk_roots
        depth = 0
        while active_v.size:
            if depth >= self.max_depth:
                break
            if active_v.size <= self.TAIL_CUTOVER_PAIRS:
                self._finish_tail(
                    active_s, active_s, active_v, depth, visited, stamps, widths, source,
                    member_samples, member_nodes, trace_samples, trace_edge_ids,
                )
                break
            # w(R) counts every in-edge of every expanded member (Equation 1).
            widths += np.bincount(
                active_s, weights=in_deg[active_v], minlength=batch
            ).astype(np.int64)
            hit_pos, hit_v, hit_e = self._expand_wave(active_v, source)
            if hit_pos.size == 0:
                break
            if trace_samples is not None:
                trace_samples.append(active_s[hit_pos])
                trace_edge_ids.append(hit_e)
            hit_s = active_s[hit_pos]
            fresh = visited[hit_s, hit_v] != stamps[hit_s]
            hit_s, hit_v = hit_s[fresh], hit_v[fresh]
            if hit_s.size == 0:
                break
            key = np.unique(
                hit_s.astype(id_dtype, copy=False) * id_dtype(n)
                + hit_v.astype(id_dtype, copy=False)
            )
            cand_s = (key // id_dtype(n)).astype(np.int64, copy=False)
            cand_v = (key % id_dtype(n)).astype(np.int64, copy=False)
            visited[cand_s, cand_v] = stamps[cand_s]
            member_samples.append(cand_s)
            member_nodes.append(cand_v)
            active_s, active_v = cand_s, cand_v
            depth += 1

        _retire_rows(visited, stamps, sample_ids)
        self._commit(chunk_roots, [np.concatenate(member_samples)],
                     [np.concatenate(member_nodes)], widths, out,
                     trace_samples, trace_edge_ids)

    def _commit(
        self,
        roots: np.ndarray,
        member_samples: list[np.ndarray],
        member_nodes: list[np.ndarray],
        widths: np.ndarray | None,
        out: FlatRRCollection,
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Append the batch to ``out`` through the shared
        :func:`~repro.rrset.commit.commit_batch`, which consumes the lists.

        Each set keeps its members in discovery order, root first, and its
        trace in coin order.  ``widths`` is ``None`` for unbounded sampling:
        w(R) is then Σ in-degree over the final membership.
        """
        commit_batch(out, roots, member_samples, member_nodes, self._np_in_deg,
                     widths=widths, trace_samples=trace_samples,
                     trace_edge_ids=trace_edge_ids)

    def _finish_tail(
        self,
        active_s: np.ndarray,
        active_r: np.ndarray,
        active_v: np.ndarray,
        depth: int,
        visited: np.ndarray,
        stamps: np.ndarray,
        widths: np.ndarray | None,
        source: RandomSource,
        member_samples: list[np.ndarray],
        member_nodes: list[np.ndarray],
        trace_samples: list[np.ndarray] | None = None,
        trace_edge_ids: list[np.ndarray] | None = None,
    ) -> None:
        """Finish the few remaining frontiers with the scalar BFS.

        Numpy call overhead dominates waves this small, and deep RR sets
        (long weighted-cascade chains) would otherwise pay it per level.
        Shares the driver's visited matrix (``active_r`` names each pair's
        row); each expanded node's in-edges come straight off the CSR slice
        (one ``tolist`` per node — deliberately *not* the full cached
        adjacency, so pool workers never materialise the whole graph as
        Python lists).  Coin order differs from the wave path but the
        sampled distribution is identical.  FIFO with explicit depths keeps
        ``max_depth`` truncation exact: with a stack, a node first reached
        via a long live path would be marked visited and lose the expansion
        budget its shortest live path grants.
        ``widths`` is only accumulated for the bounded driver; the streaming
        driver derives widths from the final membership instead.  A node is
        visited when its cell holds its row's stamp, as in the waves.
        """
        from collections import deque

        random01 = source.py.random
        graph = self.graph
        in_ptr = graph.in_ptr
        in_idx = graph.in_idx
        in_prob = graph.in_prob
        max_depth = self.max_depth
        extra_s: list[int] = []
        extra_v: list[int] = []
        tracing = trace_samples is not None
        extra_ts: list[int] = []
        extra_te: list[int] = []
        queue = deque(
            (int(s), int(r), int(v), depth)
            for s, r, v in zip(active_s.tolist(), active_r.tolist(), active_v.tolist())
        )
        while queue:
            sample, row_id, current, level = queue.popleft()
            if max_depth is not None and level >= max_depth:
                continue
            lo, hi = int(in_ptr[current]), int(in_ptr[current + 1])
            neighbors = in_idx[lo:hi].tolist()
            probs = in_prob[lo:hi].tolist()
            if widths is not None:
                widths[sample] += len(neighbors)
            row = visited[row_id]
            mark = stamps[row_id]
            for index in range(len(neighbors)):
                if random01() < probs[index]:
                    if tracing:
                        extra_ts.append(sample)
                        extra_te.append(lo + index)
                    source_node = neighbors[index]
                    if row[source_node] != mark:
                        row[source_node] = mark
                        extra_s.append(sample)
                        extra_v.append(source_node)
                        queue.append((sample, row_id, source_node, level + 1))
        if extra_s:
            member_samples.append(np.asarray(extra_s, dtype=np.int32))
            member_nodes.append(np.asarray(extra_v, dtype=np.int32))
        if tracing and extra_ts:
            trace_samples.append(np.asarray(extra_ts, dtype=np.int32))
            trace_edge_ids.append(np.asarray(extra_te, dtype=np.int32))

    def _expand_wave(
        self, active_v: np.ndarray, source: RandomSource
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One frontier wave: every in-edge coin of ``active_v`` at once.

        Returns ``(positions, source_nodes, edge_ids)`` of the successful
        coins — ``positions`` index into ``active_v`` so callers can recover
        the owning sample/row — undeduplicated.  ``edge_ids`` are the
        successful coins' in-CSR positions when ``trace_edges`` is on
        (``None`` otherwise; both sub-paths already compute them, so tracing
        costs one extra gather and no extra randomness).  Nodes with one
        shared in-probability skip between successes
        (:meth:`_expand_gaps`); the rest flip every coin
        (:meth:`_expand_per_edge`); nodes none of whose coins can succeed
        draw nothing.
        """
        scale = self._np_gap_scale[active_v]
        out_pos: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        out_e: list[np.ndarray] | None = [] if self.trace_edges else None
        skip = np.flatnonzero(scale < np.inf)
        if skip.size:
            self._expand_gaps(skip, active_v[skip], scale[skip], source,
                              out_pos, out_v, out_e)
        flip = np.flatnonzero(np.isnan(scale))
        if flip.size:
            frontier = active_v[flip]
            self._expand_per_edge(flip, self.graph.in_ptr[frontier],
                                  self._np_in_deg[frontier], source, out_pos, out_v, out_e)
        if not out_pos:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, (empty if self.trace_edges else None)
        return (
            np.concatenate(out_pos),
            np.concatenate(out_v),
            np.concatenate(out_e) if out_e is not None else None,
        )

    def _expand_gaps(self, positions, frontier_v, scale, source, out_pos, out_v,
                     out_e=None) -> None:
        """Geometric-gap expansion of nodes whose in-edges share one p.

        The successes among a node's ``d`` iid Bernoulli(p) coins sit at the
        running sums of iid Geometric(p) gaps that stay below ``d``.  Each
        round draws one gap per live node (``⌊E·c⌋``, see ``_np_gap_scale``),
        records the coin it lands on as a success, edge ``in_ptr[v] +
        position``, and drops the nodes it carries past their slice.  Nodes
        still live after :attr:`GAP_ROUNDS` rounds flip the coins after their
        last success one by one.
        """
        graph = self.graph
        start = graph.in_ptr[frontier_v]
        deg = self._np_in_deg[frontier_v]
        at = np.full(frontier_v.size, -1.0)  # position of the last success
        for _ in range(self.GAP_ROUNDS):
            gap = source.np.standard_exponential(at.size)
            gap *= scale
            np.floor(gap, out=gap)
            at += gap
            at += 1.0
            live = np.flatnonzero(at < deg)
            if live.size == 0:
                return
            if live.size < at.size:
                positions, start, deg = positions[live], start[live], deg[live]
                scale, at = scale[live], at[live]
            edges = start + at.astype(np.int64)
            out_pos.append(positions)
            out_v.append(graph.in_idx[edges])
            if out_e is not None:
                out_e.append(edges)
        first = start + at.astype(np.int64) + 1
        rest = start + deg - first
        more = np.flatnonzero(rest > 0)
        if more.size:
            self._expand_per_edge(positions[more], first[more], rest[more], source,
                                  out_pos, out_v, out_e)

    def _expand_per_edge(self, positions, starts, lengths, source, out_pos, out_v,
                         out_e=None) -> None:
        """Batched coin flips over the in-CSR slices ``[starts, starts + lengths)``.

        Every length must be positive.
        """
        graph = self.graph
        ends = np.cumsum(lengths)
        total = int(ends[-1])
        # Concatenated CSR ranges via the diff/cumsum trick: step 1 within a
        # slice, jump to the next slice's start at each boundary.
        edge_idx = np.ones(total, dtype=np.int64)
        edge_idx[0] = starts[0]
        if ends.size > 1:
            edge_idx[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        np.cumsum(edge_idx, out=edge_idx)
        success_at = np.flatnonzero(source.np.random(total) < graph.in_prob[edge_idx])
        if success_at.size == 0:
            return
        # Map successful edge positions back to their frontier entry.
        success_edges = edge_idx[success_at]
        out_pos.append(positions[np.searchsorted(ends, success_at, side="right")])
        out_v.append(graph.in_idx[success_edges])
        if out_e is not None:
            out_e.append(success_edges)
