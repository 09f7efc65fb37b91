"""RR-set sampling under the independent cascade model (Section 3.1).

The paper's randomized reverse BFS: starting at the root, for each in-edge
of a dequeued node flip a coin with the edge's probability and enqueue the
(unvisited) source on success.

:meth:`ICRRSampler.sample_batch` grows many RR sets *simultaneously* as one
level-synchronous reverse BFS over ``(sample, node)`` pairs.  Each wave
gathers the in-edges of the whole frontier straight from
``DiGraph.in_ptr``/``in_idx``/``in_prob`` with a CSR range-gather, decides
every coin in one ``rng.np.random(len(slice))`` call, and deduplicates newly
reached pairs against a per-chunk visited matrix.  Frontier nodes whose
in-edges share one probability (the weighted-cascade common case) are
additionally eligible for *geometric-skip* sampling: gaps between Bernoulli
successes are Geometric(p), so for a run of ``T`` edges at probability ``p``
only ``≈ T·p`` geometric draws are needed instead of ``T`` uniforms — same
distribution, far fewer random numbers.  The whole batch is returned as a
:class:`~repro.rrset.flat_collection.FlatRRCollection`, so no per-set
Python objects are created on the hot path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.obs import runtime as obs
from repro.obs.registry import SIZE_BUCKETS
from repro.rrset.base import RRSampler
from repro.rrset.commit import commit_batch
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import RandomSource, resolve_rng

__all__ = ["ICRRSampler"]


def _geometric_positions(npgen, p: float, total: int) -> np.ndarray:
    """Positions of successes in ``total`` iid Bernoulli(p) trials.

    Exact skip sampling: gaps between successive successes (and before the
    first) are iid Geometric(p), so drawing gaps and cumulative-summing them
    visits only the ≈ ``total·p`` successes instead of all ``total`` trials.
    Draws in slabs sized to overshoot the end with high probability; loops
    when a slab falls short.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks: list[np.ndarray] = []
    last = -1  # position of the most recent success
    while True:
        remaining = total - (last + 1)
        if remaining <= 0:
            break
        expected = remaining * p
        slab = int(expected + 6.0 * math.sqrt(expected + 1.0) + 16.0)
        gaps = npgen.geometric(p, size=slab)
        positions = last + np.cumsum(gaps)
        cut = int(np.searchsorted(positions, total))
        chunks.append(positions[:cut])
        if cut < positions.size:
            break  # the slab crossed the end of the trial run: done
        last = int(positions[-1])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


class ICRRSampler(RRSampler):
    """Randomized reverse BFS generating IC RR sets."""

    model_name = "IC"

    #: Minimum concatenated edge count of a same-probability frontier group
    #: before geometric-skip sampling replaces per-edge uniform draws.  One
    #: batched uniform draw costs ~1 ns/edge, so the grouping argsort plus
    #: per-group python overhead only pays off for long same-p runs
    #: (high-degree hubs or very homogeneous frontiers).
    GEOMETRIC_SKIP_MIN_EDGES = 4096

    #: Upper bounds on the visited-bitmap row pool: at most this many
    #: boolean cells (rows · n, i.e. at most 16 MiB of scratch) and at most
    #: this many concurrent samples.  Measured sweet spot: much smaller and
    #: the waves lose their numpy amortisation, much bigger and the
    #: scattered bitmap accesses fall out of last-level cache.
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
        finite = self._np_unif_p[np.isfinite(self._np_unif_p)]
        #: Few distinct uniform probabilities (e.g. a constant-p graph) ⇒
        #: frontier groups are large and geometric skip pays; many distinct
        #: values (weighted cascade on a degree-diverse graph) ⇒ groups are
        #: shards and only high-degree hubs are worth it.
        self._distinct_uniform_probs = int(np.unique(finite).size)
        self._np_in_deg = graph.in_degrees()
        self._max_in_degree = int(self._np_in_deg.max()) if self._np_in_deg.size else 0

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
          visited-bitmap rows grows many RR sets concurrently and admits the
          next root the moment a row frees up, so the frontier stays wide
          and numpy call overhead is amortised across the whole batch;
        * ``max_depth`` sampling processes fixed chunks level-synchronously
          (every wave is one BFS depth), so each member's depth is its live
          distance and truncation is exact.
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
        with obs.trace("sampling.ic_batch", sets=int(roots.size)):
            if self.max_depth is None:
                self._sample_stream(roots, source, out, visited)
            else:
                for start in range(0, roots.size, rows):
                    self._expand_chunk(roots[start : start + rows], source, out, visited)
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
    ) -> None:
        """Streaming driver: grow all RR sets through one shared frontier.

        Each in-flight sample owns one row of ``visited``; finished rows are
        wiped (one contiguous memset) and recycled to admit the next root,
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
                visited[new_r, new_v] = True
                member_samples.append(new_s)
                member_nodes.append(new_v.astype(np.int32))
                active_s = np.concatenate([active_s, new_s])
                active_v = np.concatenate([active_v, new_v])
                active_r = np.concatenate([active_r, new_r])
            if active_v.size == 0:
                break
            if active_v.size <= self.TAIL_CUTOVER_PAIRS and next_root >= total:
                self._finish_tail(
                    active_s, active_r, active_v, 0, visited, None, source,
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
                # diff beats a hash-based unique here), and the bitmap write.
                key = active_r[hit_pos] * id_dtype(n) + hit_v.astype(id_dtype, copy=False)
                key = key[~visited_flat[key]]
            if key.size:
                key.sort()
                if key.size > 1:
                    keep = np.empty(key.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(key[1:], key[:-1], out=keep[1:])
                    key = key[keep]
                visited_flat[key] = True
                cand_r = key // id_dtype(n)
                cand_node = key % id_dtype(n)
                cand_v = cand_node.astype(np.int64, copy=False)
                cand_s = sample_of_row[cand_r]
                member_samples.append(cand_s)
                member_nodes.append(cand_node.astype(np.int32, copy=False))
            else:
                cand_s = np.empty(0, dtype=np.int32)
                cand_v = np.empty(0, dtype=np.int64)
                cand_r = np.empty(0, dtype=id_dtype)
            # Rows whose frontier died this wave are wiped and recycled.
            # Bitmap bookkeeping is O(rows + frontier), no sorting.
            still_live = np.zeros(num_rows, dtype=bool)
            still_live[cand_r] = True
            finished = np.flatnonzero(row_live & ~still_live)
            if finished.size:
                visited[finished] = False
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
    ) -> None:
        """Level-synchronous driver for ``max_depth``-truncated sampling.

        Wave ``d`` expands exactly the nodes at live distance ``d``, so a
        member's recorded depth is its true live distance and truncation is
        exact.
        ``visited`` is an all-False scratch matrix with at least
        ``len(chunk_roots)`` rows; touched cells are cleared before return.
        """
        n = self.graph.n
        in_deg = self._np_in_deg
        batch = chunk_roots.size
        id_dtype = np.int32 if batch * n < 2**31 else np.int64
        sample_ids = np.arange(batch, dtype=np.int64)
        visited[sample_ids, chunk_roots] = True
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
                    active_s, active_s, active_v, depth, visited, widths, source,
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
            fresh = ~visited[hit_s, hit_v]
            hit_s, hit_v = hit_s[fresh], hit_v[fresh]
            if hit_s.size == 0:
                break
            key = np.unique(
                hit_s.astype(id_dtype, copy=False) * id_dtype(n)
                + hit_v.astype(id_dtype, copy=False)
            )
            cand_s = (key // id_dtype(n)).astype(np.int64, copy=False)
            cand_v = (key % id_dtype(n)).astype(np.int64, copy=False)
            visited[cand_s, cand_v] = True
            member_samples.append(cand_s)
            member_nodes.append(cand_v)
            active_s, active_v = cand_s, cand_v
            depth += 1

        all_s = np.concatenate(member_samples)
        all_v = np.concatenate(member_nodes)
        visited[all_s, all_v] = False  # reset scratch for the next chunk
        self._commit(chunk_roots, [all_s], [all_v], widths, out,
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
        driver derives widths from the final membership instead.
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
            for index in range(len(neighbors)):
                if random01() < probs[index]:
                    if tracing:
                        extra_ts.append(sample)
                        extra_te.append(lo + index)
                    source_node = neighbors[index]
                    if not row[source_node]:
                        row[source_node] = True
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
        """One frontier wave: flip every in-edge coin of ``active_v`` at once.

        Returns ``(positions, source_nodes, edge_ids)`` of the successful
        flips — ``positions`` index into ``active_v`` so callers can recover
        the owning sample/row — undeduplicated.  ``edge_ids`` are the
        successful coins' in-CSR positions when ``trace_edges`` is on
        (``None`` otherwise; both sub-paths already compute them, so tracing
        costs one extra gather and no extra randomness).  Uniform-probability
        frontier groups with enough edges go through geometric-skip sampling;
        the rest use one batched uniform draw over the concatenated CSR edge
        slices.
        """
        deg = self._np_in_deg[active_v]
        positions = np.flatnonzero(deg > 0)
        if positions.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, (empty if self.trace_edges else None)
        if positions.size < active_v.size:
            active_v, deg = active_v[positions], deg[positions]

        skip_mask = np.zeros(active_v.size, dtype=bool)
        # Grouping by probability costs an argsort per wave; only attempt it
        # when the wave is big enough AND same-p runs can plausibly clear the
        # per-group threshold: either the graph has few distinct uniform
        # probabilities (groups span most of the wave) or it has genuine
        # high-degree hubs (a single node is a long run by itself).
        if (
            int(deg.sum()) >= self.GEOMETRIC_SKIP_MIN_EDGES
            and (
                self._distinct_uniform_probs <= 8
                or self._max_in_degree >= self.GEOMETRIC_SKIP_MIN_EDGES // 4
            )
        ):
            skip_mask = np.isfinite(self._np_unif_p[active_v])
        out_pos: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        out_e: list[np.ndarray] | None = [] if self.trace_edges else None
        if skip_mask.any():
            chosen = np.flatnonzero(skip_mask)
            demoted = self._expand_uniform_groups(
                positions[chosen], active_v[chosen], deg[chosen], source,
                out_pos, out_v, out_e,
            )
            if demoted is not None:
                # Groups too small for skip sampling rejoin the flip path.
                skip_mask[chosen[demoted]] = False
        flip_mask = ~skip_mask
        if flip_mask.any():
            self._expand_per_edge(
                positions[flip_mask], active_v[flip_mask], deg[flip_mask],
                source, out_pos, out_v, out_e,
            )
        if not out_pos:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, (empty if self.trace_edges else None)
        return (
            np.concatenate(out_pos),
            np.concatenate(out_v),
            np.concatenate(out_e) if out_e is not None else None,
        )

    def _expand_per_edge(self, positions, frontier_v, deg, source, out_pos, out_v,
                         out_e=None) -> None:
        """Batched per-edge coin flips over the frontier's CSR edge slices."""
        graph = self.graph
        total = int(deg.sum())
        if total == 0:
            return
        ends = np.cumsum(deg)
        # Concatenated CSR ranges via the diff/cumsum trick: step 1 within a
        # node's slice, jump to the next node's start at each boundary.
        starts = graph.in_ptr[frontier_v]
        edge_idx = np.ones(total, dtype=np.int64)
        edge_idx[0] = starts[0]
        if ends.size > 1:
            edge_idx[ends[:-1]] = starts[1:] - starts[:-1] - deg[:-1] + 1
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

    def _expand_uniform_groups(
        self, positions, frontier_v, deg, source, out_pos, out_v, out_e=None
    ) -> np.ndarray | None:
        """Geometric-skip expansion for uniform-probability frontier nodes.

        Nodes are grouped by their shared in-probability ``p``; within a
        group the concatenated edge stream is a run of iid Bernoulli(p)
        trials, so success positions are recovered from Geometric(p) gaps.
        Returns indices (into the given frontier) of nodes whose group was
        too small to benefit, or ``None`` when every group qualified.
        """
        graph = self.graph
        probs = self._np_unif_p[frontier_v]
        order = np.argsort(probs, kind="stable")
        probs_sorted = probs[order]
        group_starts = np.flatnonzero(np.r_[True, np.diff(probs_sorted) != 0])
        group_ends = np.r_[group_starts[1:], probs_sorted.size]
        demoted: list[np.ndarray] = []
        for lo, hi in zip(group_starts, group_ends):
            members = order[lo:hi]
            group_deg = deg[members]
            total = int(group_deg.sum())
            p = float(probs_sorted[lo])
            if total < self.GEOMETRIC_SKIP_MIN_EDGES:
                demoted.append(members)
                continue
            success_at = _geometric_positions(source.np, p, total)
            if success_at.size == 0:
                continue
            cum = np.cumsum(group_deg)
            segment = np.searchsorted(cum, success_at, side="right")
            local = success_at - (cum[segment] - group_deg[segment])
            nodes = frontier_v[members]
            success_edges = graph.in_ptr[nodes][segment] + local
            out_pos.append(positions[members][segment])
            out_v.append(graph.in_idx[success_edges])
            if out_e is not None:
                out_e.append(success_edges)
        if not demoted:
            return None
        return np.concatenate(demoted)
