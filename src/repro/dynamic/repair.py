"""Incremental RR-sketch repair under single-edge graph updates.

A cold :class:`~repro.sketch.index.SketchIndex` rebuild resamples all θ RR
sets after *any* graph change.  This module repairs the collection instead:
it identifies exactly the RR sets whose generation could have been changed
by the update, rewrites only those, and splices the replacements into a
fresh packed collection.  A traced IC collection shrinks or extends them
over their stored live edges; LT and untraced collections resample them
with their original roots, through whatever sampler the caller provides —
typically a :class:`~repro.parallel.engine.ParallelSampler`, whose
``SeedSequence.spawn`` shard streams and shard-order merge keep the repair
deterministic for any worker count.

Invalidation policy
-------------------
The reverse traversals only ever *examine* in-edges of visited nodes, so a
set whose generation never looked at the updated edge is — under the
standard live-edge coupling — **exactly** the set the new graph would have
produced from the same coins.  With live-edge traces
(:attr:`FlatRRCollection.trace_edges_array`) the policy tightens further;
per model and operation on edge ``u -> v`` (old in-CSR id ``q``, old slice
``[lo, hi)`` of ``v``):

===========  =====================================  =================================
op           IC (trace = successful coins)          LT (trace = chosen edge per node)
===========  =====================================  =================================
insert       ``v ∈ R``                              ``v ∈ R`` and v's draw hit the
                                                    stop mass (no trace edge in
                                                    ``[lo, hi)`` — the appended edge
                                                    only occupies new CDF mass)
delete       ``q ∈ trace`` (a failed coin stays     trace edge in ``[q, hi)`` (picks
             failed when the edge disappears)       before ``q`` keep their CDF
                                                    prefix; the stop mass only grows)
reweight ↓   ``q ∈ trace``                          trace edge in ``[q, hi)``
reweight ↑   ``v ∈ R`` and ``q ∉ trace`` (a         ``v ∈ R`` and no trace edge in
             successful coin stays successful)      ``[lo, q)``
===========  =====================================  =================================

Without traces every rule degrades to the safe coarse criterion ``v ∈ R``.

Every rule selects among the sets that contain ``v``, because an in-edge
of ``v`` is examined (and so traced) only while expanding ``v``.  Those
sets come from ``v``'s slice of the postings (node → set ids) when the
caller has them built, and from one scan of the node payload otherwise;
the trace conditions then read only those sets' traces.

Kept sets are patched where the topology change shifts their *width* (the
``w(R)`` behind KPT): deleting ``u -> v`` lowers every kept member-set's
width by one; an LT insert raises it (IC inserts invalidate all member
sets, so nothing to patch).

Exactness
---------
For **IC with traces** repair is *exact in distribution* — the repaired
collection is a draw from the new graph's RR distribution, no resampling
involved.  The trace records every live examined edge, which is the whole
of the sample's randomness that survives an update:

* **insert / reweight ↑** — conditioned on the invalidation event, the
  updated edge's coin is (re)flipped with exactly the conditional success
  probability (``p`` for a fresh edge, ``(p' − p)/(1 − p)`` for a coin that
  failed at ``p``); on success the reverse BFS *continues* from the edge's
  source with fresh coins, examining only in-edges of newly reached nodes
  (every member's in-edges were already examined — their coins stand).
* **delete / reweight ↓** — a live coin survives a down-weight with
  probability ``p'/p``; when it dies (always, for a delete) the member set
  shrinks to the nodes still reverse-reachable from the root **over the
  stored live edges**.  No coin needs redrawing: dropped nodes were only
  ever expanded because of the dead edge, so their coins "unhappen", and
  the surviving trace is exactly the new sample's live-edge record.  The
  keep-coins are drawn first, one per candidate in candidate order, and
  one vectorised reachability pass then shrinks every set that lost its
  coin.

Traced IC is the only exact path.  **LT** and **untraced** collections
resample each affected set fresh from its original root under the new
graph.  That keeps the root sequence, but it is *biased*, and the bias
is large at the updated edge's head ``v``: every affected set contains
``v`` (that is why it was flagged), while a fresh draw from the same root
reaches ``v`` no more often than an unconditioned set does, so after the
repair far fewer sets hold ``v`` than a cold sample of the new graph
would.  On ``weighted_cascade(gnm_random_digraph(2000, 20000, rng=5))``
with an untraced θ = 200k IC sketch, halving edge 9 → 846 drops
``spread([846])`` from 49.0 to 2.5, against 48.0 after a cold rebuild; a
traced sketch keeps 49.0.  ROADMAP item 10 replaces this path (exact LT
rules on traces, and traced-only repair).  Kept sets are exact in every
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.delta import GraphDelta
from repro.rrset.coverage import _gather_members, _splice_payload
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.validation import require

__all__ = ["RepairReport", "affected_set_ids", "repair_collection"]

#: Models whose invalidation rules are implemented.  Bounded-horizon IC is
#: deliberately absent: an edge update can change members' *live distances*,
#: so membership-based invalidation is unsound under depth truncation.
SUPPORTED_MODELS = ("IC", "LT")


@dataclass(frozen=True)
class RepairReport:
    """What one :func:`repair_collection` call did.

    ``num_candidates`` counts the sets the invalidation rule flagged;
    ``num_affected`` the sets whose stored bytes actually changed (on the
    exact IC path a flagged set survives unchanged when its conditional
    coin keeps the old outcome).  ``exact`` distinguishes the
    distribution-exact IC trace repair from the resampling path.
    ``replaced`` holds the sorted ids of the ``num_affected`` sets whose
    stored bytes were replaced (what a postings patch reads); it stays out
    of :meth:`as_dict`, which is the update reply's wire form.
    """

    op: str
    u: int
    v: int
    model: str
    num_sets: int
    num_affected: int
    num_patched: int
    used_traces: bool
    num_candidates: int = 0
    exact: bool = False
    replaced: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64),
                                 compare=False, repr=False)

    @property
    def affected_fraction(self) -> float:
        return self.num_affected / self.num_sets if self.num_sets else 0.0

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "u": self.u,
            "v": self.v,
            "model": self.model,
            "num_sets": self.num_sets,
            "num_affected": self.num_affected,
            "num_candidates": self.num_candidates,
            "num_patched": self.num_patched,
            "used_traces": self.used_traces,
            "exact": self.exact,
            "affected_fraction": self.affected_fraction,
        }


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def _member_set_ids(collection: FlatRRCollection, v: int,
                    postings: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Sorted ids of sets containing node ``v``.

    ``postings`` is the collection's ``(inv_ptr, inv_sets)`` node → set-ids
    index, when one is built; the answer is then a copy of ``v``'s slice
    (the caller's report outlives the index's postings).  Without it, one
    scan of the node payload.
    """
    if postings is not None:
        inv_ptr, inv_sets = postings
        return inv_sets[inv_ptr[v] : inv_ptr[v + 1]].copy()
    hits = np.flatnonzero(collection.nodes_array == v)
    if hits.size == 0:
        return hits
    # Entry j belongs to the set whose ptr range covers j; members are
    # unique per set, so the result is already sorted and duplicate-free.
    return np.searchsorted(collection.ptr_array, hits, side="right") - 1


def _holds_trace_edge(collection: FlatRRCollection, set_ids: np.ndarray,
                      lo: int, hi: int) -> np.ndarray:
    """Mask over ``set_ids``: whose trace holds an edge id in ``[lo, hi)``.

    Reads only the given sets' traces.  Every caller passes the sets that
    contain ``v`` and a range inside ``v``'s in-slice, so no set outside
    them could match.
    """
    trace_ptr = collection.trace_ptr_array
    edges = _gather_members(trace_ptr, collection.trace_edges_array, set_ids)
    owners = np.repeat(np.arange(set_ids.size), trace_ptr[set_ids + 1] - trace_ptr[set_ids])
    inside = (edges >= lo) & (edges < hi)
    return np.bincount(owners[inside], minlength=set_ids.size) > 0


def affected_set_ids(collection: FlatRRCollection, delta: GraphDelta,
                     model_name: str) -> np.ndarray:
    """Sorted ids of RR sets the update could have changed (see module doc)."""
    require(model_name in SUPPORTED_MODELS,
            f"incremental repair supports models {SUPPORTED_MODELS}; got {model_name!r}")
    return _affected(collection, delta, model_name,
                     _member_set_ids(collection, delta.v, None))


def _affected(collection: FlatRRCollection, delta: GraphDelta, model_name: str,
              members: np.ndarray) -> np.ndarray:
    """:func:`affected_set_ids`, given ``members``, the sets holding ``v``."""
    op, q, lo, hi = delta.op, delta.in_pos, delta.slice_lo, delta.slice_hi
    if op == "reweight" and delta.new_prob == delta.old_prob:
        return np.empty(0, dtype=np.int64)
    if not collection.has_traces:
        # Coarse but safe: the update edge could only be examined while
        # expanding v.
        return members
    down = op == "delete" or (op == "reweight" and delta.new_prob < delta.old_prob)
    if model_name == "IC":
        if op == "insert":
            return members  # the new coin is flipped wherever v was expanded
        # A dead or down-weighted coin matters only where it succeeded; an
        # up-weight only where it failed (same uniform, larger threshold).
        live = _holds_trace_edge(collection, members, q, q + 1)
        return members[live] if down else members[~live]
    # LT: each visited node consumed one inverse-CDF draw over its slice.
    if op == "insert":
        # The appended edge sorts last in the slice, claiming CDF mass that
        # previously belonged to "stop": only stop-draws can flip.
        return members[~_holds_trace_edge(collection, members, lo, hi)]
    if down:
        # CDF positions before q are untouched; picks at or after q (and
        # nothing else) can shift.
        return members[_holds_trace_edge(collection, members, q, hi)]
    # Reweight up: picks strictly before q are safe, everything else
    # (later picks and stop-draws) sits on shifted CDF mass.
    return members[~_holds_trace_edge(collection, members, lo, q)]


# ----------------------------------------------------------------------
# Exact IC repair (extension / shrink over the stored live edges)
# ----------------------------------------------------------------------
def _extend_ic(new_graph, member_set: set, start: int, random01,
               trace_out: list) -> list[int]:
    """Continue the reverse BFS from ``start`` with fresh coins.

    Only in-edges of *newly* reached nodes are examined — every existing
    member's in-edges were examined during the original generation and
    their coins stand.  Successful coins (including into existing members)
    are appended to ``trace_out`` as new-graph in-CSR ids.
    """
    new_nodes: list[int] = []
    if start in member_set:
        return new_nodes
    in_ptr, in_idx, in_prob = new_graph.in_ptr, new_graph.in_idx, new_graph.in_prob
    member_set.add(start)
    new_nodes.append(start)
    frontier = [start]
    while frontier:
        current = frontier.pop()
        lo, hi = int(in_ptr[current]), int(in_ptr[current + 1])
        for position in range(lo, hi):
            if random01() < in_prob[position]:
                trace_out.append(position)
                source_node = int(in_idx[position])
                if source_node not in member_set:
                    member_set.add(source_node)
                    new_nodes.append(source_node)
                    frontier.append(source_node)
    return new_nodes


def _shrink_ic(collection: FlatRRCollection, old_graph, set_ids: np.ndarray,
               dead_edge: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Members and traces of ``set_ids`` after their live edge ``dead_edge`` dies.

    Returns ``(ptr, members, trace_ptr, trace)``, CSR over ``set_ids`` in
    their order; each set keeps its surviving members and trace entries in
    stored order, the trace in the old graph's edge ids.

    The trace holds every live examined edge, so the post-update set is
    exactly the nodes still reverse-reachable from the root over the trace
    minus the dead edge; dropped nodes' coins "unhappen" (the new sampling
    would never have expanded them), so their trace entries go too.

    Every set is searched at once, over vertices that are the (set, member)
    pairs, where each live trace entry pulls its source in from its
    destination.  RR sets run deep (about a hundred hops on a
    weighted-cascade graph), so the search does not advance one hop per
    step.  Each vertex hangs off one live puller stored before it, which
    makes a forest (parents sit earlier, so there is no cycle), and
    pointer jumping marks every forest descendant of a reached vertex in
    log(depth) steps.  A live puller stored later (a member re-reached
    after an earlier shrink, or past the dead edge) is then followed one
    hop, and the two steps repeat until nothing changes; each round covers
    at least one hop of every path, and a sampled set needs one or two.
    """
    ptr, trace_ptr = collection.ptr_array, collection.trace_ptr_array
    count, n = set_ids.size, collection.num_nodes
    every = np.arange(count, dtype=np.int64)
    member_owners = np.repeat(every, ptr[set_ids + 1] - ptr[set_ids])
    members = _gather_members(ptr, collection.nodes_array, set_ids)
    # A vertex is the rank of its (set, node) key; a set holds each member
    # once, so the keys are distinct.  ``stored[vertex]`` is its position
    # in stored order.
    member_keys = member_owners * n + members
    stored = np.argsort(member_keys)
    vertex_keys = member_keys[stored]
    trace_owners = np.repeat(every, trace_ptr[set_ids + 1] - trace_ptr[set_ids])
    trace = _gather_members(trace_ptr, collection.trace_edges_array, set_ids)
    # Every lookup runs on sorted queries, which keeps its binary searches
    # short: by (set, edge id), the entries' destinations rise in vertex
    # order, and the sources are sorted on their own.
    by_edge = np.argsort(trace_owners * old_graph.m + trace)
    edges, owners = trace[by_edge], trace_owners[by_edge]
    head = np.searchsorted(
        vertex_keys, owners * n + np.searchsorted(old_graph.in_ptr, edges, side="right") - 1)
    live = edges != dead_edge
    pullers = head[live]
    source_keys = owners[live] * n + old_graph.in_idx[edges[live]]
    by_source = np.argsort(source_keys)
    pulled = np.empty_like(pullers)
    pulled[by_source] = np.searchsorted(vertex_keys, source_keys[by_source])

    # Any earlier puller will do as the parent; a forest root is its own.
    parent = np.arange(vertex_keys.size)
    earlier = stored[pullers] < stored[pulled]
    parent[pulled[earlier]] = pullers[earlier]
    reached = np.zeros(vertex_keys.size, dtype=bool)
    reached[np.searchsorted(vertex_keys, every * n + collection.roots_array[set_ids])] = True
    while True:
        up = parent  # each vertex's ancestor 2**k hops up, or its forest root
        while True:
            reached |= reached[up]
            higher = up[up]
            if np.array_equal(higher, up):
                break
            up = higher
        step = reached[pullers] & ~reached[pulled]
        if not step.any():
            break
        reached[pulled[step]] = True
    kept_members = np.empty(members.size, dtype=bool)
    kept_members[stored] = reached
    kept_trace = np.empty(trace.size, dtype=bool)
    kept_trace[by_edge] = live & reached[head]
    return (_csr_ptr(member_owners[kept_members], count), members[kept_members],
            _csr_ptr(trace_owners[kept_trace], count), trace[kept_trace])


def _csr_ptr(owners: np.ndarray, count: int) -> np.ndarray:
    """CSR pointers of ``count`` segments given each entry's segment id (sorted)."""
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=count), out=ptr[1:])
    return ptr


def _packed(arrays: list[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, payload)`` of a list of segments."""
    ptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(arrays)),
              out=ptr[1:])
    payload = np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)
    return ptr, payload.astype(dtype, copy=False)


def _grow_ic(collection: FlatRRCollection, delta: GraphDelta, candidates: np.ndarray,
             random01) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extension repair of an insert or up-weight (module doc).

    Returns ``(modified, ptr, members, trace_ptr, trace)``: the ids of the
    sets whose conditional coin fired and their new members and traces
    (new-graph edge ids), packed as CSR in that order.
    """
    if delta.op == "reweight":
        # A coin that failed at p succeeds at p' with the leftover mass.
        grow_probability = (delta.new_prob - delta.old_prob) / (1.0 - delta.old_prob) \
            if delta.old_prob < 1.0 else 0.0
    else:
        grow_probability = float(delta.new_prob)  # insert: fresh coin at p
    node_dtype = collection.nodes_array.dtype
    trace_dtype = collection.trace_edges_array.dtype
    ptr, nodes = collection.ptr_array, collection.nodes_array
    modified: list[int] = []
    repl_members: list[np.ndarray] = []
    repl_traces: list[np.ndarray] = []
    for set_id in candidates.tolist():
        if random01() >= grow_probability:
            continue  # the (conditional) coin failed: set stands
        members = nodes[ptr[set_id] : ptr[set_id + 1]]
        # delta.in_pos is the updated edge's id in the NEW graph for an
        # insert and is reweight-invariant, so it is valid as-is.
        extension_trace: list[int] = [delta.in_pos]
        extension = _extend_ic(delta.new_graph, set(members.tolist()), delta.u,
                               random01, extension_trace)
        modified.append(set_id)
        repl_members.append(np.concatenate([members, np.asarray(extension, dtype=node_dtype)]))
        repl_traces.append(np.concatenate([
            delta.remap_edge_ids(collection.trace_of(set_id)),
            np.asarray(extension_trace, dtype=trace_dtype),
        ]))
    return (np.asarray(modified, dtype=np.int64), *_packed(repl_members, node_dtype),
            *_packed(repl_traces, trace_dtype))


def _repair_ic_exact(collection: FlatRRCollection, delta: GraphDelta, members: np.ndarray,
                     source) -> tuple[FlatRRCollection, RepairReport]:
    """Distribution-exact repair for traced IC collections (module doc).

    ``members`` holds the ids of the sets that contain ``v``.
    """
    op = delta.op
    new_graph = delta.new_graph
    random01 = source.py.random
    candidates = _affected(collection, delta, "IC", members)
    trace_dtype = collection.trace_edges_array.dtype
    if op == "insert" or (op == "reweight" and delta.new_prob > delta.old_prob):
        affected, repl_ptr, repl_nodes, repl_trace_ptr, repl_trace = _grow_ic(
            collection, delta, candidates, random01)
    else:
        affected = candidates
        if op == "reweight" and candidates.size:
            # A live coin survives the down-weight with probability p'/p.
            # The shrink draws nothing, so drawing every keep-coin first, in
            # candidate order, is the stream of one draw per candidate.
            coins = np.fromiter((random01() for _ in range(candidates.size)),
                                dtype=np.float64, count=candidates.size)
            affected = candidates[coins >= delta.new_prob / delta.old_prob]
        repl_ptr, repl_nodes, repl_trace_ptr, repl_trace = _shrink_ic(
            collection, delta.old_graph, affected, delta.in_pos)
        repl_trace = delta.remap_edge_ids(repl_trace).astype(trace_dtype, copy=False)

    widths = collection.widths_array.astype(np.int64, copy=True)
    costs = collection.costs_array.astype(np.int64, copy=True)
    num_patched = 0
    if op in ("insert", "delete"):
        # v gained/lost an in-edge: every member set's width (and the IC
        # examined-edge cost) moves with it; modified sets are recomputed
        # from scratch below.
        untouched = members[~np.isin(members, affected, assume_unique=True)]
        num_patched = int(untouched.size)
        shift = 1 if op == "insert" else -1
        widths[untouched] += shift
        costs[untouched] += shift
    remapped = delta.remap_edge_ids(collection.trace_edges_array)
    if affected.size:
        # Each new w(R): the members' new in-degrees, summed per set.
        running = np.zeros(repl_nodes.size + 1, dtype=np.int64)
        np.cumsum(np.diff(new_graph.in_ptr)[repl_nodes], out=running[1:])
        repl_widths = running[repl_ptr[1:]] - running[repl_ptr[:-1]]
        widths[affected] = repl_widths
        costs[affected] = np.diff(repl_ptr) + repl_widths
        new_ptr, new_nodes = _splice_payload(
            collection.ptr_array, collection.nodes_array, repl_ptr, repl_nodes, affected)
        trace_ptr, trace_edges = _splice_payload(
            collection.trace_ptr_array, remapped, repl_trace_ptr, repl_trace, affected)
    else:
        new_ptr = collection.ptr_array.astype(np.int64, copy=True)
        new_nodes = collection.nodes_array.copy()
        trace_ptr = collection.trace_ptr_array.astype(np.int64, copy=True)
        trace_edges = remapped.copy() if remapped is collection.trace_edges_array else remapped

    repaired = FlatRRCollection.from_arrays(
        num_nodes=collection.num_nodes,
        graph_edges=new_graph.m,
        ptr=new_ptr,
        nodes=new_nodes,
        roots=collection.roots_array.copy(),
        widths=widths,
        costs=costs,
        trace_ptr=trace_ptr,
        trace_edges=trace_edges,
    )
    report = RepairReport(
        op=op,
        u=delta.u,
        v=delta.v,
        model="IC",
        num_sets=len(collection),
        num_affected=int(affected.size),
        num_candidates=int(candidates.size),
        num_patched=num_patched,
        used_traces=True,
        exact=True,
        replaced=affected,
    )
    return repaired, report


def repair_collection(collection: FlatRRCollection, delta: GraphDelta, sampler,
                      rng=None, postings: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> tuple[FlatRRCollection, RepairReport]:
    """Repair ``collection`` across ``delta``; returns the new collection.

    ``sampler`` must be bound to ``delta.new_graph`` (a worker-pool wrapped
    sampler is fine — its ``sample_batch`` shards deterministically) and
    must record traces iff the collection does.  The input collection is
    never mutated, so memory-mapped (read-only) sketches repair cleanly.
    ``postings``, the collection's ``(inv_ptr, inv_sets)`` node → set-ids
    index if one is built, names the sets holding ``v`` without a scan of
    the node payload; the repaired collection is the same either way.

    Traced IC collections take the exact extension/shrink path (no
    resampling); LT and untraced collections take the resampling path.
    """
    model_name = sampler.model_name
    require(model_name in SUPPORTED_MODELS,
            f"incremental repair supports models {SUPPORTED_MODELS}; got {model_name!r}")
    require(getattr(sampler, "max_depth", None) is None,
            "incremental repair is undefined for depth-bounded sampling "
            "(edge updates change live distances)")
    require(collection.num_nodes == delta.new_graph.n,
            "collection node universe does not match the updated graph")
    # Shape alone cannot catch a stale sampler (a reweight keeps n and m);
    # compare content when the sampler's graph can be fingerprinted (the
    # worker-side SharedGraph stand-in cannot, and falls back to shape).
    sampler_graph = sampler.graph
    if sampler_graph is not delta.new_graph:
        if hasattr(sampler_graph, "fingerprint"):
            require(sampler_graph.fingerprint() == delta.new_fingerprint,
                    "sampler is not bound to the post-update graph")
        else:
            require(sampler_graph.n == delta.new_graph.n
                    and sampler_graph.m == delta.new_graph.m,
                    "sampler is not bound to the post-update graph")
    require(bool(getattr(sampler, "trace_edges", False)) == collection.has_traces,
            "sampler tracing must match the collection (trace_edges flag)")
    members = _member_set_ids(collection, delta.v, postings)
    if collection.has_traces and model_name == "IC":
        return _repair_ic_exact(collection, delta, members, resolve_rng(rng))

    num_sets = len(collection)
    affected = _affected(collection, delta, model_name, members)
    kept_mask = np.ones(num_sets, dtype=bool)
    kept_mask[affected] = False

    # --- resample the affected sets under the new graph, original roots ---
    roots = collection.roots_array.astype(np.int64, copy=True)
    repl = sampler.sample_batch(roots[affected], resolve_rng(rng))
    require(np.array_equal(repl.roots_array, roots[affected].astype(repl.roots_array.dtype)),
            "replacement batch lost root alignment")

    # --- widths/costs: scatter replacements, patch kept member sets -------
    widths = collection.widths_array.astype(np.int64, copy=True)
    costs = collection.costs_array.astype(np.int64, copy=True)
    num_patched = 0
    if delta.op in ("insert", "delete"):
        kept_memb = members[kept_mask[members]]
        num_patched = int(kept_memb.size)
        if kept_memb.size:
            # w(R) counts every edge of G pointing into R; v's in-degree
            # changed by one, so every kept set containing v shifts with it.
            shift = 1 if delta.op == "insert" else -1
            widths[kept_memb] += shift
            if model_name == "IC":
                # IC's generation cost is |R| + w(R) examined edges.  (Under
                # IC an insert invalidates every member set, so only deletes
                # actually patch; LT cost is 2|R|, width-independent.)
                costs[kept_memb] += shift
    if affected.size:
        widths[affected] = repl.widths_array
        costs[affected] = repl.costs_array

    # --- splice the member payload (and traces, remapped) -----------------
    if affected.size:
        new_ptr, new_nodes = _splice_payload(
            collection.ptr_array, collection.nodes_array,
            repl.ptr_array, repl.nodes_array, affected,
        )
    else:
        new_ptr = collection.ptr_array.astype(np.int64, copy=True)
        new_nodes = collection.nodes_array.copy()
    trace_ptr = trace_edges = None
    if collection.has_traces:
        # Kept traces address the old in-CSR id space; shift them into the
        # new one — dtype-preserving (int32 + bool stays int32), and a pure
        # pass-through for reweights.  (A deleted edge's own id never
        # survives: any set whose trace held it is invalidated above for
        # both models.)
        remapped = delta.remap_edge_ids(collection.trace_edges_array)
        if affected.size:
            trace_ptr, trace_edges = _splice_payload(
                collection.trace_ptr_array, remapped,
                repl.trace_ptr_array, repl.trace_edges_array, affected,
            )
        else:
            trace_ptr = collection.trace_ptr_array.astype(np.int64, copy=True)
            trace_edges = remapped.copy() if remapped is collection.trace_edges_array else remapped

    repaired = FlatRRCollection.from_arrays(
        num_nodes=collection.num_nodes,
        graph_edges=delta.new_graph.m,
        ptr=new_ptr,
        nodes=new_nodes,
        roots=roots.astype(collection.roots_array.dtype, copy=False),
        widths=widths,
        costs=costs,
        trace_ptr=trace_ptr,
        trace_edges=trace_edges,
    )
    report = RepairReport(
        op=delta.op,
        u=delta.u,
        v=delta.v,
        model=model_name,
        num_sets=num_sets,
        num_affected=int(affected.size),
        num_candidates=int(affected.size),
        num_patched=num_patched,
        used_traces=collection.has_traces,
        exact=False,
        replaced=affected,
    )
    return repaired, report
