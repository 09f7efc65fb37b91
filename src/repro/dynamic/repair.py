"""Incremental RR-sketch repair under single-edge graph updates.

A cold :class:`~repro.sketch.index.SketchIndex` rebuild resamples all θ RR
sets after *any* graph change.  This module repairs the collection instead:
it identifies exactly the RR sets whose generation could have been changed
by the update, resamples only those (with their original roots, through
whatever sampler the caller provides — typically a
:class:`~repro.parallel.engine.ParallelSampler`, whose
``SeedSequence.spawn`` shard streams and shard-order merge keep the repair
deterministic for any worker count), and splices the replacements into a
fresh packed collection.

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
  the surviving trace is exactly the new sample's live-edge record.

For **LT** (and untraced collections) the affected sets are resampled
fresh under the new graph with their original roots — which keeps the
root sequence, and hence the coupling with a cold rebuild from the same
seed, intact.  The one approximation (documented, and measured by the
statistical suite): a resampled set is drawn from the new graph's
*unconditioned* RR distribution rather than the distribution conditioned
on the invalidation event, a bias of order ``P(affected) · ε_cond`` per
set that vanishes as updates touch a vanishing fraction of sets.  Kept
sets are exact in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.delta import GraphDelta
from repro.rrset.coverage import _splice_payload
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
def _member_set_ids(collection: FlatRRCollection, v: int) -> np.ndarray:
    """Sorted ids of sets containing node ``v`` (one scan of the payload)."""
    hits = np.flatnonzero(collection.nodes_array == v)
    if hits.size == 0:
        return hits
    # Entry j belongs to the set whose ptr range covers j; members are
    # unique per set, so the result is already sorted and duplicate-free.
    return np.searchsorted(collection.ptr_array, hits, side="right") - 1


def _trace_range_set_ids(collection: FlatRRCollection, lo: int, hi: int) -> np.ndarray:
    """Sorted unique ids of sets with a trace edge id in ``[lo, hi)``."""
    trace = collection.trace_edges_array
    hits = np.flatnonzero((trace >= lo) & (trace < hi))
    if hits.size == 0:
        return hits
    ids = np.searchsorted(collection.trace_ptr_array, hits, side="right") - 1
    return np.unique(ids)


def affected_set_ids(collection: FlatRRCollection, delta: GraphDelta,
                     model_name: str) -> np.ndarray:
    """Sorted ids of RR sets the update could have changed (see module doc)."""
    require(model_name in SUPPORTED_MODELS,
            f"incremental repair supports models {SUPPORTED_MODELS}; got {model_name!r}")
    op, v = delta.op, delta.v
    q, lo, hi = delta.in_pos, delta.slice_lo, delta.slice_hi
    if op == "reweight" and delta.new_prob == delta.old_prob:
        return np.empty(0, dtype=np.int64)
    if not collection.has_traces:
        # Coarse but safe: the update edge could only be examined while
        # expanding v, so only sets containing v can be affected.
        return _member_set_ids(collection, v)
    if model_name == "IC":
        if op == "insert":
            return _member_set_ids(collection, v)
        if op == "delete":
            return _trace_range_set_ids(collection, q, q + 1)
        if delta.new_prob < delta.old_prob:
            return _trace_range_set_ids(collection, q, q + 1)
        # Reweight up: failed coins may now succeed; successful ones stay
        # successful (same uniform, larger threshold), so exclude them.
        memb = _member_set_ids(collection, v)
        live = _trace_range_set_ids(collection, q, q + 1)
        return np.setdiff1d(memb, live, assume_unique=True)
    # LT: each visited node consumed one inverse-CDF draw over its slice.
    if op == "insert":
        # The appended edge sorts last in the slice, claiming CDF mass that
        # previously belonged to "stop": only stop-draws can flip.
        memb = _member_set_ids(collection, v)
        picked = _trace_range_set_ids(collection, lo, hi)
        return np.setdiff1d(memb, picked, assume_unique=True)
    if op == "delete" or delta.new_prob < delta.old_prob:
        # CDF positions before q are untouched; picks at or after q (and
        # nothing else) can shift.
        return _trace_range_set_ids(collection, q, hi)
    # Reweight up: picks strictly before q are safe, everything else
    # (later picks and stop-draws) sits on shifted CDF mass.
    memb = _member_set_ids(collection, v)
    safe = _trace_range_set_ids(collection, lo, q)
    return np.setdiff1d(memb, safe, assume_unique=True)


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


def _shrink_ic(collection: FlatRRCollection, old_graph, set_id: int,
               dead_edge: int) -> tuple[list[int], list[int]]:
    """Membership and trace (old-id space) after a live edge dies.

    The trace holds every live examined edge, so the post-update set is
    exactly the nodes still reverse-reachable from the root over the trace
    minus the dead edge; dropped nodes' coins "unhappen" (the new sampling
    would never have expanded them), so their trace entries go too.
    """
    trace = collection.trace_of(set_id).tolist()
    dst = (np.searchsorted(old_graph.in_ptr, collection.trace_of(set_id),
                           side="right") - 1).tolist()
    src = old_graph.in_idx[collection.trace_of(set_id)].tolist()
    pulls: dict[int, list[int]] = {}
    for edge, d, s in zip(trace, dst, src):
        if edge != dead_edge:
            pulls.setdefault(d, []).append(s)
    root = int(collection.roots_array[set_id])
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for source_node in pulls.get(node, ()):
            if source_node not in reached:
                reached.add(source_node)
                frontier.append(source_node)
    ptr = collection.ptr_array
    members = [
        node for node in collection.nodes_array[ptr[set_id] : ptr[set_id + 1]].tolist()
        if node in reached
    ]
    kept_trace = [e for e, d in zip(trace, dst) if e != dead_edge and d in reached]
    return members, kept_trace


def _repair_ic_exact(collection: FlatRRCollection, delta: GraphDelta,
                     source) -> tuple[FlatRRCollection, RepairReport]:
    """Distribution-exact repair for traced IC collections (module doc)."""
    op = delta.op
    new_graph, old_graph = delta.new_graph, delta.old_graph
    random01 = source.py.random
    candidates = affected_set_ids(collection, delta, "IC")
    in_deg_new = np.diff(new_graph.in_ptr)
    trace_dtype = collection.trace_edges_array.dtype
    node_dtype = collection.nodes_array.dtype

    if op == "reweight" and delta.new_prob > delta.old_prob:
        # A coin that failed at p succeeds at p' with the leftover mass.
        grow_probability = (delta.new_prob - delta.old_prob) / (1.0 - delta.old_prob) \
            if delta.old_prob < 1.0 else 0.0
    else:
        grow_probability = float(delta.new_prob or 0.0)  # insert: fresh coin at p
    keep_probability = (
        delta.new_prob / delta.old_prob
        if op == "reweight" and delta.new_prob < delta.old_prob else 0.0
    )

    modified: list[int] = []
    repl_members: list[np.ndarray] = []
    repl_traces: list[np.ndarray] = []
    ptr = collection.ptr_array
    for set_id in candidates.tolist():
        if op in ("insert",) or (op == "reweight" and delta.new_prob > delta.old_prob):
            if random01() >= grow_probability:
                continue  # the (conditional) coin failed: set stands
            members = collection.nodes_array[ptr[set_id] : ptr[set_id + 1]]
            # delta.in_pos is the updated edge's id in the NEW graph for an
            # insert and is reweight-invariant, so it is valid as-is.
            extension_trace: list[int] = [delta.in_pos]
            extension = _extend_ic(new_graph, set(members.tolist()), delta.u,
                                   random01, extension_trace)
            new_members = np.concatenate([
                members, np.asarray(extension, dtype=node_dtype)
            ])
            new_trace = np.concatenate([
                delta.remap_edge_ids(collection.trace_of(set_id)),
                np.asarray(extension_trace, dtype=trace_dtype),
            ])
        else:
            if op == "reweight" and random01() < keep_probability:
                continue  # the live coin survives the down-weight
            members_list, trace_list = _shrink_ic(
                collection, old_graph, set_id, delta.in_pos
            )
            new_members = np.asarray(members_list, dtype=node_dtype)
            new_trace = delta.remap_edge_ids(
                np.asarray(trace_list, dtype=trace_dtype)
            )
        modified.append(set_id)
        repl_members.append(new_members)
        repl_traces.append(new_trace.astype(trace_dtype, copy=False))

    affected = np.asarray(modified, dtype=np.int64)
    widths = collection.widths_array.astype(np.int64, copy=True)
    costs = collection.costs_array.astype(np.int64, copy=True)
    num_patched = 0
    if op in ("insert", "delete"):
        # v gained/lost an in-edge: every member set's width (and the IC
        # examined-edge cost) moves with it; modified sets are recomputed
        # from scratch below.
        memb = _member_set_ids(collection, delta.v)
        untouched = memb[~np.isin(memb, affected, assume_unique=True)]
        num_patched = int(untouched.size)
        shift = 1 if op == "insert" else -1
        widths[untouched] += shift
        costs[untouched] += shift
    if affected.size:
        repl_sizes = np.fromiter((m.size for m in repl_members), dtype=np.int64,
                                 count=affected.size)
        repl_widths = np.fromiter(
            (int(in_deg_new[m].sum()) for m in repl_members), dtype=np.int64,
            count=affected.size,
        )
        widths[affected] = repl_widths
        costs[affected] = repl_sizes + repl_widths

        repl_ptr = np.zeros(affected.size + 1, dtype=np.int64)
        np.cumsum(repl_sizes, out=repl_ptr[1:])
        new_ptr, new_nodes = _splice_payload(
            collection.ptr_array, collection.nodes_array,
            repl_ptr, np.concatenate(repl_members), affected,
        )
        repl_trace_sizes = np.fromiter((t.size for t in repl_traces), dtype=np.int64,
                                       count=affected.size)
        repl_trace_ptr = np.zeros(affected.size + 1, dtype=np.int64)
        np.cumsum(repl_trace_sizes, out=repl_trace_ptr[1:])
        trace_ptr, trace_edges = _splice_payload(
            collection.trace_ptr_array,
            delta.remap_edge_ids(collection.trace_edges_array),
            repl_trace_ptr, np.concatenate(repl_traces), affected,
        )
    else:
        new_ptr = collection.ptr_array.astype(np.int64, copy=True)
        new_nodes = collection.nodes_array.copy()
        trace_ptr = collection.trace_ptr_array.astype(np.int64, copy=True)
        remapped = delta.remap_edge_ids(collection.trace_edges_array)
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
                      rng=None) -> tuple[FlatRRCollection, RepairReport]:
    """Repair ``collection`` across ``delta``; returns the new collection.

    ``sampler`` must be bound to ``delta.new_graph`` (a worker-pool wrapped
    sampler is fine — its ``sample_batch`` shards deterministically) and
    must record traces iff the collection does.  The input collection is
    never mutated, so memory-mapped (read-only) sketches repair cleanly.

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
    if collection.has_traces and model_name == "IC":
        return _repair_ic_exact(collection, delta, resolve_rng(rng))

    num_sets = len(collection)
    affected = affected_set_ids(collection, delta, model_name)
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
        memb = _member_set_ids(collection, delta.v)
        kept_memb = memb[kept_mask[memb]]
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
