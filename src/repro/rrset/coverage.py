"""Greedy maximum coverage over RR sets (Algorithm 1, lines 3–7).

Given sampled RR sets, pick ``k`` nodes covering as many sets as possible.
The standard greedy gives the ``(1 - 1/e)`` guarantee [29].  It runs on the
*flat* CSR layout (``ptr``/``nodes`` arrays, see
:mod:`repro.rrset.flat_collection`): per-node cover counts live in one int64
array, the node → set membership map is a CSR inverted index, and each round
is an ``argmax`` plus a vectorised count-decrement.

:func:`greedy_max_coverage` is the *linear-time exact* greedy the paper
cites: ``k`` rounds of true argmax over live cover counts.  It accepts
either a sequence of node tuples or a
:class:`~repro.rrset.flat_collection.FlatRRCollection`; tuple input is
flattened once up front.  :class:`~repro.sketch.index.SketchIndex` runs the
same resumable kernel over its persistent postings.

Ties break toward the smaller node id so selections are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Sequence

import numpy as np

from repro.rrset.flat_collection import FlatRRCollection, _check_node_ids
from repro.utils.sorting import scatter_runs
from repro.utils.validation import require

__all__ = [
    "CoverageResult",
    "greedy_max_coverage",
    "brute_force_max_coverage",
    "coverage_of",
]


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a maximum-coverage run."""

    seeds: list[int]
    covered: int
    num_sets: int
    #: Sets still uncovered after each pick (length k); used by diagnostics.
    marginal_gains: tuple[int, ...]

    @property
    def fraction(self) -> float:
        """``F_R(S)`` of the selected seeds."""
        return self.covered / self.num_sets if self.num_sets else 0.0


def coverage_of(rr_sets: Sequence[tuple[int, ...]], nodes) -> int:
    """Number of ``rr_sets`` intersecting ``nodes`` (reference counter)."""
    chosen = set(int(v) for v in nodes)
    return sum(1 for rr in rr_sets if any(v in chosen for v in rr))


# ----------------------------------------------------------------------
# Flat representation plumbing
# ----------------------------------------------------------------------
def _as_flat_arrays(rr_sets, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, nodes)`` arrays for either storage format.

    A collection's int32 ``nodes`` are read as they are, already checked on
    append; tuple members are checked against ``num_nodes`` here.
    """
    if isinstance(rr_sets, FlatRRCollection):
        return rr_sets.ptr_array, rr_sets.nodes_array
    num_sets = len(rr_sets)
    sizes = np.fromiter((len(rr) for rr in rr_sets), dtype=np.int64, count=num_sets)
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    total = int(ptr[-1])
    nodes = np.fromiter(
        (int(v) for rr in rr_sets for v in rr), dtype=np.int64, count=total
    )
    _check_node_ids(nodes, num_nodes)
    return ptr, nodes


def _gather_members(ptr: np.ndarray, nodes: np.ndarray, set_ids: np.ndarray) -> np.ndarray:
    """Concatenated members of the given sets (CSR range-gather trick)."""
    counts = ptr[set_ids + 1] - ptr[set_ids]
    total = int(counts.sum())
    if total == 0:
        return nodes[:0]
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return nodes[np.repeat(ptr[set_ids], counts) + offsets]


#: Most members one step of a greedy pick's decrement gathers.  A step's
#: scratch (int64 positions and offsets, the gathered ids) is about 24 bytes
#: an entry, 6 MiB at this size.
GREEDY_GATHER_ENTRIES = 1 << 18


def _decrement(counts: np.ndarray, ptr: np.ndarray, nodes: np.ndarray,
               set_ids: np.ndarray) -> None:
    """``counts[v] -=`` the number of ``set_ids`` sets containing ``v``.

    Members are gathered in steps of consecutive sets holding at most
    :data:`GREEDY_GATHER_ENTRIES` of them (or one larger set), so the
    scratch stays bounded however many sets a pick covers; the decrement is
    additive, so the counts are those of one gather of every member.
    """
    ends = np.cumsum(ptr[set_ids + 1] - ptr[set_ids])
    lo = 0
    while lo < set_ids.size:
        done = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, done + GREEDY_GATHER_ENTRIES, side="right"))
        hi = max(hi, lo + 1)
        members = _gather_members(ptr, nodes, set_ids[lo:hi])
        # bincount beats subtract.at once the member batch is non-trivial.
        if members.size > 64:
            counts -= np.bincount(members, minlength=counts.size)
        else:
            np.subtract.at(counts, members, 1)
        lo = hi


#: Most entries one chunk of the postings build holds.  A chunk's scratch
#: (int32 sort keys and node ids, int64 write positions and set ids) is
#: about 32 bytes an entry, 16 MiB at this size.
POSTINGS_CHUNK_ENTRIES = 1 << 19

_INT32_MAX = int(np.iinfo(np.int32).max)


def _inverted_index(
    ptr: np.ndarray, nodes: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR map node → ids of the sets containing it, both int64.

    Each node's slice lists its set ids in increasing order, the order a
    stable sort of ``nodes`` gives.  ``inv_sets`` is allocated once at its
    final size and filled one chunk of consecutive sets at a time.  A chunk
    holds at most :data:`POSTINGS_CHUNK_ENTRIES` entries (or one set) and
    at most ⌊(2³¹−1)/num_nodes⌋ sets, so its packed (node, local set) keys
    fit in int32.  One sort of those keys groups the chunk by node in set
    order, and each node's run is written at the node's running offset, so
    chunks taken in set order leave every slice in set order.  Besides the
    output the build holds one chunk's scratch: no int64 array per entry of
    the whole sketch.
    """
    num_sets = ptr.size - 1
    span_cap = max(1, _INT32_MAX // max(num_nodes, 1))
    bounds = [0]
    while bounds[-1] < num_sets:
        lo = bounds[-1]
        hi = int(np.searchsorted(ptr, ptr[lo] + POSTINGS_CHUNK_ENTRIES, side="right")) - 1
        bounds.append(min(max(hi, lo + 1), lo + span_cap, num_sets))
    # bincount widens each block to int64; blocks of at least num_nodes
    # entries keep its O(num_nodes) output from dominating.
    counts = np.zeros(num_nodes, dtype=np.int64)
    block = max(POSTINGS_CHUNK_ENTRIES, num_nodes)
    for lo in range(0, nodes.size, block):
        counts += np.bincount(nodes[lo : lo + block], minlength=num_nodes)
    inv_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=inv_ptr[1:])
    inv_sets = np.empty(int(inv_ptr[-1]), dtype=np.int64)
    cursor = inv_ptr[:-1].copy()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        span = hi - lo
        keys = nodes[ptr[lo] : ptr[hi]].astype(np.int32)
        keys *= span
        keys += np.repeat(np.arange(span, dtype=np.int32), np.diff(ptr[lo : hi + 1]))
        keys.sort()
        chunk_nodes = keys // span
        np.remainder(keys, span, out=keys)
        scatter_runs(inv_sets, cursor, chunk_nodes, np.add(keys, lo, dtype=np.int64))
    return inv_ptr, inv_sets


def _splice_payload(old_ptr: np.ndarray, old_payload: np.ndarray, repl_ptr: np.ndarray,
                    repl_payload: np.ndarray,
                    replaced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild one CSR payload with the ``replaced`` segments swapped out.

    Returns ``(new_ptr, new_payload)``.  ``replaced`` holds sorted, distinct
    segment ids (RR sets of a sketch, or nodes of its postings), and
    ``repl_ptr``/``repl_payload`` their new segments in that order.

    The kept payload between two consecutive replaced segments is one
    contiguous run of the old array, so the whole splice is a
    ``np.concatenate`` of ``2·|replaced| + 1`` slices — memcpy speed, no
    index gathers.  With typical single-edge updates invalidating a
    fraction of a percent of θ, this is what keeps repair latency flat in
    the sketch size.
    """
    num_segments = old_ptr.size - 1
    old_sizes = np.diff(old_ptr)
    repl_sizes = np.diff(repl_ptr)
    # new_ptr = old_ptr plus the running size shift of earlier replacements.
    shift = np.zeros(num_segments, dtype=np.int64)
    shift[replaced] = repl_sizes - old_sizes[replaced]
    np.cumsum(shift, out=shift)
    new_ptr = old_ptr.astype(np.int64, copy=True)
    new_ptr[1:] += shift
    pieces = []
    cursor = 0
    for position, segment in enumerate(replaced.tolist()):
        pieces.append(old_payload[old_ptr[cursor] : old_ptr[segment]])
        pieces.append(repl_payload[repl_ptr[position] : repl_ptr[position + 1]])
        cursor = segment + 1
    pieces.append(old_payload[old_ptr[cursor] :])
    return new_ptr, np.concatenate(pieces)


def _patch_postings(inv_ptr: np.ndarray, inv_sets: np.ndarray,
                    old_ptr: np.ndarray, old_nodes: np.ndarray,
                    new_ptr: np.ndarray, new_nodes: np.ndarray,
                    replaced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Postings of ``(new_ptr, new_nodes)``, patched from those of the old sets.

    ``(inv_ptr, inv_sets)`` is ``_inverted_index`` of ``(old_ptr,
    old_nodes)``, and the two collections differ only in the ``replaced``
    sets (sorted ids), as a repair leaves them.  Each replaced set's old
    and new members are diffed into (node, set) pairs that left or
    arrived; only the nodes those pairs touch get their postings slice
    rebuilt, and the slices are spliced in.  The result equals a fresh
    ``_inverted_index`` of the new collection byte for byte, as long as a
    set holds each member once (every sampler and repair path keeps it so).
    """
    num_sets = old_ptr.size - 1
    replaced = np.asarray(replaced, dtype=np.int64)

    def pair_keys(ptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        # One key per (node, set) pair, sorted node-major: the postings order.
        members = _gather_members(ptr, nodes, replaced).astype(np.int64)
        owners = np.repeat(replaced, ptr[replaced + 1] - ptr[replaced])
        return np.sort(members * num_sets + owners)

    old_keys = pair_keys(old_ptr, old_nodes)
    new_keys = pair_keys(new_ptr, new_nodes)
    left = np.setdiff1d(old_keys, new_keys, assume_unique=True)
    arrived = np.setdiff1d(new_keys, old_keys, assume_unique=True)
    if left.size == 0 and arrived.size == 0:
        return inv_ptr, inv_sets
    touched = np.union1d(left // num_sets, arrived // num_sets)
    sizes = inv_ptr[touched + 1] - inv_ptr[touched]
    keys = np.repeat(touched, sizes) * num_sets + _gather_members(inv_ptr, inv_sets, touched)
    # Every left pair is in the old postings; no arrived pair is.
    keys = np.delete(keys, np.searchsorted(keys, left))
    keys = np.insert(keys, np.searchsorted(keys, arrived), arrived)
    owners = keys // num_sets
    repl_ptr = np.zeros(touched.size + 1, dtype=np.int64)
    repl_ptr[1:] = np.searchsorted(owners, touched, side="right")
    return _splice_payload(inv_ptr, inv_sets, repl_ptr, keys - owners * num_sets, touched)


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
class _GreedyKernel:
    """Resumable greedy max-coverage over ``(ptr, nodes, inv_ptr, inv_sets)``.

    ``counts[v]`` is the number of still-uncovered sets containing ``v``.
    Picked and excluded nodes hold a negative count, so ``np.argmax`` skips
    them while an eligible node is left, and a tied maximum goes to the
    smaller node id — which also fills zero-gain picks smallest id first.
    """

    __slots__ = ("ptr", "nodes", "inv_ptr", "inv_sets", "counts", "covered", "seeds", "gains")

    def __init__(self, ptr: np.ndarray, nodes: np.ndarray, inv_ptr: np.ndarray,
                 inv_sets: np.ndarray, exclude: Collection[int] = ()) -> None:
        self.ptr = ptr
        self.nodes = nodes
        self.inv_ptr = inv_ptr
        self.inv_sets = inv_sets
        self.counts = np.diff(inv_ptr)
        self.covered = np.zeros(ptr.size - 1, dtype=bool)
        self.seeds: list[int] = []
        self.gains: list[int] = []
        if exclude:
            self.counts[list(exclude)] = -1

    def take(self, node: int) -> None:
        """Pick ``node`` and retire the sets it covers."""
        self.seeds.append(node)
        self.gains.append(int(self.counts[node]))
        candidate_sets = self.inv_sets[self.inv_ptr[node] : self.inv_ptr[node + 1]]
        new_sets = candidate_sets[~self.covered[candidate_sets]]
        if new_sets.size:
            self.covered[new_sets] = True
            _decrement(self.counts, self.ptr, self.nodes, new_sets)
        self.counts[node] = -1

    def extend_to(self, k: int) -> None:
        """Argmax picks until ``k`` seeds are held."""
        while len(self.seeds) < k:
            self.take(int(np.argmax(self.counts)))

    def result(self, k: int) -> CoverageResult:
        """The first ``k`` picks (greedy is prefix-consistent)."""
        gains = tuple(self.gains[:k])
        return CoverageResult(self.seeds[:k], sum(gains), self.covered.size, gains)


def greedy_max_coverage(rr_sets, num_nodes: int, k: int) -> CoverageResult:
    """Exact greedy: k rounds of true argmax over live cover counts.

    ``rr_sets`` may be a sequence of node tuples or a
    :class:`~repro.rrset.flat_collection.FlatRRCollection`.  ``np.argmax``
    resolves ties toward the smaller node id.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    ptr, nodes = _as_flat_arrays(rr_sets, num_nodes)
    kernel = _GreedyKernel(ptr, nodes, *_inverted_index(ptr, nodes, num_nodes))
    kernel.extend_to(k)
    return kernel.result(k)


def brute_force_max_coverage(
    rr_sets: Sequence[tuple[int, ...]], num_nodes: int, k: int
) -> CoverageResult:
    """Optimal coverage by exhaustive search — test oracle only.

    Cost is ``C(num_nodes, k)`` coverage evaluations; callers keep inputs
    tiny.  Ties resolve to the lexicographically smallest seed tuple.
    """
    require(k >= 1, "k must be >= 1")
    require(num_nodes >= k, "k cannot exceed the number of nodes")
    best_seeds: tuple[int, ...] = tuple(range(k))
    best_covered = -1
    for candidate in combinations(range(num_nodes), k):
        covered = coverage_of(rr_sets, candidate)
        if covered > best_covered:
            best_covered = covered
            best_seeds = candidate
    return CoverageResult(list(best_seeds), best_covered, len(rr_sets), ())
