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
def _as_flat_arrays(rr_sets) -> tuple[np.ndarray, np.ndarray]:
    """``(ptr, nodes)`` int arrays for either storage format."""
    # Duck-typed so FlatRRCollection needn't be imported (avoids a cycle).
    ptr = getattr(rr_sets, "ptr_array", None)
    if ptr is not None:
        return np.asarray(ptr, dtype=np.int64), np.asarray(rr_sets.nodes_array, dtype=np.int64)
    num_sets = len(rr_sets)
    sizes = np.fromiter((len(rr) for rr in rr_sets), dtype=np.int64, count=num_sets)
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    total = int(ptr[-1])
    nodes = np.fromiter(
        (int(v) for rr in rr_sets for v in rr), dtype=np.int64, count=total
    )
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


def _decrement(counts: np.ndarray, members: np.ndarray) -> None:
    """``counts[v] -= multiplicity of v in members`` without a Python loop."""
    # bincount beats subtract.at once the member batch is non-trivial.
    if members.size > 64:
        counts -= np.bincount(members, minlength=counts.size)
    else:
        np.subtract.at(counts, members, 1)


def _inverted_index(
    ptr: np.ndarray, nodes: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR map node → ids of the sets containing it."""
    num_sets = ptr.size - 1
    set_of_entry = np.repeat(np.arange(num_sets, dtype=np.int64), np.diff(ptr))
    order = np.argsort(nodes, kind="stable")
    inv_sets = set_of_entry[order]
    inv_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_ptr[1:])
    return inv_ptr, inv_sets


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
            _decrement(self.counts, _gather_members(self.ptr, self.nodes, new_sets))
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
    ptr, nodes = _as_flat_arrays(rr_sets)
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
