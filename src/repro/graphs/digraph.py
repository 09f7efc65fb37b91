"""Compressed-sparse-row directed graph.

This is the substrate every other subsystem builds on.  A :class:`DiGraph`
stores a fixed node set ``0..n-1`` and a fixed multiset of directed edges,
each carrying a float in ``[0, 1]`` that the diffusion models interpret as a
propagation probability (IC) or an influence weight (LT).

Both adjacency directions are materialised as CSR arrays because the two
halves of the system walk the graph in opposite directions:

* forward simulation of a cascade walks *out*-edges of ``G``;
* RR-set sampling walks *in*-edges (i.e. out-edges of the transpose ``G^T``
  from the paper's Table 1).

The per-node Python adjacency lists (:meth:`DiGraph.in_adjacency` /
:meth:`DiGraph.out_adjacency`) are cached lazily; the tight sampling loops
are measurably faster on plain lists than on repeated numpy slicing for the
small frontier sizes typical of RR sets.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils.sorting import group_sort
from repro.utils.validation import check_node, require

__all__ = ["DiGraph"]


class DiGraph:
    """Immutable directed graph in CSR form with per-edge probabilities.

    Instances are normally produced by :class:`repro.graphs.builder
    .GraphBuilder`, the generators in :mod:`repro.graphs.generators`, or
    :func:`repro.graphs.io.load_edge_list`; the constructor is public for
    power users who already hold edge arrays.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``; node ids are ``0..n-1``.
    src, dst:
        Integer arrays of equal length ``m`` giving each edge's endpoints.
    prob:
        Float array of length ``m``; ``prob[i]`` is the propagation
        probability / influence weight of edge ``src[i] -> dst[i]``.
        Defaults to all ones.
    """

    __slots__ = (
        "n",
        "m",
        "src",
        "dst",
        "prob",
        "out_ptr",
        "out_idx",
        "out_prob",
        "in_ptr",
        "in_idx",
        "in_prob",
        "_in_adj_cache",
        "_out_adj_cache",
        "_fingerprint_cache",
    )

    def __init__(self, num_nodes: int, src, dst, prob=None):
        require(num_nodes >= 0, "num_nodes must be non-negative")
        self.n = int(num_nodes)
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        require(self.src.shape == self.dst.shape, "src/dst length mismatch")
        self.m = int(self.src.size)
        if prob is None:
            self.prob = np.ones(self.m, dtype=np.float64)
        else:
            self.prob = np.ascontiguousarray(prob, dtype=np.float64)
            require(self.prob.size == self.m, "prob length mismatch")
        if self.m > 0:
            if self.src.min() < 0 or self.src.max() >= self.n:
                raise ValueError("src node id out of range")
            if self.dst.min() < 0 or self.dst.max() >= self.n:
                raise ValueError("dst node id out of range")
            lo, hi = float(self.prob.min()), float(self.prob.max())
            if lo < 0.0 or hi > 1.0:
                raise ValueError(f"edge probabilities must lie in [0, 1]; saw [{lo}, {hi}]")

        self.out_ptr, self.out_idx, self.out_prob = self._build_csr(self.src, self.dst)
        self.in_ptr, self.in_idx, self.in_prob = self._build_csr(self.dst, self.src)
        self._in_adj_cache = None
        self._out_adj_cache = None
        self._fingerprint_cache = None

    def _build_csr(self, keys: np.ndarray, values: np.ndarray):
        """CSR arrays grouping ``values``/``prob`` by ``keys``.

        The grouping is stable: each node's slice lists its edges in
        input-edge order.  :mod:`repro.graphs.delta` relies on this to map
        an edge's input index to its in-CSR position and to shift in-CSR
        edge ids by one when an edge is inserted or deleted.
        """
        counts = np.bincount(keys, minlength=self.n)
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        order = group_sort(keys, np.arange(self.m, dtype=np.int64), self.m)
        return ptr, np.ascontiguousarray(values[order]), np.ascontiguousarray(self.prob[order])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m`` (an undirected input contributes 2)."""
        return self.m

    def nodes(self) -> range:
        """Iterable of node ids."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, p)`` triples in edge-id order."""
        for i in range(self.m):
            yield int(self.src[i]), int(self.dst[i]), float(self.prob[i])

    def out_degree(self, v: int) -> int:
        """Out-degree of ``v``."""
        v = check_node(v, self.n)
        return int(self.out_ptr[v + 1] - self.out_ptr[v])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        v = check_node(v, self.n)
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    def out_degrees(self) -> np.ndarray:
        """All out-degrees as an int64 array."""
        return np.diff(self.out_ptr)

    def in_degrees(self) -> np.ndarray:
        """All in-degrees as an int64 array."""
        return np.diff(self.in_ptr)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of ``v``'s out-edges (numpy view)."""
        v = check_node(v, self.n)
        return self.out_idx[self.out_ptr[v] : self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of ``v``'s in-edges (numpy view)."""
        v = check_node(v, self.n)
        return self.in_idx[self.in_ptr[v] : self.in_ptr[v + 1]]

    def out_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, probabilities)`` of ``v``'s out-edges."""
        v = check_node(v, self.n)
        lo, hi = self.out_ptr[v], self.out_ptr[v + 1]
        return self.out_idx[lo:hi], self.out_prob[lo:hi]

    def in_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, probabilities)`` of ``v``'s in-edges."""
        v = check_node(v, self.n)
        lo, hi = self.in_ptr[v], self.in_ptr[v + 1]
        return self.in_idx[lo:hi], self.in_prob[lo:hi]

    # ------------------------------------------------------------------
    # Cached Python adjacency (hot-loop fast path)
    # ------------------------------------------------------------------
    def in_adjacency(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-node in-neighbour and in-probability lists (cached)."""
        if self._in_adj_cache is None:
            self._in_adj_cache = self._to_lists(self.in_ptr, self.in_idx, self.in_prob)
        return self._in_adj_cache

    def out_adjacency(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per-node out-neighbour and out-probability lists (cached)."""
        if self._out_adj_cache is None:
            self._out_adj_cache = self._to_lists(self.out_ptr, self.out_idx, self.out_prob)
        return self._out_adj_cache

    def _to_lists(self, ptr, idx, prob):
        idx_list = idx.tolist()
        prob_list = prob.tolist()
        ptr_list = ptr.tolist()
        neighbors = [idx_list[ptr_list[v] : ptr_list[v + 1]] for v in range(self.n)]
        probs = [prob_list[ptr_list[v] : ptr_list[v + 1]] for v in range(self.n)]
        return neighbors, probs

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_probabilities(self, prob) -> "DiGraph":
        """Same topology with a replacement per-edge probability array."""
        return DiGraph(self.n, self.src, self.dst, prob)

    def transpose(self) -> "DiGraph":
        """The transpose graph ``G^T`` (every edge reversed, same weights)."""
        return DiGraph(self.n, self.dst, self.src, self.prob)

    def copy(self) -> "DiGraph":
        """An independent copy."""
        return DiGraph(self.n, self.src.copy(), self.dst.copy(), self.prob.copy())

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash over the CSR arrays and probabilities (cached).

        See :func:`repro.graphs.fingerprint.graph_fingerprint`.  The graph is
        immutable, so the digest is computed once and reused; it keys the
        sketch cache in :mod:`repro.sketch` and validates persisted sketches
        against the graph they are loaded for.
        """
        if self._fingerprint_cache is None:
            from repro.graphs.fingerprint import graph_fingerprint

            self._fingerprint_cache = graph_fingerprint(self)
        return self._fingerprint_cache

    # ------------------------------------------------------------------
    # Comparison / debugging
    # ------------------------------------------------------------------
    def edge_set(self) -> set[tuple[int, int]]:
        """Set of ``(u, v)`` pairs; collapses parallel edges."""
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def same_structure(self, other: "DiGraph") -> bool:
        """True when node count and the (sorted) edge multisets agree."""
        if self.n != other.n or self.m != other.m:
            return False
        mine = sorted(zip(self.src.tolist(), self.dst.tolist(), self.prob.tolist()))
        theirs = sorted(zip(other.src.tolist(), other.dst.tolist(), other.prob.tolist()))
        return mine == theirs

    def has_edge(self, u: int, v: int) -> bool:
        """True when at least one ``u -> v`` edge exists."""
        u = check_node(u, self.n)
        v = check_node(v, self.n)
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        return bool(np.any(self.out_idx[lo:hi] == v))

    def edge_probability(self, u: int, v: int) -> float:
        """Probability of the ``u -> v`` edge (first match); KeyError if absent."""
        u = check_node(u, self.n)
        v = check_node(v, self.n)
        lo, hi = self.out_ptr[u], self.out_ptr[u + 1]
        matches = np.flatnonzero(self.out_idx[lo:hi] == v)
        if matches.size == 0:
            raise KeyError(f"no edge {u} -> {v}")
        return float(self.out_prob[lo + matches[0]])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(n={self.n}, m={self.m})"
