"""Flat (CSR-native) storage for sampled RR sets.

:class:`FlatRRCollection` is the library's one RR storage layer: instead of
one Python tuple per RR set, the whole collection lives in two packed
integer arrays,

* ``ptr``   — ``int64`` of length ``num_sets + 1``; set ``i`` occupies
  ``nodes[ptr[i]:ptr[i + 1]]`` (exactly the CSR layout the graph uses for
  adjacency),
* ``nodes`` — ``int32`` member node ids, concatenated in append order,

plus parallel ``widths`` / ``roots`` / ``costs`` arrays.  Every estimator the
algorithms read off ``R`` (``F_R(S)``, ``κ(R)`` averages, per-node
frequencies) becomes a handful of vectorised numpy calls:

* ``node_frequencies`` is one :func:`numpy.bincount` over ``nodes``,
* ``mean_kappa`` evaluates Equation 8 on the whole ``widths`` array at once,
* ``coverage_count`` is a boolean gather followed by a segmented any.

The arrays grow by amortised doubling so ``append``/``extend_flat`` stay
O(1) per stored node, and :meth:`nbytes` reports *exact* array payloads —
the honest number behind the Figure 12 memory reproduction.  An empty
collection takes its first bulk batch without copying it: it adopts the
arrays, which carry no spare capacity, so the next append grows into fresh
buffers and never writes into memory it shares.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.rrset.base import RRSet
from repro.utils.validation import require

__all__ = ["FlatRRCollection"]

_NODE_DTYPE = np.int32
_PTR_DTYPE = np.int64
#: Edge-trace entries are positions into the graph's in-CSR arrays; int32
#: caps the graph at 2^31 edges, the same universe the int32 ``nodes``
#: payload already implies for node ids.
_TRACE_DTYPE = np.int32


def _check_node_ids(nodes: np.ndarray, num_nodes: int) -> None:
    """Reject member ids outside ``[0, num_nodes)`` before they are stored."""
    if nodes.size:
        lo, hi = int(nodes.min()), int(nodes.max())
        require(0 <= lo and hi < num_nodes, "node id out of range for num_nodes")


def _check_trace_ids(trace_edges: np.ndarray, graph_edges: int) -> None:
    """Reject trace edge ids outside ``[0, graph_edges)`` before they are stored."""
    if trace_edges.size:
        lo, hi = int(trace_edges.min()), int(trace_edges.max())
        require(0 <= lo and hi < graph_edges, "trace edge id out of range for graph_edges")


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Return ``array`` with capacity >= ``needed`` (amortised doubling)."""
    capacity = array.size
    if capacity >= needed:
        return array
    new_capacity = max(needed, 2 * capacity, 16)
    grown = np.empty(new_capacity, dtype=array.dtype)
    grown[:capacity] = array
    return grown


class FlatRRCollection:
    """An append-only bag of RR sets stored as packed numpy arrays.

    Besides the sequence-style API (``len``, ``sets``, ``widths``,
    ``roots``, ``total_cost``, coverage estimators) it exposes the raw
    ``ptr``/``nodes`` arrays that the vectorised samplers and the numpy
    max-coverage solver operate on directly.
    """

    __slots__ = (
        "num_nodes",
        "graph_edges",
        "_num_sets",
        "_num_entries",
        "_ptr",
        "_nodes",
        "_widths",
        "_roots",
        "_costs",
        "_total_cost",
        "_track_traces",
        "_trace_ptr",
        "_trace_edges",
        "_num_trace_entries",
    )

    def __init__(self, num_nodes: int, graph_edges: int, track_traces: bool = False):
        require(num_nodes > 0, "num_nodes must be positive")
        self.num_nodes = int(num_nodes)
        self.graph_edges = int(graph_edges)
        self._num_sets = 0
        self._num_entries = 0
        self._ptr = np.zeros(16, dtype=_PTR_DTYPE)
        self._nodes = np.empty(64, dtype=_NODE_DTYPE)
        self._widths = np.empty(16, dtype=np.int64)
        self._roots = np.empty(16, dtype=_NODE_DTYPE)
        self._costs = np.empty(16, dtype=np.int64)
        self._total_cost = 0
        # Edge traces (the live in-CSR edge ids each set's generation
        # examined successfully) are the substrate of incremental repair
        # (repro.dynamic); tracking is all-or-nothing per collection so a
        # repair can trust every stored set to carry its trace.
        self._track_traces = bool(track_traces)
        self._num_trace_entries = 0
        if self._track_traces:
            self._trace_ptr = np.zeros(16, dtype=_PTR_DTYPE)
            self._trace_edges = np.empty(64, dtype=_TRACE_DTYPE)
        else:
            self._trace_ptr = None
            self._trace_edges = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rrsets(
        cls, num_nodes: int, graph_edges: int, rr_sets: Iterable[RRSet],
        track_traces: bool = False,
    ) -> "FlatRRCollection":
        """Build a flat collection from materialised :class:`RRSet` objects."""
        collection = cls(num_nodes, graph_edges, track_traces=track_traces)
        collection.extend(rr_sets)
        return collection

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        graph_edges: int,
        ptr: np.ndarray,
        nodes: np.ndarray,
        roots: np.ndarray,
        widths: np.ndarray,
        costs: np.ndarray,
        trace_ptr: np.ndarray | None = None,
        trace_edges: np.ndarray | None = None,
    ) -> "FlatRRCollection":
        """Adopt already-packed arrays as a collection *without copying*.

        This is the deserialisation entry point used by
        :mod:`repro.sketch.persistence`: the given arrays become the live
        storage directly, so memory-mapped (read-only) arrays are accepted —
        the first ``append``/``extend`` grows into fresh writable buffers
        before any in-place write happens, because loaded arrays carry no
        spare capacity.
        """
        # asanyarray keeps np.memmap views intact (mmap-loaded sketches).
        ptr = np.asanyarray(ptr)
        nodes = np.asanyarray(nodes)
        roots = np.asanyarray(roots)
        widths = np.asanyarray(widths)
        costs = np.asanyarray(costs)
        num_sets = int(roots.size)
        require(ptr.ndim == 1 and ptr.size == num_sets + 1, "ptr/roots length mismatch")
        require(widths.size == num_sets, "widths length mismatch")
        require(costs.size == num_sets, "costs length mismatch")
        require(int(ptr[0]) == 0, "ptr must start at 0")
        require(int(ptr[-1]) == int(nodes.size), "ptr does not span the nodes array")
        require(bool(np.all(np.diff(ptr) >= 0)), "ptr must be non-decreasing")
        _check_node_ids(nodes, num_nodes)
        require((trace_ptr is None) == (trace_edges is None),
                "trace_ptr and trace_edges must be given together")
        collection = cls(num_nodes, graph_edges, track_traces=trace_ptr is not None)
        collection._ptr = ptr
        collection._nodes = nodes
        collection._widths = widths
        collection._roots = roots
        collection._costs = costs
        collection._num_sets = num_sets
        collection._num_entries = int(nodes.size)
        collection._total_cost = int(costs.sum()) if num_sets else 0
        if trace_ptr is not None:
            trace_ptr = np.asanyarray(trace_ptr)
            trace_edges = np.asanyarray(trace_edges)
            require(trace_ptr.ndim == 1 and trace_ptr.size == num_sets + 1,
                    "trace_ptr/roots length mismatch")
            require(int(trace_ptr[0]) == 0, "trace_ptr must start at 0")
            require(int(trace_ptr[-1]) == int(trace_edges.size),
                    "trace_ptr does not span the trace_edges array")
            require(bool(np.all(np.diff(trace_ptr) >= 0)),
                    "trace_ptr must be non-decreasing")
            _check_trace_ids(trace_edges, graph_edges)
            collection._trace_ptr = trace_ptr
            collection._trace_edges = trace_edges
            collection._num_trace_entries = int(trace_edges.size)
        return collection

    def append(self, rr: RRSet) -> None:
        """Add one :class:`RRSet`, e.g. one that :meth:`to_rrsets` unpacked."""
        trace = None
        if self._track_traces:
            require(rr.trace is not None,
                    "this collection tracks edge traces; the RR set carries none "
                    "(sample with trace_edges=True)")
            trace = np.asarray(rr.trace, dtype=_TRACE_DTYPE)
        self.append_arrays(
            root=rr.root,
            members=np.asarray(rr.nodes, dtype=_NODE_DTYPE),
            width=rr.width,
            cost=rr.cost,
            trace=trace,
        )

    def extend(self, rr_sets: Iterable[RRSet]) -> None:
        """Add many sampled RR sets."""
        for rr in rr_sets:
            self.append(rr)

    def append_arrays(self, root: int, members: np.ndarray, width: int, cost: int,
                      trace: np.ndarray | None = None) -> None:
        """Add one RR set given its member array directly (no tuple detour)."""
        _check_node_ids(members, self.num_nodes)
        count = int(members.size)
        trace_count = self._check_trace(trace, int(trace.size) if trace is not None else 0)
        if trace is not None:
            _check_trace_ids(trace, self.graph_edges)
        self._reserve(self._num_sets + 1, self._num_entries + count,
                      self._num_trace_entries + trace_count)
        self._nodes[self._num_entries : self._num_entries + count] = members
        index = self._num_sets
        self._widths[index] = width
        self._roots[index] = root
        self._costs[index] = cost
        self._total_cost += int(cost)
        self._num_entries += count
        self._num_sets += 1
        self._ptr[self._num_sets] = self._num_entries
        if self._track_traces:
            if trace_count:
                self._trace_edges[
                    self._num_trace_entries : self._num_trace_entries + trace_count
                ] = trace
            self._num_trace_entries += trace_count
            self._trace_ptr[self._num_sets] = self._num_trace_entries

    def _check_trace(self, trace, extra_entries: int) -> int:
        """Enforce the all-or-nothing trace contract; returns entry count."""
        if self._track_traces:
            require(trace is not None,
                    "this collection tracks edge traces; appended sets must "
                    "carry trace arrays")
        else:
            require(trace is None,
                    "this collection does not track edge traces; rebuild it "
                    "with track_traces=True to store them")
        return extra_entries if self._track_traces else 0

    def extend_flat(self, other: "FlatRRCollection") -> None:
        """Append every RR set of another flat collection (array-level copy)."""
        require(
            other.num_nodes == self.num_nodes,
            "cannot merge collections over different node universes",
        )
        self.extend_arrays(
            roots=other.roots_array,
            ptr=other.ptr_array,
            nodes=other.nodes_array,
            widths=other.widths_array,
            costs=other.costs_array,
            trace_ptr=other.trace_ptr_array if self._track_traces else None,
            trace_edges=other.trace_edges_array if self._track_traces else None,
        )

    def extend_arrays(
        self,
        roots: np.ndarray,
        ptr: np.ndarray,
        nodes: np.ndarray,
        widths: np.ndarray,
        costs: np.ndarray,
        trace_ptr: np.ndarray | None = None,
        trace_edges: np.ndarray | None = None,
    ) -> None:
        """Bulk-append a whole batch of RR sets given in flat form.

        ``ptr`` is a local offset array of length ``len(roots) + 1`` indexing
        into ``nodes``; this is the entry point the vectorised samplers use to
        commit one expansion chunk with a handful of array copies.
        ``trace_ptr``/``trace_edges`` carry the batch's edge traces in the
        same local-offset form and are mandatory iff the collection tracks
        traces.

        An empty collection adopts the arrays instead of copying them (those
        of another dtype are converted first), so the caller hands them
        over: a sampler's commit, a merge of shards or :meth:`extend_flat`.
        """
        extra_sets = int(roots.size)
        extra_entries = int(nodes.size)
        require(ptr.size == extra_sets + 1, "ptr/roots length mismatch")
        require((trace_ptr is None) == (trace_edges is None),
                "trace_ptr and trace_edges must be given together")
        if extra_sets == 0:
            return
        _check_node_ids(nodes, self.num_nodes)
        extra_trace = self._check_trace(
            trace_ptr, int(trace_edges.size) if trace_edges is not None else 0
        )
        if self._track_traces:
            require(trace_ptr.size == extra_sets + 1, "trace_ptr/roots length mismatch")
            _check_trace_ids(trace_edges, self.graph_edges)
        if self._num_sets == 0 and int(ptr[0]) == 0 and (
            not self._track_traces or int(trace_ptr[0]) == 0
        ):
            self._adopt(roots, ptr, nodes, widths, costs, trace_ptr, trace_edges)
            return
        self._reserve(self._num_sets + extra_sets, self._num_entries + extra_entries,
                      self._num_trace_entries + extra_trace)
        self._nodes[self._num_entries : self._num_entries + extra_entries] = nodes
        self._ptr[self._num_sets + 1 : self._num_sets + 1 + extra_sets] = (
            np.asarray(ptr[1:], dtype=_PTR_DTYPE) + self._num_entries
        )
        self._widths[self._num_sets : self._num_sets + extra_sets] = widths
        self._roots[self._num_sets : self._num_sets + extra_sets] = roots
        self._costs[self._num_sets : self._num_sets + extra_sets] = costs
        self._total_cost += int(np.asarray(costs).sum()) if extra_sets else 0
        if self._track_traces:
            if extra_trace:
                self._trace_edges[
                    self._num_trace_entries : self._num_trace_entries + extra_trace
                ] = trace_edges
            self._trace_ptr[self._num_sets + 1 : self._num_sets + 1 + extra_sets] = (
                np.asarray(trace_ptr[1:], dtype=_PTR_DTYPE) + self._num_trace_entries
            )
            self._num_trace_entries += extra_trace
        self._num_sets += extra_sets
        self._num_entries += extra_entries

    def _adopt(self, roots, ptr, nodes, widths, costs, trace_ptr, trace_edges) -> None:
        """Take a whole batch as this empty collection's storage, uncopied."""
        self._ptr = np.asarray(ptr, dtype=_PTR_DTYPE)
        self._nodes = np.asarray(nodes, dtype=_NODE_DTYPE)
        self._widths = np.asarray(widths, dtype=np.int64)
        self._roots = np.asarray(roots, dtype=_NODE_DTYPE)
        self._costs = np.asarray(costs, dtype=np.int64)
        self._num_sets = int(self._roots.size)
        self._num_entries = int(self._nodes.size)
        self._total_cost = int(self._costs.sum())
        if self._track_traces:
            self._trace_ptr = np.asarray(trace_ptr, dtype=_PTR_DTYPE)
            self._trace_edges = np.asarray(trace_edges, dtype=_TRACE_DTYPE)
            self._num_trace_entries = int(self._trace_edges.size)

    def truncate(self, num_sets: int) -> None:
        """Drop every RR set after the first ``num_sets`` (RIS budget trim).

        The arrays shrink to the kept prefix, so a later append grows into
        fresh buffers rather than overwriting sets another collection may
        have adopted.
        """
        require(0 <= num_sets <= self._num_sets, "truncate target out of range")
        self._num_sets = num_sets
        self._num_entries = int(self._ptr[num_sets])
        self._total_cost = int(self._costs[:num_sets].sum()) if num_sets else 0
        self._ptr = self._ptr[: num_sets + 1]
        self._nodes = self._nodes[: self._num_entries]
        self._widths = self._widths[:num_sets]
        self._roots = self._roots[:num_sets]
        self._costs = self._costs[:num_sets]
        if self._track_traces:
            self._num_trace_entries = int(self._trace_ptr[num_sets])
            self._trace_ptr = self._trace_ptr[: num_sets + 1]
            self._trace_edges = self._trace_edges[: self._num_trace_entries]

    def _reserve(self, num_sets: int, num_entries: int, num_trace_entries: int = 0) -> None:
        self._ptr = _grow(self._ptr, num_sets + 1)
        self._nodes = _grow(self._nodes, num_entries)
        self._widths = _grow(self._widths, num_sets)
        self._roots = _grow(self._roots, num_sets)
        self._costs = _grow(self._costs, num_sets)
        if self._track_traces:
            self._trace_ptr = _grow(self._trace_ptr, num_sets + 1)
            self._trace_edges = _grow(self._trace_edges, num_trace_entries)

    # ------------------------------------------------------------------
    # Array views (the vectorised hot-path surface)
    # ------------------------------------------------------------------
    @property
    def ptr_array(self) -> np.ndarray:
        """``int64`` offsets; set ``i`` is ``nodes_array[ptr[i]:ptr[i+1]]``."""
        return self._ptr[: self._num_sets + 1]

    @property
    def nodes_array(self) -> np.ndarray:
        """Packed member node ids (``int32``)."""
        return self._nodes[: self._num_entries]

    @property
    def widths_array(self) -> np.ndarray:
        """Per-set widths ``w(R)`` as ``int64``."""
        return self._widths[: self._num_sets]

    @property
    def roots_array(self) -> np.ndarray:
        """Per-set root nodes as ``int32``."""
        return self._roots[: self._num_sets]

    @property
    def costs_array(self) -> np.ndarray:
        """Per-set generation costs (nodes + edges examined)."""
        return self._costs[: self._num_sets]

    def set_sizes(self) -> np.ndarray:
        """``|R|`` per stored set."""
        return np.diff(self.ptr_array)

    # ------------------------------------------------------------------
    # Edge traces (incremental-repair substrate)
    # ------------------------------------------------------------------
    @property
    def has_traces(self) -> bool:
        """Whether every stored set carries its live-edge trace."""
        return self._track_traces

    @property
    def trace_ptr_array(self) -> np.ndarray | None:
        """``int64`` offsets; set ``i``'s trace is
        ``trace_edges_array[trace_ptr[i]:trace_ptr[i+1]]`` (``None`` when
        the collection does not track traces)."""
        if not self._track_traces:
            return None
        return self._trace_ptr[: self._num_sets + 1]

    @property
    def trace_edges_array(self) -> np.ndarray | None:
        """Packed live in-CSR edge ids, concatenated in set order.

        For IC these are the edges whose coin succeeded during generation
        (including successes into already-visited members); for LT, the
        single chosen in-edge of each visited node.  They address positions
        in the *sampled graph's* ``in_idx``/``in_prob`` arrays, so a graph
        mutation must remap them (:meth:`repro.graphs.delta.GraphDelta
        .remap_edge_ids`) before they are reused.
        """
        if not self._track_traces:
            return None
        return self._trace_edges[: self._num_trace_entries]

    def trace_of(self, index: int) -> np.ndarray:
        """The live-edge trace of set ``index`` (view into the packed array)."""
        require(self._track_traces, "this collection does not track edge traces")
        require(0 <= index < self._num_sets, "set index out of range")
        return self._trace_edges[self._trace_ptr[index] : self._trace_ptr[index + 1]]

    # ------------------------------------------------------------------
    # Sequence-style accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_sets

    @property
    def sets(self) -> Sequence[tuple[int, ...]]:
        """Stored sets as Python tuples (materialised; compatibility path)."""
        nodes = self.nodes_array.tolist()
        ptr = self.ptr_array.tolist()
        return [tuple(nodes[ptr[i] : ptr[i + 1]]) for i in range(self._num_sets)]

    @property
    def widths(self) -> Sequence[int]:
        """Per-set widths ``w(R)``."""
        return self.widths_array.tolist()

    @property
    def roots(self) -> Sequence[int]:
        """Per-set root nodes."""
        return self.roots_array.tolist()

    @property
    def costs(self) -> Sequence[int]:
        """Per-set generation costs."""
        return self.costs_array.tolist()

    @property
    def total_cost(self) -> int:
        """Σ per-set generation cost (nodes + edges examined) — RIS's τ meter.

        Maintained incrementally: RIS polls this once per batch, so an O(1)
        counter beats re-summing the array.
        """
        return self._total_cost

    @property
    def total_nodes_stored(self) -> int:
        """Σ |R| over the collection."""
        return self._num_entries

    def to_rrsets(self) -> list[RRSet]:
        """Materialise :class:`RRSet` objects (compatibility/debugging path)."""
        nodes = self.nodes_array.tolist()
        ptr = self.ptr_array.tolist()
        widths = self.widths_array.tolist()
        roots = self.roots_array.tolist()
        costs = self.costs_array.tolist()
        traces = tptr = None
        if self._track_traces:
            traces = self.trace_edges_array.tolist()
            tptr = self.trace_ptr_array.tolist()
        return [
            RRSet(
                root=roots[i],
                nodes=tuple(nodes[ptr[i] : ptr[i + 1]]),
                width=widths[i],
                cost=costs[i],
                trace=tuple(traces[tptr[i] : tptr[i + 1]]) if traces is not None else None,
            )
            for i in range(self._num_sets)
        ]

    def __iter__(self) -> Iterator[RRSet]:
        return iter(self.to_rrsets())

    def nbytes(self) -> int:
        """Exact bytes of the *live* array payloads.

        Counts ``num_sets + 1`` ptr slots and ``total_nodes_stored`` node
        slots (not the amortised over-allocation), so the number tracks the
        λ/KPT⁺-driven growth of Section 7.4 precisely.
        """
        itemsize_nodes = self._nodes.itemsize
        itemsize_ptr = self._ptr.itemsize
        total = (
            (self._num_sets + 1) * itemsize_ptr
            + self._num_entries * itemsize_nodes
            + self._num_sets * (self._widths.itemsize + self._roots.itemsize + self._costs.itemsize)
        )
        if self._track_traces:
            total += (self._num_sets + 1) * self._trace_ptr.itemsize
            total += self._num_trace_entries * self._trace_edges.itemsize
        return total

    # ------------------------------------------------------------------
    # Estimators (vectorised)
    # ------------------------------------------------------------------
    def coverage_count(self, nodes) -> int:
        """Number of stored RR sets intersecting ``nodes``.

        Raises :class:`ValueError` for a node id outside ``[0, num_nodes)``.
        """
        ids = np.asarray(list(nodes), dtype=np.int64)
        _check_node_ids(ids, self.num_nodes)
        if self._num_sets == 0:
            return 0
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[ids] = True
        hit_at = np.flatnonzero(mask[self.nodes_array])
        if hit_at.size == 0:
            return 0
        # Hits come in entry order, so their owning set ids are non-decreasing.
        owners = np.searchsorted(self.ptr_array, hit_at, side="right")
        return int(np.count_nonzero(np.diff(owners))) + 1

    def coverage_fraction(self, nodes) -> float:
        """``F_R(S)``: fraction of RR sets covered by ``S``."""
        if self._num_sets == 0:
            return 0.0
        return self.coverage_count(nodes) / self._num_sets

    def estimate_spread(self, nodes) -> float:
        """``n · F_R(S)``, the unbiased spread estimator of Corollary 1."""
        return self.num_nodes * self.coverage_fraction(nodes)

    def mean_width(self) -> float:
        """Average ``w(R)`` — the EPT estimator of Section 3.2."""
        if self._num_sets == 0:
            return 0.0
        return float(self.widths_array.mean())

    def mean_kappa(self, k: int) -> float:
        """Average ``κ(R) = 1 - (1 - w(R)/m)^k`` (Equation 8), vectorised."""
        require(k >= 1, "k must be >= 1")
        if self._num_sets == 0 or self.graph_edges == 0:
            return 0.0
        kappa = 1.0 - (1.0 - self.widths_array / self.graph_edges) ** k
        return float(kappa.mean())

    def kappa_sum(self, k: int) -> float:
        """Σ ``κ(R)`` over the collection (Algorithm 2's running total)."""
        require(k >= 1, "k must be >= 1")
        if self._num_sets == 0 or self.graph_edges == 0:
            return 0.0
        return float((1.0 - (1.0 - self.widths_array / self.graph_edges) ** k).sum())

    def node_frequencies(self) -> list[int]:
        """How many RR sets each node appears in (argmax = best single seed)."""
        return np.bincount(self.nodes_array, minlength=self.num_nodes).tolist()

    def node_frequency_array(self) -> np.ndarray:
        """Vectorised variant of :meth:`node_frequencies` (no list detour)."""
        return np.bincount(self.nodes_array, minlength=self.num_nodes)

    # ------------------------------------------------------------------
    # Persistence (delegates to repro.sketch.persistence)
    # ------------------------------------------------------------------
    def save(self, path, meta: dict | None = None) -> None:
        """Persist the collection as a versioned ``.npz`` sketch file.

        ``meta`` carries sampler provenance (model name, theta, RNG seed,
        graph fingerprint, ...); see :func:`repro.sketch.persistence
        .save_sketch` for the format contract.
        """
        from repro.sketch.persistence import save_sketch

        save_sketch(path, self, meta or {})

    @classmethod
    def load(cls, path, mmap: bool = False) -> "tuple[FlatRRCollection, dict]":
        """Load a persisted sketch; returns ``(collection, metadata)``.

        With ``mmap=True`` the packed arrays are memory-mapped read-only
        (``mmap_mode="r"``) so concurrent service processes share pages.
        """
        from repro.sketch.persistence import load_sketch

        return load_sketch(path, mmap=mmap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatRRCollection(num_sets={self._num_sets}, "
            f"num_nodes={self.num_nodes}, stored_nodes={self._num_entries})"
        )
