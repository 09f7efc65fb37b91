"""`SketchIndex` — a reusable influence oracle over a persisted RR sketch.

TIM's structural insight (and Borgs et al.'s framing of RR sketches as an
oracle) is that a collection of random RR sets is *query-independent of k*:
one sketch answers seed selection for every budget, spread estimation for
any seed set, and marginal-gain probes — all without resampling.  The index
wraps a :class:`~repro.rrset.flat_collection.FlatRRCollection` with the
prebuilt structure every query needs, a CSR **inverted index**
``node → ids of the RR sets containing it`` (a node's cover count is the
length of its list), and keeps an *incremental* greedy selection state:
``select(5)`` then ``select(25)`` continues from the fifth pick instead of
restarting, so a service answering ascending-k queries pays each greedy
round once.  The state is the same argmax kernel that
:func:`repro.rrset.coverage.greedy_max_coverage` runs, so a selection over
the index picks the same seeds as one over the bare collection.

Warm-start theta extension: when a query demands a tighter ε than the sketch
was built for, :meth:`ensure_theta` appends freshly sampled RR sets via
``extend_flat`` (never resampling the existing prefix) and invalidates the
derived structures; :meth:`save` then persists the grown sketch.  How many
sets an ε needs for a budget ``k`` is priced in one place,
:func:`repro.core.pricing.price`, which ``build(k=...)``,
:meth:`ensure_epsilon` and ``tim``/``tim_plus``/``imm`` call.

Edge updates: :meth:`apply_update` repairs only the RR sets an update
touched (:mod:`repro.dynamic.repair`) and patches the postings of just the
nodes whose membership changed, so they stay equal to a fresh build; only
the greedy state starts over.  An update costs what it touches plus one
copy of the payload arrays (a repair never mutates its input), not a
rebuild of the whole index.
"""

from __future__ import annotations

import os
from typing import Any, Collection, Iterable, cast

import numpy as np

from repro.api.policy import ExecutionPolicy
from repro.faults import injection as faults
from repro.obs import runtime as obs
from repro.diffusion.base import resolve_model
from repro.parallel import ParallelSampler, maybe_parallel
from repro.rrset.base import make_rr_sampler
from repro.rrset.coverage import (
    CoverageResult,
    _GreedyKernel,
    _inverted_index,
    _patch_postings,
)
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.memory import release_free_heap
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_k, require

__all__ = ["SketchIndex"]


class SketchIndex:
    """Query service over one RR sketch: selection, spread, marginal gain.

    Parameters
    ----------
    collection:
        The sketch itself (a :class:`FlatRRCollection`); ``None`` starts an
        empty sketch over ``graph`` to be filled by ``ensure_theta`` or by
        routing a ``tim`` call through the index.
    graph:
        The sampled graph.  Optional for pure read-only querying of a loaded
        sketch, required for warm extension (sampling needs the graph) and
        for fingerprint stamping.
    model:
        Diffusion model name or instance the sketch was sampled under.
    meta:
        Provenance dictionary (see :mod:`repro.sketch.persistence`); the
        index keeps ``theta`` current as the sketch grows, and
        :func:`~repro.core.pricing.price` records the latest pricing in it.
    jobs:
        Worker processes for warm-start sampling (``ensure_theta`` /
        ``ensure_epsilon`` and cold builds): ``0`` = all cores, ``None``
        (default) = the legacy single stream.  The pool persists on the
        index across extension waves (call :meth:`close` to release it);
        the sampled RR sets are byte-identical for every worker count, so
        a sketch grown with ``jobs=8`` equals one grown with ``jobs=1``.
    """

    def __init__(self, collection: FlatRRCollection | None = None, *,
                 graph: Any = None, model: Any = "IC",
                 meta: dict[str, Any] | None = None,
                 jobs: int | None = None) -> None:
        require(collection is not None or graph is not None,
                "SketchIndex needs a collection, a graph, or both")
        self._model = resolve_model(model)
        if collection is None:
            collection = FlatRRCollection(graph.n, graph.m)
        self.collection = collection
        self.graph = graph
        if graph is not None:
            require(graph.n == collection.num_nodes,
                    "collection node universe does not match the graph")
        self.meta = dict(meta or {})
        self.meta.setdefault("model", self._model.name)
        require(self.meta["model"] == self._model.name,
                f"sketch was sampled under model {self.meta['model']!r}, "
                f"not {self._model.name!r}")
        if graph is not None:
            self.meta.setdefault("graph_fingerprint", graph.fingerprint())
        self.meta["theta"] = len(collection)
        #: Every pricing of this graph's sketch, keyed by (rule, k, ℓ);
        #: read and written by :func:`repro.core.pricing.price` only.
        self.priced: dict[tuple[str, int, float], Any] = {}
        self._sampler: Any = None
        self._jobs = jobs
        self._inv_ptr: np.ndarray[Any, Any] | None = None
        self._inv_sets: np.ndarray[Any, Any] | None = None
        self._kernel: _GreedyKernel | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Any, model: Any = "IC", *,
              theta: int | None = None, k: int | None = None,
              epsilon: float | None = None, ell: float | None = None,
              rng: Any = None,
              jobs: int | None = None, trace_edges: bool | None = None,
              policy: Any = None,
              algorithm: str | None = None) -> "SketchIndex":
        """Cold-build a sketch: sample θ random RR sets and index them.

        Either pass ``theta`` directly, or pass ``k`` and the sketch size is
        priced by :func:`repro.core.pricing.price` under ``algorithm`` for
        the given ``epsilon``/``ell``:

        * ``"tim"`` (default) — Algorithm 2's KPT* and θ = ⌈λ/KPT*⌉, the
          sketch a ``tim(graph, k, epsilon)`` call selects on;
        * ``"imm"`` — IMM's martingale lower-bound search, which typically
          lands on a substantially smaller θ for the same ε.

        ``algorithm=None`` resolves from ``policy.algorithm`` (``"imm"``
        selects the IMM rule; every other value falls back to the TIM rule,
        which is also what TIM+ sketches use).

        ``jobs`` shards the build across worker processes (``0`` = all
        cores); the resulting sketch — and therefore its saved file — is
        byte-identical for every worker count.  The pool stays on the index
        for warm-start extensions.

        ``trace_edges`` records each RR set's live-edge trace (IC/LT only),
        the dependency record :meth:`apply_update` uses for precise
        invalidation under graph updates.  Tracing changes neither the
        sampled sets nor the RNG stream — only the extra arrays stored.

        ``policy`` (an :class:`~repro.api.policy.ExecutionPolicy`) supplies
        defaults for ``jobs``/``trace_edges``/``epsilon``/``ell``;
        explicit keyword arguments override it, so existing call shapes are
        unchanged.
        """
        resolved_policy = ExecutionPolicy.coerce(policy)
        jobs = resolved_policy.jobs if jobs is None else jobs
        trace_edges = resolved_policy.trace_edges if trace_edges is None else trace_edges
        epsilon = resolved_policy.epsilon if epsilon is None else epsilon
        ell = resolved_policy.ell if ell is None else ell
        if algorithm is None:
            algorithm = "imm" if resolved_policy.algorithm == "imm" else "tim"
        require(algorithm in ("tim", "imm"),
                f"sketch derivation algorithm must be 'tim' or 'imm'; "
                f"got {algorithm!r}")
        resolved = resolve_model(model)
        resolved.validate_graph(graph)
        if theta is None:
            require(k is not None, "build needs theta, or k to derive theta from epsilon")
            check_k(cast(int, k), graph.n)
        else:
            theta = int(theta)
            require(theta >= 1, "theta must be >= 1")
        source = resolve_rng(rng)
        with obs.trace("sketch.build", model=resolved.name, algorithm=algorithm):
            faults.checkpoint("sketch.build")
            sampler, _ = maybe_parallel(
                make_rr_sampler(graph, resolved, trace_edges=trace_edges), jobs
            )
            if theta is None:
                collection = FlatRRCollection(graph.n, graph.m, track_traces=trace_edges)
            else:
                collection = sampler.sample_random_batch(theta, source)
            # "engine" stays in the metadata so saved sketch files keep
            # their bytes and older readers keep loading them.
            meta: dict[str, Any] = {"rng_seed": source.seed, "engine": "vectorized"}
            index = cls(collection, graph=graph, model=resolved, meta=meta, jobs=jobs)
            index._sampler = sampler
            if theta is None:
                from repro.core.pricing import price

                price(index, cast(int, k), epsilon, ell, algorithm, source)
        return index

    @classmethod
    def load(cls, path: str | os.PathLike[str], graph: Any = None,
             model: Any = None, mmap: bool = False,
             jobs: int | None = None) -> "SketchIndex":
        """Load a persisted sketch, validating it against ``graph`` if given.

        A sketch recorded for a different graph raises
        :class:`~repro.sketch.persistence.SketchGraphMismatchError` — RR
        sets only estimate spread on the exact graph they were drawn from.
        ``jobs`` configures worker processes for later warm-start sampling.
        """
        from repro.sketch.persistence import load_sketch

        expected = graph.fingerprint() if graph is not None else None
        collection, meta = load_sketch(path, mmap=mmap, expected_fingerprint=expected)
        return cls(collection, graph=graph, model=model or meta.get("model", "IC"),
                   meta=meta, jobs=jobs)

    def save(self, path: str | os.PathLike[str]) -> None:
        """Persist the (possibly grown) sketch and its current metadata."""
        payload = {
            key: value
            for key, value in self.meta.items()
            if key not in ("format_version", "num_nodes", "graph_edges", "num_sets")
        }
        self.collection.save(path, payload)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """θ — the number of RR sets currently in the sketch."""
        return len(self.collection)

    @property
    def num_nodes(self) -> int:
        return self.collection.num_nodes

    def _ensure_postings(self) -> tuple[np.ndarray[Any, Any], np.ndarray[Any, Any]]:
        if self._inv_ptr is None or self._inv_sets is None:
            # A build follows sampling, whose freed scratch glibc can keep
            # resident; handing it back first keeps it out of the peak the
            # postings set.
            release_free_heap()
            self._inv_ptr, self._inv_sets = _inverted_index(
                self.collection.ptr_array, self.collection.nodes_array, self.num_nodes
            )
        return self._inv_ptr, self._inv_sets

    def invalidate(self) -> None:
        """Drop postings and selection state (call after the sketch grows)."""
        self._inv_ptr = None
        self._inv_sets = None
        self._kernel = None

    # ------------------------------------------------------------------
    # Growth (warm-start theta extension)
    # ------------------------------------------------------------------
    def sampler(self, jobs: int | None = None) -> Any:
        """The RR sampler this index grows with, built on first use.

        ``jobs`` (sticky) re-configures its worker pool.  Algorithm 2 and 3
        batches that price the sketch are drawn through it too, so they
        share the pool its growth uses.
        """
        require(self.graph is not None,
                "this index has no graph attached; re-load the sketch with "
                "graph=... to enable sampling")
        self._use_jobs(jobs)
        if self._sampler is None:
            # Tracing must follow the collection: extending a traced sketch
            # with untraced batches (or vice versa) is rejected downstream.
            self._sampler, _ = maybe_parallel(
                make_rr_sampler(self.graph, self._model,
                                trace_edges=self.collection.has_traces),
                self._jobs,
            )
        return self._sampler

    def _use_jobs(self, jobs: int | None) -> None:
        if jobs is not None and jobs != self._jobs:
            # Re-configure the worker count: tear down any existing pool so
            # the next batch spawns one with the requested width.  Sampled
            # bytes do not depend on the worker count, only wall-clock does.
            self.close()
            self._sampler = None
            self._jobs = jobs

    def close(self) -> None:
        """Shut down the warm-start sampling pool, if one is live.

        Queries keep working (they never sample); a later ``ensure_theta``
        lazily respawns the pool.
        """
        if isinstance(self._sampler, ParallelSampler):
            self._sampler.close()

    def extend_flat(self, batch: FlatRRCollection) -> None:
        """Append pre-sampled RR sets (array-level) and invalidate caches."""
        with obs.trace("sketch.extend", sets=len(batch)):
            faults.checkpoint("sketch.extend")
            self.collection.extend_flat(batch)
            self.meta["theta"] = len(self.collection)
            self.invalidate()

    def ensure_theta(self, theta: int, rng: Any = None,
                     jobs: int | None = None) -> int:
        """Grow the sketch to at least ``theta`` RR sets; returns the number added.

        The existing prefix is never resampled — random RR sets are i.i.d.,
        so appending fresh ones preserves every estimator guarantee while
        reusing all prior sampling work (the warm-start amortization that
        makes repeated tighter-ε queries cheap).  ``jobs`` (sticky: it
        becomes the index default) shards the extension across worker
        processes with worker-count-invariant bytes.

        The postings and the greedy state describe the old sets, and the
        next query rebuilds them anyway, so they are dropped before the
        batch is sampled rather than held beside it.
        """
        missing = int(theta) - len(self.collection)
        if missing <= 0:
            return 0
        sampler = self.sampler(jobs)
        self.invalidate()
        batch = sampler.sample_random_batch(missing, resolve_rng(rng))
        self.extend_flat(batch)
        return missing

    def ensure_epsilon(self, k: int, epsilon: float, ell: float = 1.0,
                       rng: Any = None, jobs: int | None = None) -> int:
        """Grow the sketch until it is ε-adequate for budget ``k``.

        Prices θ with :func:`repro.core.pricing.price` under the rule the
        sketch was priced with (``meta["algorithm"]``; ``"tim"`` for a
        sketch built with a fixed ``theta``) and extends to it; returns the
        number of sets added.  The lower bound is k-dependent, so a bound
        priced for one ``k`` never prices another; a repeat for a priced
        ``k`` reuses its bound and samples only the shortfall.
        """
        from repro.core.pricing import price

        self._use_jobs(jobs)
        before = self.num_sets
        price(self, k, epsilon, ell, self.meta.get("algorithm", "tim"), rng)
        return self.num_sets - before

    def record_epsilon(self, epsilon: float) -> None:
        """Record ``epsilon`` as certified if it is the tightest ε so far.

        ``meta["epsilon"]`` tracks the *tightest* ε whose θ the collection
        meets; a looser request never regresses it (the sketch still
        certifies the tighter value), and a no-op growth still updates it.
        """
        recorded = self.meta.get("epsilon")
        if recorded is None or float(epsilon) < float(recorded):
            self.meta["epsilon"] = float(epsilon)

    # ------------------------------------------------------------------
    # Incremental repair (dynamic graphs)
    # ------------------------------------------------------------------
    def apply_update(self, delta: Any, rng: Any = None,
                     jobs: int | None = None) -> Any:
        """Repair the sketch across one edge update instead of rebuilding.

        ``delta`` is the :class:`~repro.graphs.delta.GraphDelta` produced by
        a :class:`~repro.dynamic.graph.DynamicDiGraph` mutation (or the
        :mod:`repro.graphs.delta` primitives) whose *old* side is the graph
        this index currently serves.  Only the RR sets the update could have
        changed are rewritten (:func:`~repro.dynamic.repair.repair_collection`):
        a traced IC sketch extends or shrinks them over their stored live
        edges, with no resampling; LT and untraced sketches resample them
        with their original roots, through a fresh sampler bound to the new
        snapshot (sharded across ``jobs`` workers with ``SeedSequence.spawn``
        streams, so the repaired bytes are worker-count invariant).

        Built postings name the sets that hold the updated edge's head
        without a scan of the sketch, and are then patched for the
        rewritten sets only.  The patch is computed before any index state
        changes: if the repair or the patch raises, the index keeps serving
        the old snapshot.  The index then rebinds to the new graph:
        fingerprint metadata moves forward, stale pricings drop, and the
        greedy selection state starts over from the patched postings.

        Returns the :class:`~repro.dynamic.repair.RepairReport`.
        """
        from repro.dynamic.repair import repair_collection

        require(self.graph is not None,
                "this index has no graph attached; re-load the sketch with "
                "graph=... to enable repair")
        require(self._model.name in ("IC", "LT"),
                f"incremental repair supports IC and LT; the index serves "
                f"{self._model.name!r} (rebuild instead)")
        require(self.graph.fingerprint() == delta.old_fingerprint,
                "update was produced against a different graph snapshot than "
                "this index serves")
        # Build the post-update sampler *before* touching index state, so a
        # rejected update (e.g. an LT insert breaking the Σ in-weight <= 1
        # invariant) leaves the index fully serving the old snapshot.
        sampler, _ = maybe_parallel(
            make_rr_sampler(delta.new_graph, self._model,
                            trace_edges=self.collection.has_traces),
            jobs if jobs is not None else self._jobs,
        )
        with obs.trace("repair.apply_update", action=delta.op):
            faults.checkpoint("sketch.apply_update")
            postings: tuple[np.ndarray[Any, Any], np.ndarray[Any, Any]] | None = None
            if self._inv_ptr is not None and self._inv_sets is not None:
                postings = (self._inv_ptr, self._inv_sets)
            repaired, report = repair_collection(
                self.collection, delta, sampler, rng=resolve_rng(rng), postings=postings
            )
            if postings is not None:
                postings = _patch_postings(
                    *postings,
                    self.collection.ptr_array, self.collection.nodes_array,
                    repaired.ptr_array, repaired.nodes_array, report.replaced,
                )
        obs.add("repair.sets_resampled", report.num_affected)
        if jobs is not None:
            self._jobs = jobs
        # The old pool (if any) broadcast the old graph's arrays — retire it
        # and hand the index the fresh sampler bound to the new snapshot.
        self.close()
        self._sampler = sampler
        self.graph = delta.new_graph
        self.collection = repaired
        self.meta["graph_fingerprint"] = delta.new_fingerprint
        self.meta["theta"] = len(self.collection)
        self.meta["dynamic_updates"] = int(self.meta.get("dynamic_updates", 0)) + 1
        # Lower bounds on OPT were estimated on the old graph; they no
        # longer certify θ for the new one.  Drop them so the next pricing
        # re-estimates instead of silently trusting stale numbers.
        self.priced.clear()
        for stale in ("kpt_star", "kpt_plus", "imm_lower_bound"):
            self.meta.pop(stale, None)
        self.invalidate()
        if postings is not None:
            self._inv_ptr, self._inv_sets = postings
        return report

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, k: int, forced_include: Iterable[int] = (),
               forced_exclude: Iterable[int] = ()) -> CoverageResult:
        """Greedy max-coverage seed selection over the sketch, for any ``k``.

        Matches :func:`repro.rrset.coverage.greedy_max_coverage` seed-for-seed
        (ties resolve toward the smaller node id).  Without constraints the
        greedy state persists across calls, so ascending-k queries extend
        the previous answer instead of recomputing it.

        ``forced_include`` seeds are taken first (in the given order) and
        count toward ``k``; ``forced_exclude`` nodes are never selected.  A
        constrained select runs a fresh greedy and leaves the shared state
        alone.
        """
        with obs.trace("sketch.select", k=int(k)):
            faults.checkpoint("sketch.select")
            return self._select(k, forced_include, forced_exclude)

    def _select(self, k: int, forced_include: Iterable[int],
                forced_exclude: Iterable[int]) -> CoverageResult:
        check_k(k, self.num_nodes)
        include = [int(v) for v in forced_include]
        exclude = {int(v) for v in forced_exclude}
        if include or exclude:
            for node in include:
                require(0 <= node < self.num_nodes, f"forced seed {node} out of range")
            for node in exclude:
                require(0 <= node < self.num_nodes, f"excluded node {node} out of range")
            require(len(set(include)) == len(include), "forced_include has duplicates")
            require(not (set(include) & exclude),
                    "forced_include and forced_exclude overlap")
            require(len(include) <= k, "forced_include larger than k")
            require(self.num_nodes - len(exclude) >= k,
                    "exclusions leave fewer than k eligible nodes")
            kernel = self._new_kernel(exclude)
            for node in include:
                kernel.take(node)
        else:
            if self._kernel is None:
                self._kernel = self._new_kernel()
            kernel = self._kernel
        if len(kernel.seeds) < k:
            with obs.trace("selection.greedy", k=int(k)):
                kernel.extend_to(k)
        return kernel.result(k)

    def _new_kernel(self, exclude: Collection[int] = ()) -> _GreedyKernel:
        inv_ptr, inv_sets = self._ensure_postings()
        return _GreedyKernel(self.collection.ptr_array, self.collection.nodes_array,
                             inv_ptr, inv_sets, exclude)

    def _covered_mask(self, seeds: Iterable[int]) -> np.ndarray[Any, Any]:
        """Which RR sets ``seeds`` cover (postings-list union); checks every id."""
        inv_ptr, inv_sets = self._ensure_postings()
        mask = np.zeros(self.num_sets, dtype=bool)
        for v in seeds:
            v = int(v)
            require(0 <= v < self.num_nodes, f"seed {v} out of range")
            mask[inv_sets[inv_ptr[v] : inv_ptr[v + 1]]] = True
        return mask

    def coverage_count(self, seeds: Iterable[int]) -> int:
        """Number of RR sets covered by ``seeds`` (postings-list union)."""
        return int(np.count_nonzero(self._covered_mask(seeds)))

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        """``F_R(S)`` over the sketch."""
        covered = self.coverage_count(seeds)
        return covered / self.num_sets if self.num_sets else 0.0

    def spread(self, seeds: Iterable[int]) -> float:
        """``n · F_R(S)`` — the Corollary 1 spread estimate, no resampling."""
        return self.num_nodes * self.coverage_fraction(seeds)

    def marginal_gain(self, seeds: Iterable[int], candidate: int) -> float:
        """Estimated spread increase from adding ``candidate`` to ``seeds``."""
        candidate = int(candidate)
        require(0 <= candidate < self.num_nodes, f"candidate {candidate} out of range")
        mask = self._covered_mask(seeds)
        inv_ptr, inv_sets = self._ensure_postings()
        postings = inv_sets[inv_ptr[candidate] : inv_ptr[candidate + 1]]
        gain = int(np.count_nonzero(~mask[postings]))
        return self.num_nodes * gain / self.num_sets if self.num_sets else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchIndex(num_sets={self.num_sets}, num_nodes={self.num_nodes}, "
            f"model={self._model.name!r})"
        )
