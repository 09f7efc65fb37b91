"""`ParallelSampler` — multicore sharded RR generation over a worker pool.

TIM's wall clock is dominated by RR-set generation, and every phase of it
(Algorithm 2's doubling loop, Algorithm 3's θ′ batch, node selection's θ
batch, sketch builds) funnels through ``sample_random_batch``/``sample_batch``.
This engine shards those calls across a persistent process pool while
keeping results **bit-reproducible for any worker count**:

* **Sharding is a pure function of the batch size** (never of ``jobs``):
  :func:`shard_sizes` cuts a batch into at most :data:`MAX_SHARDS` shards of
  at least :data:`MIN_SHARD` roots, so shards stay big enough to amortize
  IPC and the cut points cannot drift when the worker count changes.
* **One child seed stream per shard** via ``np.random.SeedSequence.spawn``:
  the parent draws a single 63-bit entropy value from the caller's RNG,
  seeds a ``SeedSequence`` with it, and spawns one child per shard.  Shard
  ``i`` always receives child ``i``, so the (shard → random stream) mapping
  is fixed no matter which worker runs it.
* **Merging in shard-index order** into one
  :class:`~repro.rrset.flat_collection.FlatRRCollection` — the packed
  arrays come out byte-identical for ``jobs=1`` (shards run inline, no pool)
  and ``jobs=8`` (shards run wherever a worker is free), and therefore so do
  KPT estimates, ``tim()`` seed sets, and persisted sketch files.

The pool itself is lazy (spawned on the first sharded call that wants one),
reused across every wave of a run, and broadcast the graph's in-CSR arrays
exactly once via :mod:`repro.parallel.shm` (shared memory, memmap-file
fallback).  A crashed wave is retried under a deterministic
:class:`~repro.faults.retry.RetryPolicy` (teardown + respawn + re-run of
the *same* shard seed stream, so a retried wave reproduces the exact bytes
of an un-faulted run) and, with the budget exhausted, the engine degrades
to in-process sharding — same bytes, one core, loud warning.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import numpy as np

from repro.faults import injection as faults
from repro.faults.errors import TransientError
from repro.faults.retry import RetryPolicy
from repro.obs import runtime as obs
from repro.parallel.shared_graph import graph_payload
from repro.parallel.shm import pack_arrays
from repro.parallel.worker import init_worker, run_shard, run_shard_with, sampler_spec
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.memory import release_free_heap
from repro.utils.rng import resolve_rng, spawn_seed_streams
from repro.utils.validation import require

__all__ = [
    "ParallelSampler",
    "resolve_jobs",
    "maybe_parallel",
    "shard_sizes",
]

#: Smallest shard worth a round trip to a worker: below this the pickle +
#: queue latency rivals the sampling itself (measured in bench_samplers'
#: --jobs sweep).  Also the shard size floor for inline (jobs=1) runs so the
#: shard layout is identical for every worker count.
MIN_SHARD = 1024

#: Upper bound on shards per batch: keeps the per-batch Python dispatch and
#: SeedSequence spawning O(1)-ish while still load-balancing up to 64 cores.
MAX_SHARDS = 64

#: Default wave retry budget: 3 attempts (one try + two respawns) — one more
#: respawn than the historical hard-coded single-respawn recovery, with
#: short deterministic backoff so a transiently OOM-killed pool gets a
#: moment to release memory before the redo.
DEFAULT_WAVE_RETRY = RetryPolicy(max_attempts=3, base_delay_ms=5.0, max_delay_ms=50.0)


def resolve_jobs(jobs: int) -> int:
    """Normalise a ``jobs`` request: ``0`` means all cores, ``n>=1`` literal."""
    require(isinstance(jobs, int) and not isinstance(jobs, bool), "jobs must be an int")
    require(jobs >= 0, f"jobs must be >= 0 (0 = all cores); got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def shard_sizes(count: int, min_shard: int = MIN_SHARD, max_shards: int = MAX_SHARDS) -> list[int]:
    """Deterministic shard layout for a batch of ``count`` roots.

    Depends only on ``count`` (and the module constants) — crucially *not*
    on the worker count — so the same batch is always cut the same way.
    """
    if count <= 0:
        return []
    num = min(max_shards, max(1, -(-count // min_shard)))
    base, extra = divmod(count, num)
    return [base + 1 if i < extra else base for i in range(num)]


def maybe_parallel(sampler, jobs):
    """Wrap ``sampler`` for an explicit ``jobs`` request.

    Returns ``(sampler, owned)``.  ``jobs=None`` (the library default) keeps
    the legacy single-stream path untouched; an already-wrapped sampler is
    passed through so layered calls (``tim`` → ``node_selection``) share one
    pool — with a loud warning if the pass-through discards an explicit
    *conflicting* worker-count request.  ``owned`` tells the caller whether
    it should ``close()`` the wrapper when its run finishes.
    """
    if isinstance(sampler, ParallelSampler):
        if jobs is not None and resolve_jobs(jobs) != sampler.jobs:
            warnings.warn(
                f"sampler is already parallel with jobs={sampler.jobs}; "
                f"ignoring the conflicting jobs={jobs} request (close the "
                "wrapper and re-wrap to change the worker count)",
                RuntimeWarning,
                stacklevel=2,
            )
        return sampler, False
    if jobs is None:
        return sampler, False
    return ParallelSampler(sampler, jobs=jobs), True


def _owned(result: tuple) -> tuple:
    """A pool result copied into arrays this thread allocates.

    The executor unpickles results on its manager thread, so glibc serves
    them from that thread's arena.  ``malloc_trim`` cannot shrink the top of
    such an arena, and every worker a later pool forks maps all of it.
    Copying each result as it arrives keeps that arena to the few results
    in flight.
    """
    return tuple(None if array is None else array.copy() for array in result)


def _shutdown_state(state: dict) -> None:
    """Idempotent teardown shared by ``close()`` and the GC finalizer."""
    executor = state.pop("executor", None)
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)
    pack = state.pop("pack", None)
    if pack is not None:
        pack.close()


class ParallelSampler:
    """Deterministic sharded facade over a model-specific RR sampler.

    Parameters
    ----------
    sampler:
        The base per-process sampler (``ICRRSampler``, ``LTRRSampler``, ...).
        Random-root shards keep its root law: each shard calls its
        ``sample_random_batch`` (a ``WeightedRootSampler`` draws weighted
        roots).
    jobs:
        Worker count; ``0`` resolves to ``os.cpu_count()``.  ``jobs=1`` runs
        the shards inline — same shard layout, same seed streams, same
        bytes — without ever spawning a pool.
    start_method:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); ``None`` uses the platform default.  Workers only
        receive picklable payloads, so every method is safe.
    transport:
        Force the graph broadcast transport (``"shared_memory"`` or
        ``"memmap"``); default prefers shared memory and falls back.
    retry:
        Wave retry budget (:data:`DEFAULT_WAVE_RETRY` when ``None``): a
        crashed or fault-injected wave tears the pool down, backs off
        deterministically, respawns, and re-runs the same shard seed
        stream.  With the budget spent the engine degrades to in-process
        shards — results are byte-identical on every path.
    """

    def __init__(self, sampler, jobs: int = 1, *, start_method: str | None = None,
                 transport: str | None = None, retry: RetryPolicy | None = None):
        self._sampler = sampler
        self.jobs = resolve_jobs(jobs)
        self._start_method = start_method
        self._transport = transport
        self._retry = retry if retry is not None else DEFAULT_WAVE_RETRY
        self._spec = sampler_spec(sampler)
        self._state: dict = {}
        self._pool_disabled = False
        self._warned_inline = False
        self._finalizer = weakref.finalize(self, _shutdown_state, self._state)

    # ------------------------------------------------------------------
    # Delegated surface
    # ------------------------------------------------------------------
    @property
    def graph(self):
        return self._sampler.graph

    @property
    def model_name(self) -> str:
        return self._sampler.model_name

    @property
    def base_sampler(self):
        """The wrapped per-process sampler."""
        return self._sampler

    def __getattr__(self, name):
        # Anything else (max_depth, trace_edges, tuning constants) reads
        # through.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._sampler, name)

    # ------------------------------------------------------------------
    # Sharded batch generation
    # ------------------------------------------------------------------
    def sample_random_batch(self, count: int, rng) -> FlatRRCollection:
        """``count`` random-root RR sets, sharded; byte-stable across jobs."""
        source = resolve_rng(rng)
        sizes = shard_sizes(int(count))
        seeds = self._shard_seeds(source, len(sizes))
        tasks = [("random", seed, size) for seed, size in zip(seeds, sizes)]
        return self._merge(self._run_shards(tasks))

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """One RR set per given root, sharded by contiguous root slices."""
        source = resolve_rng(rng)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        sizes = shard_sizes(int(roots.size))
        seeds = self._shard_seeds(source, len(sizes))
        tasks = []
        offset = 0
        for seed, size in zip(seeds, sizes):
            tasks.append(("roots", seed, roots[offset : offset + size]))
            offset += size
        return self._merge(self._run_shards(tasks))

    def _shard_seeds(self, source, num_shards: int) -> list[int]:
        """One child stream per shard, derived from a single parent draw.

        The parent's RNG advances by exactly one ``getrandbits`` call per
        batch regardless of shard or worker count, so multi-phase runs
        (KPT estimation → refinement → selection) consume the caller's
        stream identically for every ``jobs`` value.
        """
        entropy = source.py.getrandbits(63)
        return spawn_seed_streams(entropy, num_shards)

    def _merge(self, shards: list) -> FlatRRCollection:
        """Concatenate the shard results, in shard order, into one collection.

        Each packed array is allocated once at its final size and filled
        shard by shard, and a shard leaves ``shards`` as soon as it is
        copied, so the merge holds one output beside the shards not yet
        copied.  The empty collection adopts the arrays uncopied.
        """
        graph = self._sampler.graph
        track = bool(getattr(self._sampler, "trace_edges", False))
        out = FlatRRCollection(graph.n, graph.m, track_traces=track)
        if not shards:
            return out
        num_sets = sum(int(shard[2].size) for shard in shards)
        ptr = np.zeros(num_sets + 1, dtype=np.int64)
        nodes = np.empty(sum(int(shard[1].size) for shard in shards), dtype=np.int32)
        roots = np.empty(num_sets, dtype=np.int32)
        widths = np.empty(num_sets, dtype=np.int64)
        costs = np.empty(num_sets, dtype=np.int64)
        trace_ptr = trace_edges = None
        if track:
            trace_ptr = np.zeros(num_sets + 1, dtype=np.int64)
            trace_edges = np.empty(sum(int(shard[6].size) for shard in shards),
                                   dtype=np.int32)
        set_at = entry_at = trace_at = 0
        for position, shard in enumerate(shards):
            shards[position] = None
            s_ptr, s_nodes, s_roots, s_widths, s_costs, s_trace_ptr, s_trace_edges = shard
            end = set_at + s_roots.size
            ptr[set_at + 1 : end + 1] = s_ptr[1:] + entry_at
            nodes[entry_at : entry_at + s_nodes.size] = s_nodes
            roots[set_at:end] = s_roots
            widths[set_at:end] = s_widths
            costs[set_at:end] = s_costs
            entry_at += s_nodes.size
            if track:
                trace_ptr[set_at + 1 : end + 1] = s_trace_ptr[1:] + trace_at
                trace_edges[trace_at : trace_at + s_trace_edges.size] = s_trace_edges
                trace_at += s_trace_edges.size
            set_at = end
        out.extend_arrays(roots=roots, ptr=ptr, nodes=nodes, widths=widths, costs=costs,
                          trace_ptr=trace_ptr, trace_edges=trace_edges)
        return out

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _run_shards(self, tasks) -> list:
        if not tasks:
            return []
        with obs.trace("sampling.parallel_wave", shards=len(tasks), jobs=self.jobs):
            return self._run_shards_inner(tasks)

    def _run_shards_inner(self, tasks) -> list:
        delays = self._retry.delays_ms()
        last_error: BaseException | None = None
        for attempt in range(self._retry.max_attempts):
            if attempt > 0:
                # Deterministic backoff before the respawn: a transiently
                # OOM-killed pool gets a moment to release memory before the
                # redo (same shards, same seeds, same bytes).
                time.sleep(delays[attempt - 1] / 1000.0)
                obs.add("parallel.pool_respawns")
            try:
                faults.checkpoint("parallel.wave")
                executor = self._pool_available() if self.jobs > 1 else None
                if executor is None:
                    return self._run_shards_inline(tasks)
                obs.add("parallel.pool_waves")
                return [_owned(result) for result in executor.map(run_shard, tasks)]
            except (BrokenExecutor, TransientError) as exc:
                last_error = exc
                self._teardown_pool()
        self._disable_pool(
            f"sampling wave failed {self._retry.max_attempts} times "
            f"(last: {last_error}); continuing with in-process shards"
        )
        # No checkpoint on the degraded path: once the retry budget is spent
        # the wave must complete, so injected faults cannot keep it down.
        return self._run_shards_inline(tasks)

    def _run_shards_inline(self, tasks) -> list:
        """In-process shard execution (jobs=1 or a degraded pool)."""
        if not obs.enabled():
            return [run_shard_with(self._sampler, task) for task in tasks]
        results = []
        for task in tasks:
            started = obs.now()
            results.append(run_shard_with(self._sampler, task))
            obs.observe("parallel.shard_seconds", obs.now() - started)
        obs.add("parallel.inline_shards", len(tasks))
        return results

    def _pool_available(self) -> ProcessPoolExecutor | None:
        """The live executor, lazily spawning it; ``None`` when degraded."""
        if self._pool_disabled:
            return None
        if self._spec is None:
            self._disable_pool(
                f"{type(self._sampler).__name__} cannot be rebuilt in worker "
                "processes; sampling shards in-process instead"
            )
            return None
        executor = self._state.get("executor")
        if executor is not None:
            return executor
        try:
            import multiprocessing

            context = multiprocessing.get_context(self._start_method)
            pack = pack_arrays(graph_payload(self._sampler.graph), prefer=self._transport)
        except (OSError, ValueError, ImportError) as exc:
            self._disable_pool(f"could not broadcast the graph ({exc}); "
                               "sampling shards in-process instead")
            return None
        # The pack goes into _state *before* the executor is built so a
        # failed spawn still releases the graph-sized segments via teardown.
        self._state["pack"] = pack
        # Workers fork at the first map, right after this: hand the freed
        # heap back first, or each worker maps what an earlier solve left.
        release_free_heap()
        try:
            payload = {
                "graph": pack.describe(),
                "num_nodes": self._sampler.graph.n,
                "spec": self._spec,
            }
            executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=init_worker,
                initargs=(payload,),
            )
        except (OSError, ValueError, ImportError) as exc:
            self._disable_pool(f"could not spawn the worker pool ({exc}); "
                               "sampling shards in-process instead")
            return None
        self._state["executor"] = executor
        return executor

    def _teardown_pool(self) -> None:
        _shutdown_state(self._state)

    def _disable_pool(self, reason: str) -> None:
        self._teardown_pool()
        self._pool_disabled = True
        obs.add("parallel.pool_degraded")
        obs.degraded("pool_inline")
        if not self._warned_inline:
            self._warned_inline = True
            warnings.warn(
                f"parallel RR generation degraded: {reason} "
                "(results are unchanged — sharding is worker-count invariant)",
                RuntimeWarning,
                stacklevel=3,
            )

    def close(self) -> None:
        """Shut the pool down and release the shared graph arrays."""
        self._teardown_pool()

    def __enter__(self) -> "ParallelSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelSampler({type(self._sampler).__name__}, jobs={self.jobs}, "
            f"pool={'live' if self._state.get('executor') else 'idle'})"
        )
