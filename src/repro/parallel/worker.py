"""Worker-process side of the parallel RR engine.

Every function here must stay importable at module top level (``spawn``
start-method pickling) and free of parent-process state: a worker receives
one *payload* at pool initialisation — the shared-graph transport descriptor
plus a sampler *spec* — attaches the arrays, rebuilds its own sampler bound
to the :class:`~repro.parallel.shared_graph.SharedGraph`, and then answers
shard tasks until the pool shuts down.

A shard task is ``(mode, seed, payload)``:

* ``("random", seed, count)`` — ``count`` random-root RR sets from the
  sampler's own ``sample_random_batch`` (so it keeps its root law), drawn
  with the shard's :class:`~repro.utils.rng.RandomSource` (seeded from the
  parent's ``SeedSequence.spawn`` child);
* ``("roots", seed, roots)`` — sample the given roots with the shard
  stream.

:func:`run_shard_with` is the single source of truth for shard execution:
the parent runs the *same* function inline for ``jobs=1`` (and as the
degraded fallback), which is what makes results byte-identical for every
worker count.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.shared_graph import SharedGraph
from repro.parallel.shm import attach_pack
from repro.utils.rng import RandomSource

__all__ = ["sampler_spec", "build_sampler", "run_shard_with", "init_worker", "run_shard"]

#: Per-process worker state: the attached transport and the rebuilt sampler.
_STATE: dict = {}


def sampler_spec(sampler) -> dict | None:
    """A picklable recipe to rebuild ``sampler`` in a worker, or ``None``.

    Only exact sampler types with array-only construction inputs are
    supported: IC, LT, and a weighted-root wrapper around either (its spec
    carries the inner spec and the node weights).  Unknown types (e.g.
    triggering samplers bound to arbitrary distribution objects) return
    ``None`` and the engine degrades to in-process sharding.
    """
    from repro.core.weighted import WeightedRootSampler
    from repro.rrset.ic_sampler import ICRRSampler
    from repro.rrset.lt_sampler import LTRRSampler

    if type(sampler) is WeightedRootSampler:
        inner = sampler_spec(sampler.inner)
        if inner is None:
            return None
        return {"kind": "weighted", "inner": inner, "node_weights": sampler.node_weights}
    if type(sampler) is ICRRSampler:
        return {
            "kind": "ic",
            "max_depth": sampler.max_depth,
            "trace_edges": sampler.trace_edges,
        }
    if type(sampler) is LTRRSampler:
        return {"kind": "lt", "trace_edges": sampler.trace_edges}
    return None


def build_sampler(graph, spec: dict):
    """Rebuild the sampler described by :func:`sampler_spec` on ``graph``."""
    kind = spec["kind"]
    if kind == "weighted":
        from repro.core.weighted import WeightedRootSampler

        return WeightedRootSampler(build_sampler(graph, spec["inner"]), spec["node_weights"])
    if kind == "ic":
        from repro.rrset.ic_sampler import ICRRSampler

        return ICRRSampler(
            graph, max_depth=spec["max_depth"], trace_edges=spec["trace_edges"]
        )
    if kind == "lt":
        from repro.rrset.lt_sampler import LTRRSampler

        return LTRRSampler(graph, trace_edges=spec["trace_edges"])
    raise ValueError(f"unknown sampler spec kind {kind!r}")


def run_shard_with(sampler, task):
    """Execute one shard task against ``sampler``; returns packed arrays.

    The returned tuple mirrors ``FlatRRCollection.extend_arrays`` inputs:
    ``(ptr, nodes, roots, widths, costs, trace_ptr, trace_edges)`` with
    ``ptr`` local (starting at 0); the trace members are ``None`` unless the
    sampler records edge traces.  Arrays are copied out of the collection's
    over-allocated buffers so the IPC payload is exactly the shard's live
    data.
    """
    mode, seed, payload = task
    source = RandomSource(seed)
    if mode == "random":
        batch = sampler.sample_random_batch(int(payload), source)
    elif mode == "roots":
        batch = sampler.sample_batch(np.ascontiguousarray(payload, dtype=np.int64), source)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown shard mode {mode!r}")
    has_traces = batch.has_traces
    return (
        batch.ptr_array.copy(),
        batch.nodes_array.copy(),
        batch.roots_array.copy(),
        batch.widths_array.copy(),
        batch.costs_array.copy(),
        batch.trace_ptr_array.copy() if has_traces else None,
        batch.trace_edges_array.copy() if has_traces else None,
    )


def init_worker(payload: dict) -> None:
    """Pool initializer: attach the shared graph, rebuild the sampler."""
    pack = attach_pack(payload["graph"])
    graph = SharedGraph.from_arrays(payload["num_nodes"], pack.arrays())
    _STATE["pack"] = pack
    _STATE["sampler"] = build_sampler(graph, payload["spec"])


def run_shard(task):
    """Pool task entry point (initializer must have run first)."""
    return run_shard_with(_STATE["sampler"], task)
