"""Multicore sharded RR generation (`repro.parallel`).

The package behind ``ExecutionPolicy.jobs`` (``estimate_kpt``,
``refine_kpt``, ``node_selection``, ``tim``/``tim_plus``, ``ris``, ``imm``),
``SketchIndex``'s ``jobs=`` and the CLI's ``--jobs``: a persistent worker
pool that broadcasts the graph's in-CSR arrays once (shared memory, memmap
fallback), shards every batch with a worker-count-invariant layout, and
seeds each shard from its own ``SeedSequence.spawn`` child stream — so
results are byte-identical for any number of workers.  See
:class:`~repro.parallel.engine.ParallelSampler` for the full contract.
"""

from repro.parallel.engine import (
    MAX_SHARDS,
    MIN_SHARD,
    ParallelSampler,
    maybe_parallel,
    resolve_jobs,
    shard_sizes,
)

__all__ = [
    "ParallelSampler",
    "maybe_parallel",
    "resolve_jobs",
    "shard_sizes",
    "MIN_SHARD",
    "MAX_SHARDS",
]
