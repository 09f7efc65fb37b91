"""Algorithm 1 — NodeSelection.

Samples a *pre-decided* number θ of independent random RR sets and greedily
solves maximum coverage over them.  Independence (given θ) is exactly what
distinguishes TIM from Borgs et al.'s threshold-coupled RIS and is the
source of the clean Chernoff analysis (Lemma 3 / Theorem 1).

RR sets are generated by the sampler's numpy-batched path straight into a
:class:`~repro.rrset.flat_collection.FlatRRCollection` (packed
``ptr``/``nodes`` arrays) and the coverage solver runs on those arrays
directly; no per-set Python objects exist anywhere on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.policy import ExecutionPolicy
from repro.obs import runtime as obs
from repro.parallel import maybe_parallel
from repro.rrset.base import RRSampler
from repro.rrset.coverage import greedy_max_coverage
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_k, check_positive_int, require

__all__ = ["NodeSelectionResult", "node_selection"]


@dataclass
class NodeSelectionResult:
    """Outcome of Algorithm 1."""

    seeds: list[int]
    coverage_fraction: float
    estimated_spread: float
    num_rr_sets: int
    collection: FlatRRCollection = field(repr=False, default=None)

    def __post_init__(self):
        if self.collection is None:  # pragma: no cover - defensive
            raise ValueError("collection is required")


def node_selection(
    graph,
    k: int,
    theta: int,
    sampler: RRSampler,
    rng=None,
    index=None,
    *,
    policy: ExecutionPolicy | None = None,
) -> NodeSelectionResult:
    """Run Algorithm 1: sample θ RR sets, greedily cover them with k nodes.

    Parameters
    ----------
    index:
        Optional :class:`~repro.sketch.index.SketchIndex` to run *through*
        (build-or-reuse): its sketch is the collection — already-held RR
        sets are reused, only the shortfall to θ is sampled (appended via
        ``extend_flat``, warm-start style) — and selection runs on the
        index's prebuilt inverted index.  Seeds are identical to
        :func:`~repro.rrset.coverage.greedy_max_coverage` (same kernel).
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` carrying the execution
        knobs.  ``policy.jobs`` shards the θ sampling across worker
        processes (``0`` = all cores) via
        :class:`~repro.parallel.ParallelSampler`; the sampled collection is
        byte-identical for every worker count.  ``None`` (default) keeps the
        single stream.
    """
    check_k(k, graph.n)
    check_positive_int(theta, "theta")
    source = resolve_rng(rng)
    sampler, owned_pool = maybe_parallel(sampler, ExecutionPolicy.coerce(policy).jobs)
    try:
        return _node_selection(graph, k, theta, sampler, source, index)
    finally:
        if owned_pool:
            sampler.close()


def _node_selection(graph, k, theta, sampler, source, index):
    if index is not None:
        missing = theta - len(index.collection)
        if missing > 0:
            index.extend_flat(sampler.sample_random_batch(missing, source))
        result = index.select(k)
        fraction = result.fraction
        return NodeSelectionResult(
            seeds=result.seeds,
            coverage_fraction=fraction,
            estimated_spread=graph.n * fraction,
            num_rr_sets=len(index.collection),
            collection=index.collection,
        )
    collection = FlatRRCollection(graph.n, graph.m)
    with obs.trace("sampling.node_selection", missing=int(theta)):
        collection.extend_flat(sampler.sample_random_batch(theta, source))
    with obs.trace("selection.greedy", k=int(k), theta=int(theta)):
        result = greedy_max_coverage(collection, graph.n, k)
    fraction = result.fraction
    return NodeSelectionResult(
        seeds=result.seeds,
        coverage_fraction=fraction,
        estimated_spread=graph.n * fraction,
        num_rr_sets=len(collection),
        collection=collection,
    )
