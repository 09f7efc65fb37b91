"""Algorithm 1 — NodeSelection.

Samples a *pre-decided* number θ of independent random RR sets and greedily
solves maximum coverage over them.  Independence (given θ) is exactly what
distinguishes TIM from Borgs et al.'s threshold-coupled RIS and is the
source of the clean Chernoff analysis (Lemma 3 / Theorem 1).

RR sets are generated by the sampler's numpy-batched path into the
:class:`~repro.rrset.flat_collection.FlatRRCollection` (packed
``ptr``/``nodes`` arrays) of a :class:`~repro.sketch.index.SketchIndex`, the
caller's or a private one, and the index's greedy kernel runs on those
arrays directly; no per-set Python objects exist anywhere on the hot path.
TIM and TIM+ price θ with :func:`repro.core.pricing.price` and select on the
index it grew; this function is Algorithm 1 for a θ decided elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.policy import ExecutionPolicy
from repro.parallel import maybe_parallel
from repro.rrset.base import RRSampler
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_k, check_positive_int

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
        index's prebuilt inverted index.  Without one, a private index over
        an empty sketch of ``graph`` holds the θ sets.  Seeds are identical
        to :func:`~repro.rrset.coverage.greedy_max_coverage` (same kernel).
    policy:
        :class:`~repro.api.policy.ExecutionPolicy` carrying the execution
        knobs.  ``policy.jobs`` shards the θ sampling across worker
        processes (``0`` = all cores) via
        :class:`~repro.parallel.ParallelSampler`; the sampled collection is
        byte-identical for every worker count.  ``None`` (default) keeps the
        single stream.
    """
    from repro.sketch.index import SketchIndex

    check_k(k, graph.n)
    check_positive_int(theta, "theta")
    source = resolve_rng(rng)
    owned = index is None
    if index is None:
        index = SketchIndex(graph=graph)
    sampler, owned_pool = maybe_parallel(sampler, ExecutionPolicy.coerce(policy).jobs)
    try:
        missing = theta - index.num_sets
        if missing > 0:
            index.extend_flat(sampler.sample_random_batch(missing, source))
        result = index.select(k)
    finally:
        if owned_pool:
            sampler.close()
        if owned:
            index.close()
    return NodeSelectionResult(
        seeds=result.seeds,
        coverage_fraction=result.fraction,
        estimated_spread=graph.n * result.fraction,
        num_rr_sets=index.num_sets,
        collection=index.collection,
    )
