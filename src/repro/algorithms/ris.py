"""RIS — Borgs et al.'s threshold-based reverse influence sampling [3].

RIS keeps generating random RR sets until the *total work* (nodes plus edges
examined) reaches a threshold τ = Θ(k (m + n) log n / ε³), then solves
maximum coverage over whatever was collected (Section 2.3).  Coupling the
sample count to accumulated cost is precisely what correlates the samples —
the paper's Bernoulli-stopping footnote — and why RIS needs both the ε⁻³
budget and a large hidden constant.  TIM's Section 3 exists to remove that
coupling; this implementation is the paper's experimental strawman, faithful
including the flaw.

``tau_constant`` scales the hidden constant.  Borgs et al. leave it
unspecified (and huge); the default of 1.0 is deliberately charitable so the
bench comparison is conservative — RIS already loses at that setting.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import register_algorithm
from repro.api.policy import ExecutionPolicy
from repro.obs import runtime as obs
from repro.parallel import maybe_parallel
from repro.core.results import InfluenceMaxResult
from repro.diffusion.base import resolve_model
from repro.graphs.digraph import DiGraph
from repro.rrset.base import make_rr_sampler
from repro.rrset.coverage import greedy_max_coverage
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_ell, check_epsilon, check_k, require

__all__ = ["ris", "ris_threshold"]


def ris_threshold(
    n: int, m: int, k: int, epsilon: float, ell: float, tau_constant: float = 1.0
) -> float:
    """τ = c · k ℓ (m + n) log n / ε³, the Step-1 stopping budget."""
    require(n >= 2, "need n >= 2")
    check_epsilon(epsilon)
    check_ell(ell)
    require(tau_constant > 0, "tau_constant must be positive")
    return tau_constant * k * ell * (m + n) * math.log(n) / (epsilon**3)


def ris(
    graph: DiGraph,
    k: int,
    model="IC",
    rng=None,
    epsilon: float | None = None,
    ell: float | None = None,
    tau_constant: float = 1.0,
    max_rr_sets: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
    index=None,
) -> InfluenceMaxResult:
    """Borgs et al.'s RIS with a cost-threshold stopping rule.

    ``max_rr_sets`` is a safety valve for pathological inputs (e.g. an
    edgeless graph where per-set cost is 1 and τ is large); it is never hit
    in the benches.

    Numpy-batched RR sets stream into a flat collection, and the final
    batch is truncated right after the first set whose cumulative cost
    crosses τ: Borgs et al.'s stopping rule, coupled sampling and flaw
    included.

    ``index`` (service mode) makes the call run *through* a
    :class:`~repro.sketch.index.SketchIndex`: cost already accumulated by
    the sketch counts toward τ, any shortfall is sampled and appended
    warm-start style, and max coverage runs on the index's prebuilt
    postings.  Note this departs from Borgs et al.'s strictly coupled
    sampling exactly as much as reusing a sketch does.

    ``policy=`` (an :class:`~repro.api.policy.ExecutionPolicy`) sets the
    worker pool — and, like every policy-aware entry point, a passed
    policy's ``epsilon``/``ell`` govern the τ budget.  Without a policy,
    ``epsilon`` keeps RIS's historical ``0.2`` default (coarser than the
    library-wide ``0.1``: RIS pays ε⁻³).
    """
    resolved_policy = ExecutionPolicy.coerce(policy)
    if epsilon is None:
        epsilon = resolved_policy.epsilon if policy is not None else 0.2
    ell = resolved_policy.ell if ell is None else ell
    check_k(k, graph.n)
    resolved = resolve_model(model)
    resolved.validate_graph(graph)
    source = resolve_rng(rng)
    sampler, owned_pool = maybe_parallel(make_rr_sampler(graph, resolved), resolved_policy.jobs)
    tau = ris_threshold(graph.n, graph.m, k, epsilon, ell, tau_constant)

    started = obs.now()
    sketch_sets_reused = 0
    try:
        if index is not None:
            collection = index.collection
            sketch_sets_reused = len(collection)
            commit = index.extend_flat  # keeps the index's caches honest
        else:
            collection = FlatRRCollection(graph.n, graph.m)
            commit = collection.extend_flat
        batch_size = 64
        while collection.total_cost < tau:
            if max_rr_sets is not None and len(collection) >= max_rr_sets:
                break
            batch = sampler.sample_random_batch(batch_size, source)
            # Keep the prefix up to and including the set that crosses the
            # remaining budget.
            cumulative = np.cumsum(batch.costs_array) + collection.total_cost
            crossing = int(np.searchsorted(cumulative, tau, side="left"))
            take = len(batch) if crossing >= len(batch) else crossing + 1
            if max_rr_sets is not None:
                take = min(take, max_rr_sets - len(collection))
            if take < len(batch):
                batch.truncate(take)
            commit(batch)
            batch_size = min(batch_size * 2, 8192)
        if index is not None:
            coverage = index.select(k)
        else:
            coverage = greedy_max_coverage(collection, graph.n, k)
    finally:
        if owned_pool:
            sampler.close()
    return InfluenceMaxResult(
        algorithm="RIS",
        model=resolved.name,
        seeds=coverage.seeds,
        k=k,
        runtime_seconds=obs.now() - started,
        estimated_spread=graph.n * coverage.fraction,
        extras={
            "tau": tau,
            "num_rr_sets": len(collection),
            "total_cost": collection.total_cost,
            "sketch_sets_reused": sketch_sets_reused,
        },
    )


register_algorithm("ris", ris)
