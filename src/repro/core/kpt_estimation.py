"""Algorithm 2 — KptEstimation.

Estimates ``KPT``, the expected spread of a seed set formed by ``k``
in-degree-weighted node draws: a lower bound on OPT that *grows with k*
(Equation 7), which is what makes θ = λ/KPT* small enough to be practical.

The estimator relies on Lemma 5: ``KPT = n · E[κ(R)]`` where
``κ(R) = 1 − (1 − w(R)/m)^k`` over random RR sets.  The adaptive loop doubles
the sample budget per iteration and stops the first time the running mean
clears the ``2^{−i}`` threshold, which (Lemmas 6–7) pins KPT* within
``[KPT/4, OPT]`` with probability ``1 − n^{−ℓ}``.

Each iteration's batch is generated by the sampler's numpy-batched
:meth:`~repro.rrset.base.RRSampler.sample_batch` path into a
:class:`~repro.rrset.flat_collection.FlatRRCollection`, and ``Σ κ(R)`` is
one vectorised expression over the width array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.policy import ExecutionPolicy
from repro.core.parameters import kpt_max_iterations, kpt_samples_per_iteration
from repro.obs import runtime as obs
from repro.parallel import maybe_parallel
from repro.rrset.base import RRSampler
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_ell, check_k, require

__all__ = ["KptEstimationResult", "estimate_kpt"]


@dataclass
class KptEstimationResult:
    """Outcome of Algorithm 2."""

    kpt_star: float
    iterations_run: int
    num_rr_sets: int
    #: RR sets generated in the *last* iteration — Algorithm 3's R′.  Empty
    #: when nothing was sampled (the edgeless-graph shortcut).
    last_iteration_sets: "FlatRRCollection | list[object]" = field(
        repr=False, default_factory=list
    )
    #: Σ generation cost over every RR set sampled (for complexity accounting).
    total_cost: int = 0

    @property
    def terminated_early(self) -> bool:
        """True when the threshold test fired before the iteration cap."""
        return self.kpt_star > 1.0


def estimate_kpt(
    graph,
    k: int,
    sampler: RRSampler,
    ell: float = 1.0,
    rng=None,
    *,
    policy: ExecutionPolicy | None = None,
) -> KptEstimationResult:
    """Run Algorithm 2 and return KPT* with its sampling by-products.

    Parameters mirror the paper: the graph, seed-set size ``k``, the failure
    exponent ``ℓ``, plus the model-specific RR ``sampler``, an ``rng``, and a
    ``policy`` carrying the execution knobs: ``policy.jobs`` shards each
    iteration's batch across worker processes (``0`` = all cores) via
    :class:`~repro.parallel.ParallelSampler`; results are byte-identical for
    every worker count.  ``None`` (default) keeps the single-stream path.
    """
    n = graph.n
    require(n >= 2, "KPT estimation needs at least two nodes")
    check_k(k, n)
    check_ell(ell)
    if graph.m == 0:
        # Edgeless graph: every RR set is a singleton with width 0, so the
        # loop could never clear its threshold; the paper's fallback applies.
        return KptEstimationResult(kpt_star=1.0, iterations_run=0, num_rr_sets=0)

    source = resolve_rng(rng)
    sampler, owned_pool = maybe_parallel(sampler, ExecutionPolicy.coerce(policy).jobs)
    try:
        with obs.trace("kpt.estimate", k=int(k)):
            max_iterations = kpt_max_iterations(n)
            total_sets = 0
            total_cost = 0
            last_sets: FlatRRCollection | list[object] = []
            for iteration in range(1, max_iterations + 1):
                count = kpt_samples_per_iteration(n, ell, iteration)
                batch = sampler.sample_random_batch(count, source)
                total_cost += int(batch.costs_array.sum())
                kappa_sum = batch.kappa_sum(k)
                last_sets = batch
                total_sets += count
                obs.add("kpt.rr_sets", count)
                if kappa_sum / count > 1.0 / (2.0**iteration):
                    kpt_star = n * kappa_sum / (2.0 * count)
                    return KptEstimationResult(
                        kpt_star=kpt_star,
                        iterations_run=iteration,
                        num_rr_sets=total_sets,
                        last_iteration_sets=last_sets,
                        total_cost=total_cost,
                    )
            # All iterations fell below threshold: return the smallest
            # possible KPT (a seed always activates itself, so KPT >= 1).
            return KptEstimationResult(
                kpt_star=1.0,
                iterations_run=max_iterations,
                num_rr_sets=total_sets,
                last_iteration_sets=last_sets,
                total_cost=total_cost,
            )
    finally:
        if owned_pool:
            sampler.close()
