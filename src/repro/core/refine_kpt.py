"""Algorithm 3 — RefineKPT (Section 4.1, the TIM+ intermediate step).

KPT* often lands far below OPT on real graphs, inflating θ = λ/KPT*.  The
refinement reuses Algorithm 2's final batch of RR sets to greedily pick a
promising seed set ``S'_k``, estimates its spread on θ′ *fresh* RR sets, and
deflates the estimate by ``1 + ε′`` so that ``KPT' ≤ OPT`` holds with
probability ``1 − n^{−ℓ}`` (Lemma 8).  The output ``KPT⁺ = max(KPT', KPT*)``
is a (potentially much) tighter lower bound of OPT — the paper measures a
≥ 3× tightening on NetHEPT (Figure 5) and a matching speed-up (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.policy import ExecutionPolicy
from repro.core.parameters import lambda_prime, theta_from_kpt
from repro.obs import runtime as obs
from repro.parallel import maybe_parallel
from repro.rrset.base import RRSampler
from repro.rrset.coverage import greedy_max_coverage
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_ell, check_k, require

__all__ = ["RefineKptResult", "refine_kpt"]


@dataclass
class RefineKptResult:
    """Outcome of Algorithm 3."""

    kpt_plus: float
    kpt_prime: float
    #: The seed set S'_k greedily extracted from Algorithm 2's last batch.
    interim_seeds: list[int]
    #: θ′, the number of fresh RR sets used to estimate E[I(S'_k)].
    num_rr_sets: int
    total_cost: int = 0


#: Vectorised refinement samples θ′ in slabs of this many RR sets so the
#: transient flat batch stays small even when θ′ is large.
_BATCH_SIZE = 8192


def refine_kpt(
    graph,
    k: int,
    kpt_star: float,
    last_iteration_sets,
    sampler: RRSampler,
    epsilon_prime: float,
    ell: float = 1.0,
    rng=None,
    *,
    policy: ExecutionPolicy | None = None,
) -> RefineKptResult:
    """Run Algorithm 3 and return KPT⁺ = max(KPT′, KPT*).

    ``last_iteration_sets`` is Algorithm 2's final batch (the
    :class:`~repro.rrset.flat_collection.FlatRRCollection` that
    :func:`~repro.core.kpt_estimation.estimate_kpt` returns; any sequence of
    RR node sets works).  The θ′ fresh RR sets are sampled in numpy batches;
    ``policy.jobs`` shards them across worker processes (``0`` = all cores)
    with worker-count-invariant results; ``None`` keeps the single stream.
    """
    n = graph.n
    require(n >= 2, "refine_kpt needs at least two nodes")
    check_k(k, n)
    check_ell(ell)
    require(kpt_star >= 1.0, "KPT* must be >= 1 (a seed activates itself)")
    require(epsilon_prime > 0.0, "epsilon_prime must be positive")
    require(len(last_iteration_sets) > 0, "need Algorithm 2's last-iteration RR sets")

    source = resolve_rng(rng)
    with obs.trace("kpt.refine", k=int(k)):
        # Lines 2-6: greedy max coverage over R' to get the interim seed set.
        interim = greedy_max_coverage(last_iteration_sets, n, k)

        # Lines 7-9: θ' fresh RR sets.
        theta_prime = theta_from_kpt(lambda_prime(epsilon_prime, ell, n), kpt_star)
        seed_set = set(interim.seeds)
        covered = 0
        total_cost = 0
        sampler, owned_pool = maybe_parallel(sampler, ExecutionPolicy.coerce(policy).jobs)
        try:
            remaining = theta_prime
            while remaining > 0:
                batch = sampler.sample_random_batch(min(_BATCH_SIZE, remaining), source)
                total_cost += int(batch.costs_array.sum())
                covered += batch.coverage_count(seed_set)
                remaining -= len(batch)
        finally:
            if owned_pool:
                sampler.close()
        obs.add("kpt.refine_rr_sets", theta_prime)

    # Lines 10-12: deflate the unbiased estimate so KPT' <= OPT w.h.p.
    fraction = covered / theta_prime
    kpt_prime = fraction * n / (1.0 + epsilon_prime)
    return RefineKptResult(
        kpt_plus=max(kpt_prime, kpt_star),
        kpt_prime=kpt_prime,
        interim_seeds=interim.seeds,
        num_rr_sets=theta_prime,
        total_cost=total_cost,
    )
