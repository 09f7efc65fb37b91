"""TIM and TIM+ drivers (Sections 3.3 and 4.1).

``tim`` wires the two phases together:

1. **Parameter estimation** — Algorithm 2 yields KPT*; with ``refine=True``
   (TIM+) Algorithm 3 tightens it to KPT⁺.
2. **Node selection** — θ = ⌈λ / KPT⌉ random RR sets (Equations 4–5), then
   greedy maximum coverage.

Guarantee (Theorems 1–3): a ``(1 − 1/e − ε)``-approximation with probability
at least ``1 − n^{−ℓ}`` (the internal ℓ is scaled per Section 3.3 / 4.1 so
the union-bounded failure events still sum below ``n^{−ℓ}``), under any
triggering model, in ``O((k + ℓ)(m + n) log n / ε²)`` expected time.
"""

from __future__ import annotations

from repro.api.policy import ExecutionPolicy
from repro.core.kpt_estimation import estimate_kpt
from repro.core.node_selection import node_selection
from repro.core.parameters import (
    adjusted_ell_tim,
    adjusted_ell_tim_plus,
    apply_theta_cap,
    epsilon_prime_default,
    lambda_param,
    theta_from_kpt,
)
from repro.core.refine_kpt import refine_kpt
from repro.core.results import TIMResult
from repro.diffusion.base import resolve_model
from repro.obs import runtime as obs
from repro.parallel import maybe_parallel
from repro.graphs.digraph import DiGraph
from repro.rrset.base import make_rr_sampler
from repro.utils.rng import resolve_rng
from repro.utils.timer import PhaseTimer
from repro.utils.validation import check_ell, check_epsilon, check_k, require

__all__ = ["tim", "tim_plus"]


def tim(
    graph: DiGraph,
    k: int,
    epsilon: float | None = None,
    ell: float | None = None,
    model="IC",
    rng=None,
    refine: bool = False,
    epsilon_prime: float | None = None,
    max_theta: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
    index=None,
) -> TIMResult:
    """Two-phase Influence Maximization.

    Parameters
    ----------
    graph:
        The social network with model-appropriate edge weights.
    k:
        Seed-set size.
    epsilon:
        Approximation slack; the result is ``(1 − 1/e − ε)``-approximate.
        Defaults to ``policy.epsilon`` (library default ``0.1``).
    ell:
        Failure exponent: success probability at least ``1 − n^{−ℓ}``.
        Theorem 2 assumes ``ℓ ≥ 1/2``.  Defaults to ``policy.ell``.
    model:
        ``"IC"``, ``"LT"``, or a :class:`~repro.diffusion.base.DiffusionModel`
        instance (e.g. a configured TriggeringModel).
    refine:
        Run Algorithm 3 between the phases — i.e. TIM+ (Section 4.1).
    epsilon_prime:
        Refinement accuracy; defaults to the paper's ``5·∛(ℓε²/(k+ℓ))``.
    max_theta:
        Optional hard cap on θ.  **Voids the approximation guarantee**; it
        exists so exploratory runs on tiny budgets cannot run away.  A
        bitten cap emits a :class:`RuntimeWarning` and is recorded on the
        result (``result.theta_capped`` and, for backward compatibility,
        ``extras["theta_capped"]``).
    policy:
        The :class:`~repro.api.policy.ExecutionPolicy` governing execution
        (worker pool, accuracy defaults).  Two policies differing only in
        ``jobs`` return byte-identical seed sets for equal seeds.
    index:
        Optional :class:`~repro.sketch.index.SketchIndex` to run the call
        *through* (build-or-reuse).  Node selection draws on the index's
        sketch — RR sets it already holds are reused and only the shortfall
        to θ is sampled and appended — and the index's KPT cache lets a
        repeat call for the same ``(k, refine)`` skip Algorithm 2/3
        entirely (reusing an earlier KPT* is statistically sound: any value
        in ``[KPT/4, OPT]`` validates θ, and the cached one was produced by
        the same procedure, independently of the selection samples).  A
        first call populates the index; later calls amortize it.  Prefer
        :class:`~repro.api.session.InfluenceSession` for whole-workload
        sketch ownership.

    Returns
    -------
    TIMResult
        Seeds plus every diagnostic the paper plots: KPT*, KPT⁺, θ,
        per-phase RR-set counts, per-phase wall-clock, RR-collection bytes.
    """
    resolved_policy = ExecutionPolicy.coerce(policy)
    epsilon = resolved_policy.epsilon if epsilon is None else epsilon
    ell = resolved_policy.ell if ell is None else ell
    require(graph.n >= 2, "influence maximization needs at least two nodes")
    check_k(k, graph.n)
    check_epsilon(epsilon)
    check_ell(ell)
    resolved_model = resolve_model(model)
    resolved_model.validate_graph(graph)
    source = resolve_rng(rng)
    sampler, owned_pool = maybe_parallel(
        make_rr_sampler(graph, resolved_model), resolved_policy.jobs
    )
    try:
        return _tim_run(
            graph, k, epsilon, ell, resolved_model, source, sampler, refine,
            epsilon_prime, max_theta, index,
        )
    finally:
        if owned_pool:
            sampler.close()


def _tim_run(
    graph, k, epsilon, ell, resolved_model, source, sampler, refine,
    epsilon_prime, max_theta, sketch_index,
):
    # Success-probability bookkeeping (Sections 3.3 / 4.1): the internal
    # ell absorbs the union bound over 2 (TIM) or 3 (TIM+) failure events.
    if refine:
        ell_adjusted = adjusted_ell_tim_plus(ell, graph.n)
    else:
        ell_adjusted = adjusted_ell_tim(ell, graph.n)

    timer = PhaseTimer()
    obs.add("tim.runs")
    rr_counts: dict[str, int] = {}
    # The sampler is already pool-wrapped at the tim() level when jobs ask
    # for it, so the sub-algorithms below take no policy — a jobs value
    # there would double-wrap.
    cached_kpt = sketch_index.cached_kpt(k, refine) if sketch_index is not None else None
    interim_seeds: list[int] = []
    kpt_iterations = 0
    if cached_kpt is not None:
        # Warm path: the index already priced this (k, refine) — skip
        # Algorithms 2/3 and reuse the recorded KPT bounds.
        kpt_star = float(cached_kpt["kpt_star"])
        kpt_plus = float(cached_kpt["kpt_plus"])
        kpt = kpt_plus if refine else kpt_star
        rr_counts["parameter_estimation"] = 0
        if refine:
            rr_counts["refinement"] = 0
    else:
        with timer.phase("parameter_estimation"):
            kpt_result = estimate_kpt(graph, k, sampler, ell=ell_adjusted, rng=source)
        rr_counts["parameter_estimation"] = kpt_result.num_rr_sets
        kpt_iterations = kpt_result.iterations_run

        kpt_star = kpt_result.kpt_star
        kpt = kpt_result.kpt_star
        kpt_plus = kpt_result.kpt_star
        if refine and kpt_result.num_rr_sets == 0:
            # Algorithm 2 sampled nothing (edgeless graph: KPT* = 1 by its
            # shortcut), so Algorithm 3 has no R' to refine; KPT⁺ = KPT* = 1
            # is still a valid lower bound on OPT.
            rr_counts["refinement"] = 0
        elif refine:
            if epsilon_prime is None:
                epsilon_prime = epsilon_prime_default(epsilon, k, ell)
            with timer.phase("refinement"):
                refined = refine_kpt(
                    graph,
                    k,
                    kpt_result.kpt_star,
                    kpt_result.last_iteration_sets,
                    sampler,
                    epsilon_prime=epsilon_prime,
                    ell=ell_adjusted,
                    rng=source,
                )
            kpt_plus = refined.kpt_plus
            kpt = refined.kpt_plus
            interim_seeds = refined.interim_seeds
            rr_counts["refinement"] = refined.num_rr_sets
        if sketch_index is not None:
            sketch_index.store_kpt(k, refine, {"kpt_star": kpt_star, "kpt_plus": kpt_plus})

    lambda_value = lambda_param(graph.n, k, epsilon, ell_adjusted)
    theta = theta_from_kpt(lambda_value, kpt)
    theta, theta_capped = apply_theta_cap(
        theta, max_theta, "tim_plus()" if refine else "tim()"
    )
    if theta_capped and sketch_index is not None:
        # The sketch no longer certifies the (k, ε) pair — record it so
        # serving layers (session/service stats) surface the voided
        # guarantee instead of silently reporting a certified ε.
        sketch_index.meta["theta_capped"] = True

    sketch_sets_reused = len(sketch_index.collection) if sketch_index is not None else 0
    with timer.phase("node_selection"):
        selection = node_selection(
            graph, k, theta, sampler, rng=source, index=sketch_index,
        )
    # Freshly sampled sets only; anything the sketch already held is reuse.
    rr_counts["node_selection"] = selection.num_rr_sets - sketch_sets_reused

    algorithm = "TIM+" if refine else "TIM"
    return TIMResult(
        algorithm=algorithm,
        model=resolved_model.name,
        seeds=selection.seeds,
        k=k,
        runtime_seconds=timer.total,
        estimated_spread=selection.estimated_spread,
        phase_seconds=timer.as_dict(),
        extras={
            "interim_seeds": interim_seeds,
            "theta_capped": theta_capped,
            "kpt_iterations": kpt_iterations,
            "kpt_cache_hit": cached_kpt is not None,
            "sketch_sets_reused": sketch_sets_reused,
        },
        epsilon=epsilon,
        ell=ell,
        ell_adjusted=ell_adjusted,
        kpt_star=kpt_star,
        kpt_plus=kpt_plus,
        lambda_value=lambda_value,
        theta=theta,
        rr_sets_per_phase=rr_counts,
        rr_collection_bytes=selection.collection.nbytes(),
        theta_capped=theta_capped,
    )


def tim_plus(
    graph: DiGraph,
    k: int,
    epsilon: float | None = None,
    ell: float | None = None,
    model="IC",
    rng=None,
    epsilon_prime: float | None = None,
    max_theta: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
    index=None,
) -> TIMResult:
    """TIM+ — TIM with the Algorithm 3 refinement step (Section 4.1)."""
    return tim(
        graph,
        k,
        epsilon=epsilon,
        ell=ell,
        model=model,
        rng=rng,
        refine=True,
        epsilon_prime=epsilon_prime,
        max_theta=max_theta,
        policy=policy,
        index=index,
    )
