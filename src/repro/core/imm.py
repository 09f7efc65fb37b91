"""IMM — martingale-based influence maximization (Tang, Shi & Xiao 2015).

The successor to TIM+ this library reproduces alongside the SIGMOD 2014
algorithms: instead of spending a KPT-estimation phase (Algorithm 2) plus a
refinement phase (Algorithm 3) to price θ, IMM binary-searches a lower
bound LB on OPT directly on the RR sketch it is building:

1. **Lower-bound search** — for ``x_i = n / 2^i`` (i = 1, 2, ...), grow the
   sketch to ``θ_i = ⌈λ′ / x_i⌉`` sets, greedily select ``k`` seeds, and
   stop as soon as ``n · F_R(S_i) ≥ (1 + ε′) · x_i``; then
   ``LB = n · F_R(S_i) / (1 + ε′)`` is a certified lower bound on OPT
   (martingale stopping rule, ε′ = √2·ε).
2. **Node selection** — grow the same sketch to ``θ = ⌈λ* / LB⌉`` (the
   martingale-adjusted α/β bound) and select ``k`` seeds on it.

Every RR set sampled during the search is *reused* — both by later search
iterations and by the final selection — which is what makes IMM strictly
cheaper than TIM+ at equal ε: no estimation-only samples are thrown away,
and λ*'s constant (≈ 2) is a fraction of Equation 4's ``8 + 2ε``.

The engine runs entirely through :class:`~repro.sketch.index.SketchIndex`
(warm ``ensure_theta`` extension + incremental greedy ``select``), so
it inherits the library's substrate invariants unchanged: byte-identical
results for every worker count (``policy.jobs``), live-edge traces for
:mod:`repro.dynamic` repair when ``policy.trace_edges`` is on, and
:mod:`repro.obs` / :mod:`repro.faults` instrumentation at every phase.

Guarantee: ``(1 − 1/e − ε)``-approximate with probability at least
``1 − n^{−ℓ}`` (the internal ℓ absorbs the union bound over the sampling
and selection failure events, as in TIM), in ``O((k + ℓ)(m + n) log n / ε²)``
expected time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.api.policy import ExecutionPolicy
from repro.core.parameters import (
    adjusted_ell_tim,
    apply_theta_cap,
    imm_epsilon_prime,
    imm_lambda_prime,
    imm_lambda_star,
)
from repro.core.results import IMMResult
from repro.diffusion.base import resolve_model
from repro.faults import injection as faults
from repro.obs import runtime as obs
from repro.utils.rng import resolve_rng
from repro.utils.timer import PhaseTimer
from repro.utils.validation import check_ell, check_epsilon, check_k, require

if TYPE_CHECKING:
    from repro.graphs.digraph import DiGraph
    from repro.rrset.coverage import CoverageResult
    from repro.sketch.index import SketchIndex

__all__ = ["ImmGrowth", "imm", "imm_ensure"]


@dataclass(frozen=True)
class ImmGrowth:
    """Outcome of one IMM sampling run over a :class:`SketchIndex`.

    ``selection`` is the final greedy answer on the grown sketch;
    ``theta`` is the martingale requirement ⌈λ*/LB⌉ (the sketch holds
    ``max(theta, lower-bound-search size)`` sets — reuse never shrinks it).
    """

    selection: "CoverageResult"
    theta: int
    opt_lower_bound: float
    epsilon_prime: float
    lambda_prime: float
    lambda_star: float
    lb_iterations: int
    theta_capped: bool
    rr_sets_per_phase: dict[str, int]
    phase_seconds: dict[str, float]


def imm_ensure(
    index: "SketchIndex",
    k: int,
    epsilon: float,
    ell_adjusted: float,
    rng: Any = None,
    max_theta: int | None = None,
) -> ImmGrowth:
    """Grow ``index`` the IMM way for budget ``k`` and select on the result.

    The shared engine behind :func:`imm` and
    ``SketchIndex.build(algorithm="imm")``: runs the lower-bound search
    (reusing every RR set the index already holds — warm sketches skip
    straight past the early iterations' θ_i), derives θ = ⌈λ*/LB⌉, extends
    to it, and returns the final selection plus every diagnostic.

    Sampling concurrency follows the index's configured worker pool; all
    extension waves draw from the single resolved ``rng`` stream, so the
    grown sketch is byte-identical for every worker count.

    ``ell_adjusted`` is the union-bound-scaled failure exponent (use
    :func:`~repro.core.parameters.adjusted_ell_tim`); ``epsilon`` is the
    *final* ε — the ε′ = √2·ε split is internal.
    """
    n = index.num_nodes
    require(n >= 2, "IMM needs at least two nodes")
    check_k(k, n)
    epsilon = check_epsilon(epsilon)
    check_ell(ell_adjusted)
    source = resolve_rng(rng)
    timer = PhaseTimer()
    rr_counts: dict[str, int] = {}

    epsilon_prime = imm_epsilon_prime(epsilon)
    lambda_p = imm_lambda_prime(n, k, epsilon_prime, ell_adjusted)
    lambda_s = imm_lambda_star(n, k, epsilon, ell_adjusted)

    lower_bound = 1.0
    iterations = 0
    sets_before_search = index.num_sets
    max_rounds = max(1, math.ceil(math.log2(n)) - 1)
    with timer.phase("lb_search"):
        with obs.trace("imm.lb_search", k=int(k), max_rounds=int(max_rounds)):
            for i in range(1, max_rounds + 1):
                faults.checkpoint("imm.lb_search")
                iterations = i
                x_i = n / (2.0**i)
                theta_i = max(1, math.ceil(lambda_p / x_i))
                with obs.trace("imm.lb_iteration", iteration=i, theta=int(theta_i)):
                    index.ensure_theta(theta_i, rng=source)
                    selection = index.select(k)
                if n * selection.fraction >= (1.0 + epsilon_prime) * x_i:
                    lower_bound = n * selection.fraction / (1.0 + epsilon_prime)
                    break
    rr_counts["lb_search"] = index.num_sets - sets_before_search

    theta = max(1, math.ceil(lambda_s / lower_bound))
    theta, theta_capped = apply_theta_cap(theta, max_theta, "imm()")

    sets_before_selection = index.num_sets
    with timer.phase("node_selection"):
        with obs.trace("imm.node_selection", theta=int(theta)):
            faults.checkpoint("imm.node_selection")
            index.ensure_theta(theta, rng=source)
            selection = index.select(k)
    rr_counts["node_selection"] = index.num_sets - sets_before_selection

    index.record_epsilon(epsilon)
    index.meta["algorithm"] = "imm"
    index.meta["imm_lower_bound"] = lower_bound
    if theta_capped:
        index.meta["theta_capped"] = True
    obs.add("imm.lb_iterations", iterations)
    return ImmGrowth(
        selection=selection,
        theta=theta,
        opt_lower_bound=lower_bound,
        epsilon_prime=epsilon_prime,
        lambda_prime=lambda_p,
        lambda_star=lambda_s,
        lb_iterations=iterations,
        theta_capped=theta_capped,
        rr_sets_per_phase=rr_counts,
        phase_seconds=timer.as_dict(),
    )


def imm(
    graph: "DiGraph",
    k: int,
    epsilon: float | None = None,
    ell: float | None = None,
    model: Any = "IC",
    rng: Any = None,
    max_theta: int | None = None,
    *,
    policy: ExecutionPolicy | None = None,
    index: "SketchIndex | None" = None,
) -> IMMResult:
    """Influence maximization via IMM's martingale stopping rule.

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
        Defaults to ``policy.ell``.
    model:
        ``"IC"``, ``"LT"``, or a :class:`~repro.diffusion.base.DiffusionModel`
        instance.
    max_theta:
        Optional hard cap on θ.  **Voids the approximation guarantee**
        (``RuntimeWarning`` + ``theta_capped=True`` when it bites); it
        exists so exploratory runs on tiny budgets cannot run away.
    policy:
        The :class:`~repro.api.policy.ExecutionPolicy` governing execution.
        Two policies differing only in ``jobs`` return byte-identical seed
        sets for equal seeds.
    index:
        Optional :class:`~repro.sketch.index.SketchIndex` to run *through*:
        RR sets it already holds feed the lower-bound search directly and
        only the shortfall is sampled; the grown sketch stays on the index
        for later queries.  Without one, IMM builds (and closes) a private
        index over a fresh :class:`FlatRRCollection`.

    Returns
    -------
    IMMResult
        Seeds plus the martingale diagnostics: LB, λ′, λ*, θ, lower-bound
        iterations, per-phase RR-set counts and wall-clock.
    """
    resolved_policy = ExecutionPolicy.coerce(policy)
    epsilon = resolved_policy.epsilon if epsilon is None else epsilon
    ell = resolved_policy.ell if ell is None else ell
    require(graph.n >= 2, "influence maximization needs at least two nodes")
    check_k(k, graph.n)
    epsilon = check_epsilon(epsilon)
    ell = check_ell(ell)
    resolved_model = resolve_model(model)
    resolved_model.validate_graph(graph)
    source = resolve_rng(rng)
    # Two n^{−ℓ} failure events (sampling phase and selection), exactly
    # TIM's union-bound situation — reuse its 2 n^{−ℓ} → n^{−ℓ} scaling.
    ell_adjusted = adjusted_ell_tim(ell, graph.n)
    obs.add("imm.runs")

    owned = index is None
    if index is None:
        from repro.rrset.flat_collection import FlatRRCollection
        from repro.sketch.index import SketchIndex

        collection = FlatRRCollection(
            graph.n, graph.m, track_traces=resolved_policy.trace_edges
        )
        index = SketchIndex(
            collection, graph=graph, model=resolved_model, jobs=resolved_policy.jobs
        )
    else:
        require(index.num_nodes == graph.n,
                "the adopted index serves a different node universe")
        require(index.meta.get("model") == resolved_model.name,
                f"the adopted index was sampled under model "
                f"{index.meta.get('model')!r}, not {resolved_model.name!r}")
    sets_reused = index.num_sets
    try:
        with obs.trace("imm.run", k=int(k), model=resolved_model.name):
            growth = imm_ensure(
                index, k, epsilon, ell_adjusted, rng=source, max_theta=max_theta
            )
    finally:
        if owned:
            index.close()
    selection = growth.selection
    return IMMResult(
        algorithm="IMM",
        model=resolved_model.name,
        seeds=list(selection.seeds),
        k=k,
        runtime_seconds=sum(growth.phase_seconds.values()),
        estimated_spread=graph.n * selection.fraction,
        phase_seconds=dict(growth.phase_seconds),
        extras={
            "sketch_sets_reused": sets_reused,
            "theta_capped": growth.theta_capped,
        },
        epsilon=epsilon,
        ell=ell,
        ell_adjusted=ell_adjusted,
        epsilon_prime=growth.epsilon_prime,
        opt_lower_bound=growth.opt_lower_bound,
        lambda_prime=growth.lambda_prime,
        lambda_star=growth.lambda_star,
        theta=growth.theta,
        lb_iterations=growth.lb_iterations,
        rr_sets_per_phase=dict(growth.rr_sets_per_phase),
        rr_collection_bytes=index.collection.nbytes(),
        theta_capped=growth.theta_capped,
    )
