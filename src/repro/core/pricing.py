"""One pricing path: the θ a guaranteed answer needs, grown on one sketch.

In the paper, NodeSelection (Algorithm 1) is the same step for TIM and TIM+;
only the lower bound on OPT computed before it differs (Sections 3–4), and
IMM (Tang, Shi & Xiao 2015) is one more lower-bound rule over the same
sketch.  :func:`price` runs one rule's lower-bound phase for budget ``k``,
grows a :class:`~repro.sketch.index.SketchIndex` to θ = ⌈λ / LB⌉ through
``ensure_theta`` and records what it priced:

* ``"tim"`` — Algorithm 2's KPT*, then θ = ⌈λ/KPT*⌉ (Equations 4–5);
* ``"tim+"`` — Algorithm 2, then Algorithm 3's KPT⁺, then θ = ⌈λ/KPT⁺⌉;
* ``"imm"`` — IMM's lower-bound search on the index itself: for
  ``x_i = n / 2^i`` grow the sketch to ``⌈λ′/x_i⌉`` sets, select ``k`` seeds
  and stop once ``n·F_R(S_i) ≥ (1 + ε′)·x_i``; then
  ``LB = n·F_R(S_i) / (1 + ε′)`` with ε′ = √2·ε, and θ = ⌈λ*/LB⌉.

The internal ℓ absorbs the union bound over the rule's failure events: two
for TIM and IMM, three for TIM+ (Sections 3.3 and 4.1).  Algorithms 2 and 3
draw estimation-only batches through the index's sampler; only the IMM
search and the growth to θ land in the sketch.

Warm path: each pricing is kept in ``index.priced`` under ``(rule, k, ℓ)``;
a repeat for a key priced on the index's graph reuses its lower bound and
samples nothing for it.  Reuse is sound: the bound came from the same
procedure, independently of the sets it now prices.  The latest pricing is
also written to the sketch metadata (``algorithm``, ``k``, ``ell``, the
rule's bound and the tightest ``epsilon``), so a loaded TIM-priced sketch
reuses its KPT too.  An edge update drops both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.api.policy import ExecutionPolicy
from repro.core.kpt_estimation import estimate_kpt
from repro.core.parameters import (
    adjusted_ell_tim,
    adjusted_ell_tim_plus,
    apply_theta_cap,
    epsilon_prime_default,
    imm_epsilon_prime,
    imm_lambda_prime,
    imm_lambda_star,
    lambda_param,
    theta_from_kpt,
)
from repro.core.refine_kpt import refine_kpt
from repro.diffusion.base import resolve_model
from repro.faults import injection as faults
from repro.obs import runtime as obs
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import RandomSource, resolve_rng
from repro.utils.timer import PhaseTimer
from repro.utils.validation import check_ell, check_epsilon, check_k, require

if TYPE_CHECKING:
    from repro.diffusion.base import DiffusionModel
    from repro.graphs.digraph import DiGraph
    from repro.sketch.index import SketchIndex

__all__ = ["RULES", "Pricing", "adopt_index", "price", "solve"]

#: The lower-bound rules :func:`price` runs.
RULES = ("tim", "tim+", "imm")

#: The metadata key holding each rule's lower bound on OPT.
_BOUND_KEY = {"tim": "kpt_star", "tim+": "kpt_plus", "imm": "imm_lower_bound"}


@dataclass(frozen=True)
class Pricing:
    """What one :func:`price` call priced, and what it sampled to do so."""

    rule: str
    k: int
    epsilon: float
    ell: float
    #: ℓ scaled for the rule's union bound (Sections 3.3 and 4.1).
    ell_adjusted: float
    #: The lower bound on OPT that θ divides: KPT* (tim), KPT⁺ (tim+), LB (imm).
    lower_bound: float
    #: λ of Equation 4 (tim, tim+) or IMM's λ*.
    lambda_value: float
    theta: int
    #: Whether ``max_theta`` clamped θ; the guarantee does NOT hold then.
    capped: bool
    #: Whether the lower bound came from an earlier pricing of this key.
    cached: bool
    #: Algorithm 2's or the LB search's iterations (0 when cached).
    iterations: int = 0
    #: Algorithm 2's KPT* (tim, tim+; 0 for imm).
    kpt_star: float = 0.0
    #: Algorithm 3's ε′ (tim+) or IMM's √2·ε (imm); 0 for tim.
    epsilon_prime: float = 0.0
    #: IMM's λ′ (imm only; 0 otherwise).
    lambda_prime: float = 0.0
    #: Algorithm 3's interim seed set S′_k (tim+ only).
    interim_seeds: tuple[int, ...] = ()
    #: RR sets sampled per phase; ``node_selection`` is the growth to θ.
    rr_sets_per_phase: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)


def price(index: SketchIndex, k: int, epsilon: float, ell: float, rule: str,
          rng: Any = None, *, max_theta: int | None = None,
          epsilon_prime: float | None = None) -> Pricing:
    """Price θ for budget ``k`` by ``rule`` and grow ``index`` to it.

    ``epsilon``/``ell`` are the guarantee asked for; the rule scales ℓ
    itself.  ``epsilon_prime`` is Algorithm 3's accuracy (``"tim+"`` only;
    default the paper's ``5·∛(ℓε²/(k+ℓ))``).  ``max_theta`` caps θ and voids
    the guarantee: a :class:`RuntimeWarning`, ``capped=True`` and
    ``meta["theta_capped"]``.  Every batch is drawn from the one ``rng``
    stream through the index's sampler, so the grown sketch is the same
    bytes for every worker count its pool runs with.
    """
    require(rule in RULES, f"pricing rule must be one of {RULES}; got {rule!r}")
    n = index.num_nodes
    require(n >= 2, "influence maximization needs at least two nodes")
    k = int(check_k(k, n))
    epsilon = check_epsilon(epsilon)
    check_ell(ell)
    source = resolve_rng(rng)
    timer = PhaseTimer()
    counts: dict[str, int] = {}
    reused = _reused_bounds(index, rule, k, ell)
    kpt_star = lambda_prime = 0.0
    interim: list[int] = []
    iterations = 0
    if rule == "imm":
        ell_adjusted = adjusted_ell_tim(ell, n)
        accuracy = imm_epsilon_prime(epsilon)
        lambda_prime = imm_lambda_prime(n, k, accuracy, ell_adjusted)
        lambda_value = imm_lambda_star(n, k, epsilon, ell_adjusted)
        counts["lb_search"] = 0
        if reused is not None:
            lower_bound = reused[1]
        else:
            before = index.num_sets
            with timer.phase("lb_search"):
                lower_bound, iterations = _imm_lower_bound(
                    index, k, accuracy, lambda_prime, source)
            counts["lb_search"] = index.num_sets - before
            obs.add("imm.lb_iterations", iterations)
    else:
        refine = rule == "tim+"
        ell_adjusted = (adjusted_ell_tim_plus if refine else adjusted_ell_tim)(ell, n)
        accuracy = 0.0
        if refine:
            accuracy = (epsilon_prime_default(epsilon, k, ell)
                        if epsilon_prime is None else epsilon_prime)
            counts["refinement"] = 0
        counts["parameter_estimation"] = 0
        if reused is not None:
            kpt_star, lower_bound = reused
        else:
            sampler = index.sampler()
            with timer.phase("parameter_estimation"):
                estimate = estimate_kpt(index.graph, k, sampler, ell=ell_adjusted,
                                        rng=source)
            counts["parameter_estimation"] = estimate.num_rr_sets
            iterations = estimate.iterations_run
            kpt_star = lower_bound = estimate.kpt_star
            # Algorithm 2 samples nothing on an edgeless graph (KPT* = 1 by
            # its shortcut), so Algorithm 3 has no R′ to refine; KPT⁺ =
            # KPT* = 1 is still a valid lower bound on OPT.
            if refine and estimate.num_rr_sets > 0:
                with timer.phase("refinement"):
                    refined = refine_kpt(
                        index.graph, k, estimate.kpt_star, estimate.last_iteration_sets,
                        sampler, epsilon_prime=accuracy, ell=ell_adjusted, rng=source,
                    )
                counts["refinement"] = refined.num_rr_sets
                lower_bound = refined.kpt_plus
                interim = list(refined.interim_seeds)
        lambda_value = lambda_param(n, k, epsilon, ell_adjusted)

    theta, capped = apply_theta_cap(
        theta_from_kpt(lambda_value, lower_bound), max_theta, f"price({rule!r})")
    before = index.num_sets
    with timer.phase("node_selection"):
        faults.checkpoint("price.grow")
        index.ensure_theta(theta, rng=source)
    counts["node_selection"] = index.num_sets - before

    pricing = Pricing(
        rule=rule, k=k, epsilon=epsilon, ell=ell, ell_adjusted=ell_adjusted,
        lower_bound=lower_bound, lambda_value=lambda_value, theta=theta,
        capped=capped, cached=reused is not None, iterations=iterations,
        kpt_star=kpt_star, epsilon_prime=accuracy, lambda_prime=lambda_prime,
        interim_seeds=tuple(interim), rr_sets_per_phase=counts,
        phase_seconds=timer.as_dict(),
    )
    _record(index, pricing)
    return pricing


def _imm_lower_bound(index: SketchIndex, k: int, epsilon_prime: float,
                     lambda_prime: float, source: RandomSource) -> tuple[float, int]:
    """IMM's martingale LB search on ``index``; returns (LB, iterations run).

    Sets the index already holds count toward each ``θ_i``, so a warm
    sketch skips the early iterations' sampling.  Falls back to LB = 1 (a
    seed activates itself) when no iteration clears its threshold.
    """
    n = index.num_nodes
    max_rounds = max(1, math.ceil(math.log2(n)) - 1)
    iterations = 0
    with obs.trace("price.lb_search", k=k, max_rounds=max_rounds):
        for i in range(1, max_rounds + 1):
            faults.checkpoint("price.lb_search")
            iterations = i
            x_i = n / (2.0**i)
            theta_i = max(1, math.ceil(lambda_prime / x_i))
            with obs.trace("price.lb_iteration", iteration=i, theta=theta_i):
                index.ensure_theta(theta_i, rng=source)
                selection = index.select(k)
            if n * selection.fraction >= (1.0 + epsilon_prime) * x_i:
                return n * selection.fraction / (1.0 + epsilon_prime), iterations
    return 1.0, iterations


def _reused_bounds(index: SketchIndex, rule: str, k: int,
                   ell: float) -> tuple[float, float] | None:
    """(KPT*, lower bound) of an earlier pricing of (rule, k, ℓ), if any.

    Looks in ``index.priced`` first, then at the latest pricing the sketch
    metadata records, which is how a loaded sketch keeps its build's KPT.
    An ``imm_lower_bound`` read from a file is not trusted: files written
    by earlier versions may pair it with a ``k`` (or a graph, across an
    update) it was not priced for, and the search re-runs on the loaded
    sets, sampling only a shortfall.
    """
    earlier = index.priced.get((rule, k, float(ell)))
    if earlier is not None:
        return earlier.kpt_star, earlier.lower_bound
    if rule == "imm":
        return None
    meta = index.meta
    bound = meta.get(_BOUND_KEY[rule])
    latest = (meta.get("algorithm"), meta.get("k"), meta.get("ell"))
    if bound is None or latest != (rule, k, ell):
        return None
    return meta.get("kpt_star", 0.0), bound


def _record(index: SketchIndex, pricing: Pricing) -> None:
    """Keep ``pricing`` for reuse and write it to the sketch metadata."""
    meta = index.meta
    for key in _BOUND_KEY.values():
        meta.pop(key, None)
    meta.update(algorithm=pricing.rule, k=pricing.k, ell=pricing.ell)
    if pricing.rule == "tim+":
        meta["kpt_star"] = pricing.kpt_star
    meta[_BOUND_KEY[pricing.rule]] = pricing.lower_bound
    index.record_epsilon(pricing.epsilon)
    if pricing.capped:
        meta["theta_capped"] = True
    index.priced[(pricing.rule, pricing.k, float(pricing.ell))] = pricing


def adopt_index(index: SketchIndex | None, graph: DiGraph, model: DiffusionModel,
                policy: ExecutionPolicy) -> tuple[SketchIndex, bool]:
    """The index a caller prices on, and whether the caller owns (closes) it.

    Without ``index``: a private one over an empty sketch of ``graph``, with
    ``policy``'s tracing and workers.  With one: it must hold RR sets of
    ``model`` drawn from ``graph`` (same fingerprint), or growing it would
    mix two cascade laws or two graphs in one sketch.  A graphless index is
    bound to ``graph``; ``policy.jobs``, when set, re-configures its pool.
    """
    from repro.sketch.index import SketchIndex

    if index is None:
        collection = FlatRRCollection(graph.n, graph.m, track_traces=policy.trace_edges)
        return SketchIndex(collection, graph=graph, model=model, jobs=policy.jobs), True
    require(index.num_nodes == graph.n,
            "the adopted index serves a different node universe")
    require(index.meta.get("model") == model.name,
            f"the adopted index was sampled under model "
            f"{index.meta.get('model')!r}, not {model.name!r}")
    recorded = index.meta.get("graph_fingerprint")
    require(recorded is None or recorded == graph.fingerprint(),
            "the adopted index was built for a different graph snapshot")
    if index.graph is None:
        index.graph = graph
    if policy.jobs is not None:
        index.sampler(policy.jobs)
    return index, False


def solve(graph: DiGraph, k: int, epsilon: float | None, ell: float | None,
          model: Any, rng: Any, rule: str, policy: ExecutionPolicy | None,
          index: SketchIndex | None, *, max_theta: int | None = None,
          epsilon_prime: float | None = None) -> tuple[Pricing, dict[str, Any]]:
    """The body of ``tim``, ``tim_plus`` and ``imm``: price, then select.

    Prices θ by ``rule`` on ``index`` (or on a private index it closes
    after), selects ``k`` seeds on the grown sketch, and returns the pricing
    with the result fields all three report.  ``epsilon``/``ell``
    default to the policy's.
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
    obs.add("imm.runs" if rule == "imm" else "tim.runs")
    index, owned = adopt_index(index, graph, resolved_model, resolved_policy)
    sets_reused = index.num_sets
    try:
        pricing = price(index, k, epsilon, ell, rule, source, max_theta=max_theta,
                        epsilon_prime=epsilon_prime)
        timer = PhaseTimer(dict(pricing.phase_seconds))
        with timer.phase("node_selection"):
            selection = index.select(k)
        collection_bytes = index.collection.nbytes()
    finally:
        if owned:
            index.close()
    return pricing, dict(
        model=resolved_model.name,
        seeds=list(selection.seeds),
        k=k,
        runtime_seconds=timer.total,
        estimated_spread=graph.n * selection.fraction,
        phase_seconds=timer.as_dict(),
        extras={"sketch_sets_reused": sets_reused, "theta_capped": pricing.capped},
        epsilon=epsilon,
        ell=ell,
        ell_adjusted=pricing.ell_adjusted,
        theta=pricing.theta,
        rr_sets_per_phase=dict(pricing.rr_sets_per_phase),
        rr_collection_bytes=collection_bytes,
        theta_capped=pricing.capped,
    )
