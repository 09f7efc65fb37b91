"""TIM and TIM+ drivers (Sections 3.3 and 4.1).

``tim`` wires the two phases together over one
:class:`~repro.sketch.index.SketchIndex`, the caller's or a private one:

1. **Parameter estimation** — :func:`repro.core.pricing.price` runs
   Algorithm 2 for KPT* (with ``refine=True``, TIM+, Algorithm 3 tightens it
   to KPT⁺) and grows the index to θ = ⌈λ / KPT⌉ random RR sets
   (Equations 4–5).
2. **Node selection** — greedy maximum coverage over the index.

Guarantee (Theorems 1–3): a ``(1 − 1/e − ε)``-approximation with probability
at least ``1 − n^{−ℓ}`` (the internal ℓ is scaled per Section 3.3 / 4.1 so
the union-bounded failure events still sum below ``n^{−ℓ}``), under any
triggering model, in ``O((k + ℓ)(m + n) log n / ε²)`` expected time.
"""

from __future__ import annotations

from repro.api.policy import ExecutionPolicy
from repro.core.pricing import solve
from repro.core.results import TIMResult
from repro.graphs.digraph import DiGraph

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
        *through* (build-or-reuse); it must hold RR sets of ``model`` drawn
        from ``graph``.  θ is priced by :func:`repro.core.pricing.price` on
        the index — RR sets it already holds are reused and only the
        shortfall to θ is sampled and appended — and a repeat call for the
        same ``(k, refine, ell)`` reuses the index's recorded KPT and skips
        Algorithms 2/3 entirely.  A first call populates the index; later
        calls amortize it.  Prefer
        :class:`~repro.api.session.InfluenceSession` for whole-workload
        sketch ownership.

    Returns
    -------
    TIMResult
        Seeds plus every diagnostic the paper plots: KPT*, KPT⁺, θ,
        per-phase RR-set counts, per-phase wall-clock, RR-collection bytes.
    """
    pricing, fields = solve(graph, k, epsilon, ell, model, rng, "tim+" if refine else "tim",
                            policy, index, max_theta=max_theta, epsilon_prime=epsilon_prime)
    fields["extras"].update(interim_seeds=list(pricing.interim_seeds),
                            kpt_iterations=pricing.iterations,
                            kpt_cache_hit=pricing.cached)
    return TIMResult(algorithm="TIM+" if refine else "TIM", kpt_star=pricing.kpt_star,
                     kpt_plus=pricing.lower_bound, lambda_value=pricing.lambda_value,
                     **fields)


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
