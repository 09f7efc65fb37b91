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

Both phases are the ``"imm"`` rule of :func:`repro.core.pricing.price`,
the one function that prices θ for TIM, TIM+ and IMM alike.  The engine
runs entirely through :class:`~repro.sketch.index.SketchIndex` (warm
``ensure_theta`` extension + incremental greedy ``select``), so it inherits
the library's substrate invariants unchanged: byte-identical results for
every worker count (``policy.jobs``), live-edge traces for
:mod:`repro.dynamic` repair when ``policy.trace_edges`` is on, and
:mod:`repro.obs` / :mod:`repro.faults` instrumentation at every phase.

Guarantee: ``(1 − 1/e − ε)``-approximate with probability at least
``1 − n^{−ℓ}`` (the internal ℓ absorbs the union bound over the sampling
and selection failure events, as in TIM), in ``O((k + ℓ)(m + n) log n / ε²)``
expected time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.api.policy import ExecutionPolicy
from repro.core.pricing import solve
from repro.core.results import IMMResult

if TYPE_CHECKING:
    from repro.graphs.digraph import DiGraph
    from repro.sketch.index import SketchIndex

__all__ = ["imm"]


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
        Optional :class:`~repro.sketch.index.SketchIndex` to run *through*;
        it must hold RR sets of ``model`` drawn from ``graph``.  RR sets it
        already holds feed the lower-bound search directly and only the
        shortfall is sampled; a repeat call for the same ``(k, ell)``
        reuses the recorded LB and skips the search.  The grown sketch stays
        on the index for later queries.  Without one, IMM builds (and
        closes) a private index over a fresh :class:`FlatRRCollection`.

    Returns
    -------
    IMMResult
        Seeds plus the martingale diagnostics: LB, λ′, λ*, θ, lower-bound
        iterations, per-phase RR-set counts and wall-clock.
    """
    pricing, fields = solve(graph, k, epsilon, ell, model, rng, "imm", policy, index,
                            max_theta=max_theta)
    return IMMResult(algorithm="IMM", epsilon_prime=pricing.epsilon_prime,
                     opt_lower_bound=pricing.lower_bound,
                     lambda_prime=pricing.lambda_prime, lambda_star=pricing.lambda_value,
                     lb_iterations=pricing.iterations, **fields)
