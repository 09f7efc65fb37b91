"""Experiments versus the guaranteed baselines — Figures 3, 4 and 5.

All on the NetHEPT stand-in, as in the paper's Section 7.2.  Scale and
sample-count defaults are tuned for pure Python; the *shape*
targets are:

* Fig. 3 — TIM+ < TIM ≪ CELF++ and RIS, by orders of magnitude;
* Fig. 4 — node selection (Algorithm 1) dominates both phases; TIM+'s
  refinement cost is negligible yet slashes Algorithm 1's share;
* Fig. 5 — methods' spreads are statistically indistinguishable while
  KPT⁺ ≥ 3 × KPT*.

The greedy-family baseline (CELF++) is run once at max(k) and its nested
prefix timings/seeds reused for every smaller k — identical measurements to
rerunning, without the rerun.
"""

from __future__ import annotations

from functools import lru_cache

from repro.algorithms.celfpp import celf_plus_plus
from repro.algorithms.ris import ris
from repro.core.tim import tim, tim_plus
from repro.datasets.registry import build_dataset
from repro.diffusion.spread import estimate_spread
from repro.experiments.reporting import ExperimentResult
from repro.utils.rng import RandomSource

__all__ = ["figure3", "figure4", "figure5"]


@lru_cache(maxsize=32)
def _weighted(dataset: str, scale: float, model: str):
    return build_dataset(dataset, scale).weighted_for(model)


@lru_cache(maxsize=8)
def _celfpp_curve(model: str, scale: float, max_k: int, num_runs: int, seed: int):
    """One CELF++ run at max_k; returns (time_at_k, seeds)."""
    graph = _weighted("nethept", scale, model)
    result = celf_plus_plus(graph, max_k, model=model, rng=seed, num_runs=num_runs)
    return tuple(result.extras["time_at_k"]), tuple(result.seeds)


def figure3(
    model: str = "IC",
    scale: float = 0.35,
    k_values: tuple[int, ...] = (1, 5, 10, 20, 50),
    epsilon: float = 0.3,
    celf_runs: int = 40,
    ris_tau_constant: float = 1.0,
    seed: int = 7,
) -> ExperimentResult:
    """Computation time vs k on NetHEPT (Figure 3a=IC / 3b=LT)."""
    graph = _weighted("nethept", scale, model)
    sub = "a" if model.upper() == "IC" else "b"
    result = ExperimentResult(
        name=f"figure-3{sub}",
        title=f"runtime (s) vs k on nethept stand-in, {model} model "
        f"(n={graph.n}, eps={epsilon})",
        headers=["k", "TIM", "TIM+", "RIS", "CELF++"],
        notes=[
            f"CELF++ measured as prefix times of one k={max(k_values)} run "
            f"(r={celf_runs}); RIS tau constant {ris_tau_constant} (charitable: Borgs et al.'s true hidden constant is far larger, so RIS can still win at k=1)",
            "paper shape: TIM+ < TIM << CELF++, RIS slowest overall",
        ],
    )
    celf_times, _ = _celfpp_curve(model, scale, max(k_values), celf_runs, seed)
    for k in k_values:
        rng = RandomSource(seed + k)
        tim_result = tim(graph, k, epsilon=epsilon, model=model, rng=rng.spawn())
        timp_result = tim_plus(graph, k, epsilon=epsilon, model=model, rng=rng.spawn())
        ris_result = ris(
            graph, k, model=model, rng=rng.spawn(), epsilon=epsilon, tau_constant=ris_tau_constant
        )
        result.add_row(
            k,
            tim_result.runtime_seconds,
            timp_result.runtime_seconds,
            ris_result.runtime_seconds,
            celf_times[k - 1],
        )
    return result


def figure4(
    refine: bool = False,
    scale: float = 0.35,
    k_values: tuple[int, ...] = (1, 2, 5, 10, 20, 30, 40, 50),
    epsilon: float = 0.3,
    seed: int = 11,
) -> ExperimentResult:
    """Per-phase breakdown of TIM (4a) or TIM+ (4b) on NetHEPT, IC model."""
    graph = _weighted("nethept", scale, "IC")
    sub = "b" if refine else "a"
    algorithm = "TIM+" if refine else "TIM"
    result = ExperimentResult(
        name=f"figure-4{sub}",
        title=f"per-phase runtime (s) of {algorithm} on nethept stand-in, IC "
        f"(n={graph.n}, eps={epsilon})",
        headers=["k", "alg2_param_est", "alg3_refine", "alg1_node_sel", "total"],
        notes=["paper shape: Algorithm 1 dominates; Algorithm 3 cost negligible"],
    )
    for k in k_values:
        run = tim(graph, k, epsilon=epsilon, model="IC", rng=seed + k, refine=refine)
        phases = run.phase_seconds
        result.add_row(
            k,
            phases.get("parameter_estimation", 0.0),
            phases.get("refinement", 0.0),
            phases.get("node_selection", 0.0),
            sum(phases.values()),
        )
    return result


def figure5(
    model: str = "IC",
    scale: float = 0.35,
    k_values: tuple[int, ...] = (1, 5, 10, 20, 50),
    epsilon: float = 0.3,
    celf_runs: int = 40,
    ris_tau_constant: float = 1.0,
    spread_samples: int = 2000,
    seed: int = 13,
) -> ExperimentResult:
    """Expected spreads plus the KPT* / KPT⁺ lower bounds (Figure 5a/5b).

    Every method's seed set is re-scored with the same independent
    Monte-Carlo estimator, mirroring the paper's 10⁵-run scoring.
    """
    graph = _weighted("nethept", scale, model)
    sub = "a" if model.upper() == "IC" else "b"
    result = ExperimentResult(
        name=f"figure-5{sub}",
        title=f"expected spread and KPT bounds vs k on nethept stand-in, {model} "
        f"(n={graph.n})",
        headers=["k", "TIM", "TIM+", "RIS", "CELF++", "KPT*", "KPT+"],
        notes=[
            "paper shape: spreads statistically indistinguishable across methods;"
            " KPT+ >= ~3x KPT*",
        ],
    )
    _, celf_seeds = _celfpp_curve(model, scale, max(k_values), celf_runs, seed)

    def spread_of(seeds) -> float:
        return estimate_spread(
            graph, seeds, model=model, num_samples=spread_samples, rng=seed
        ).mean

    for k in k_values:
        rng = RandomSource(seed + 1000 * k)
        tim_result = tim(graph, k, epsilon=epsilon, model=model, rng=rng.spawn())
        timp_result = tim_plus(graph, k, epsilon=epsilon, model=model, rng=rng.spawn())
        ris_result = ris(
            graph, k, model=model, rng=rng.spawn(), epsilon=epsilon, tau_constant=ris_tau_constant
        )
        result.add_row(
            k,
            spread_of(tim_result.seeds),
            spread_of(timp_result.seeds),
            spread_of(ris_result.seeds),
            spread_of(celf_seeds[:k]),
            timp_result.kpt_star,
            timp_result.kpt_plus,
        )
    return result
