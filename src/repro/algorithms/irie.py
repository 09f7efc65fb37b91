"""IRIE — Influence Ranking + Influence Estimation (Jung, Heo & Chen [16]).

The paper's state-of-the-art *heuristic* under IC (Figures 8–9).  Two
ingredients:

* **IR** (influence ranking): a PageRank-like fixed point
  ``r(u) = (1 − AP(u, S)) · (1 + α · Σ_{(u,v)∈E} p(u, v) · r(v))``
  whose solution ranks each node's residual influence given the already
  selected seeds ``S``.
* **IE** (influence estimation): ``AP(u, S)``, the probability that ``u`` is
  already activated by ``S``; the original uses a MIA-style local-tree
  estimate truncated at path probability θ.

Substitution note: the authors' C++ IE implementation is not
available, so ``AP`` is estimated by Monte-Carlo simulation of ``S``
(``ap_runs`` runs, default 200).  This preserves IE's role — damping ranks
of nodes the current seeds already reach — and keeps the heuristic's
characteristic behaviour: fast, good on some graphs, no approximation
guarantee.  The rank recursion and its tunables (α = 0.7 as recommended,
fixed-point iteration with convergence cutoff) follow the IRIE paper.
"""

from __future__ import annotations


import numpy as np

from repro.algorithms.base import register_algorithm
from repro.core.results import InfluenceMaxResult
from repro.diffusion.base import resolve_model
from repro.graphs.digraph import DiGraph
from repro.obs import runtime as obs
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_k, check_positive_int, require

__all__ = ["irie", "influence_rank"]


def influence_rank(
    graph: DiGraph,
    alpha: float = 0.7,
    activation_prob: np.ndarray | None = None,
    max_iterations: int = 20,
    tolerance: float = 1e-4,
) -> np.ndarray:
    """Solve the IR fixed point by damped iteration.

    ``activation_prob[u]`` is AP(u, S) (zeros for the first round).  Returns
    the rank vector r.
    """
    require(0.0 < alpha < 1.0, "alpha must be in (0, 1)")
    if activation_prob is None:
        activation_prob = np.zeros(graph.n, dtype=np.float64)
    damp = 1.0 - activation_prob
    rank = np.ones(graph.n, dtype=np.float64)
    src, dst, prob = graph.src, graph.dst, graph.prob
    for _ in range(max_iterations):
        contribution = np.zeros(graph.n, dtype=np.float64)
        np.add.at(contribution, src, prob * rank[dst])
        updated = damp * (1.0 + alpha * contribution)
        if float(np.abs(updated - rank).max(initial=0.0)) < tolerance:
            rank = updated
            break
        rank = updated
    return rank


def _estimate_activation_probability(graph, model, seeds, num_runs, rng) -> np.ndarray:
    """AP(·, S) via Monte-Carlo: fraction of runs each node is activated."""
    counts = np.zeros(graph.n, dtype=np.float64)
    for _ in range(num_runs):
        for node in model.simulate(graph, seeds, rng):
            counts[node] += 1.0
    return counts / num_runs


def irie(
    graph: DiGraph,
    k: int,
    model="IC",
    rng=None,
    alpha: float = 0.7,
    ap_runs: int = 200,
    max_iterations: int = 20,
) -> InfluenceMaxResult:
    """IRIE seed selection: iterate (rank, pick argmax, re-estimate AP)."""
    check_k(k, graph.n)
    check_positive_int(ap_runs, "ap_runs")
    resolved = resolve_model(model)
    resolved.validate_graph(graph)
    source = resolve_rng(rng)

    started = obs.now()
    seeds: list[int] = []
    time_at_k: list[float] = []  # cumulative seconds when each seed commits
    activation_prob = np.zeros(graph.n, dtype=np.float64)
    for _ in range(k):
        rank = influence_rank(
            graph, alpha=alpha, activation_prob=activation_prob, max_iterations=max_iterations
        )
        rank[seeds] = -np.inf  # already chosen
        seeds.append(int(np.argmax(rank)))
        activation_prob = _estimate_activation_probability(
            graph, resolved, seeds, ap_runs, source
        )
        activation_prob[seeds] = 1.0
        time_at_k.append(obs.now() - started)
    return InfluenceMaxResult(
        algorithm="IRIE",
        model=resolved.name,
        seeds=seeds,
        k=k,
        runtime_seconds=obs.now() - started,
        estimated_spread=None,  # heuristic: no internal unbiased estimate
        extras={"alpha": alpha, "ap_runs": ap_runs, "time_at_k": time_at_k},
    )


register_algorithm("irie", irie)
