"""Estimators for the paper's latent quantities: EPT, KPT, and V*.

These make Lemmas 4 and 5 executable:

* Lemma 4 — ``(n/m) · EPT = E[I({v*})]`` where ``v*`` is drawn from the
  in-degree-weighted distribution V*;
* Lemma 5 — ``KPT = n · E[κ(R)]``.

The library's algorithms don't need these directly (Algorithm 2 folds the
estimation into its adaptive loop); they exist for validation and
diagnostics.
"""

from __future__ import annotations

from repro.diffusion.base import resolve_model
from repro.graphs.digraph import DiGraph
from repro.rrset.base import RRSampler
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_positive_int, require

__all__ = [
    "sample_indegree_weighted_node",
    "sample_indegree_weighted_set",
    "estimate_ept",
    "estimate_kpt_by_definition",
    "estimate_kpt_by_kappa",
]


def sample_indegree_weighted_node(graph: DiGraph, rng=None) -> int:
    """One draw from V*: pick a uniform edge, return its destination."""
    require(graph.m > 0, "V* is undefined on an edgeless graph")
    source = resolve_rng(rng)
    return int(graph.dst[source.randrange(graph.m)])


def sample_indegree_weighted_set(graph: DiGraph, k: int, rng=None) -> list[int]:
    """k draws from V* with duplicates removed (the paper's S*)."""
    check_positive_int(k, "k")
    source = resolve_rng(rng)
    seen: list[int] = []
    for _ in range(k):
        node = sample_indegree_weighted_node(graph, source)
        if node not in seen:
            seen.append(node)
    return seen


def estimate_ept(sampler: RRSampler, num_samples: int, rng=None) -> float:
    """EPT — the expected width of a random RR set — by direct averaging."""
    check_positive_int(num_samples, "num_samples")
    return sampler.sample_random_batch(num_samples, resolve_rng(rng)).mean_width()


def estimate_kpt_by_definition(
    graph: DiGraph, k: int, model="IC", num_outer: int = 200, num_inner: int = 50, rng=None
) -> float:
    """KPT straight from its definition: E over S* ~ (V*)^k of E[I(S*)].

    Two-level Monte Carlo (outer: seed sets; inner: propagation runs) —
    expensive and only used to validate Lemma 5's cheap estimator.
    """
    check_positive_int(num_outer, "num_outer")
    check_positive_int(num_inner, "num_inner")
    resolved = resolve_model(model)
    resolved.validate_graph(graph)
    source = resolve_rng(rng)
    total = 0.0
    for _ in range(num_outer):
        seed_set = sample_indegree_weighted_set(graph, k, source)
        for _ in range(num_inner):
            total += len(resolved.simulate(graph, seed_set, source))
    return total / (num_outer * num_inner)


def estimate_kpt_by_kappa(
    graph: DiGraph, k: int, sampler: RRSampler, num_samples: int = 2000, rng=None
) -> float:
    """KPT via Lemma 5: ``n · mean(κ(R))`` over random RR sets."""
    check_positive_int(num_samples, "num_samples")
    require(graph.m > 0, "kappa is undefined on an edgeless graph")
    batch = sampler.sample_random_batch(num_samples, resolve_rng(rng))
    return graph.n * batch.mean_kappa(k)
