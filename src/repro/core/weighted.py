"""Node-weighted influence maximization (extension).

Kempe et al.'s general formulation lets each node ``v`` carry a benefit
``w(v) >= 0`` and maximises the expected *total benefit* of activated nodes.
The RR-set machinery extends cleanly (a standard observation in the TIM
follow-on literature): sample each RR root ``v`` with probability
``w(v) / W`` (``W = Σ w``) instead of uniformly, and then

    E[W · F_R(S)] = Σ_v w(v) · Pr[S activates v] = weighted spread of S,

i.e. Corollary 1 holds verbatim with ``n`` replaced by ``W``.  The Chernoff
argument of Lemma 3 / Theorem 1 never inspects the RR sets' contents, so
greedy max coverage over θ ≥ λ_w / OPT_w weighted-root RR sets keeps the
``(1 − 1/e − ε)`` guarantee, where λ_w is Equation 4 with ``n → W`` in the
numerator's scale factor (the ``log C(n, k)`` union bound still counts seed
*sets*, hence keeps ``n``).

Parameter estimation differs: Algorithm 2's κ(R) identity (Lemma 5) is
specific to uniform roots, so the driver below lower-bounds OPT_w the way
Algorithm 3 does — greedy on a pilot batch, unbiased re-estimate on a fresh
batch, deflated by ``1 + ε′`` — floored by the always-valid bound
``OPT_w ≥ sum of the k largest node weights`` (seeds activate themselves).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.parameters import (
    apply_theta_cap,
    epsilon_prime_default,
    log_binomial,
    theta_from_kpt,
)
from repro.core.results import TIMResult
from repro.diffusion.base import resolve_model
from repro.graphs.digraph import DiGraph
from repro.rrset.base import RRSampler, make_rr_sampler
from repro.rrset.coverage import greedy_max_coverage
from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.rng import resolve_rng
from repro.utils.timer import PhaseTimer
from repro.utils.validation import check_ell, check_epsilon, check_k, require

__all__ = ["WeightedRootSampler", "weighted_lambda", "weighted_tim_plus"]


class WeightedRootSampler(RRSampler):
    """Wrap any RR sampler so roots are drawn ∝ node weight."""

    def __init__(self, inner: RRSampler, node_weights: np.ndarray):
        super().__init__(inner.graph)
        weights = np.ascontiguousarray(node_weights, dtype=np.float64)
        require(weights.size == inner.graph.n, "one weight per node required")
        if weights.min(initial=0.0) < 0.0:
            raise ValueError("node weights must be non-negative")
        total = float(weights.sum())
        require(total > 0.0, "at least one node weight must be positive")
        self.inner = inner
        # Batches come from the inner sampler, so they carry its traces.
        self.trace_edges = inner.trace_edges
        self.node_weights = weights
        self.total_weight = total
        self._cumulative = np.cumsum(weights)
        self._last_positive = int(np.flatnonzero(weights)[-1])
        self.model_name = f"weighted-{inner.model_name}"

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        return self.inner.sample_batch(roots, rng)

    def sample_random_batch(self, count: int, rng) -> FlatRRCollection:
        """``count`` RR sets whose roots are drawn ∝ node weight.

        The roots come from one vectorised inverse-CDF draw; the inner
        sampler's batched path then expands them.
        """
        source = resolve_rng(rng)
        draws = source.np.random(int(count)) * self.total_weight
        roots = np.searchsorted(self._cumulative, draws, side="right")
        # A draw that rounds up to the total lands past the end; it belongs
        # to the last node that carries weight.
        np.minimum(roots, self._last_positive, out=roots)
        return self.sample_batch(roots, source)


def weighted_lambda(
    graph_n: int, total_weight: float, k: int, epsilon: float, ell: float
) -> float:
    """Equation 4 with the spread scale ``n`` replaced by ``W``.

    The union-bound term still counts size-k node sets out of n nodes.
    """
    require(graph_n >= 2, "need n >= 2")
    require(total_weight > 0, "total weight must be positive")
    check_epsilon(epsilon)
    check_ell(ell)
    return (
        (8.0 + 2.0 * epsilon)
        * total_weight
        * (ell * math.log(graph_n) + log_binomial(graph_n, k) + math.log(2.0))
        / (epsilon * epsilon)
    )


def weighted_tim_plus(
    graph: DiGraph,
    k: int,
    node_weights,
    epsilon: float = 0.2,
    ell: float = 1.0,
    model="IC",
    rng=None,
    epsilon_prime: float | None = None,
    pilot_rr_sets: int = 2000,
    max_theta: int | None = None,
) -> TIMResult:
    """TIM+ for the node-weighted objective ``E[Σ_{v activated} w(v)]``.

    Parameters follow :func:`repro.core.tim.tim_plus`;  ``node_weights`` is
    one non-negative benefit per node.  ``pilot_rr_sets`` sizes the pilot
    batch used (like Algorithm 3) to lower-bound the weighted OPT.

    Returns a :class:`TIMResult` whose spread figures are in *weight* units;
    ``kpt_plus`` holds the OPT_w lower bound used to derive θ.
    """
    require(graph.n >= 2, "influence maximization needs at least two nodes")
    check_k(k, graph.n)
    check_epsilon(epsilon)
    check_ell(ell)
    require(pilot_rr_sets >= 1, "pilot_rr_sets must be positive")
    resolved = resolve_model(model)
    resolved.validate_graph(graph)
    source = resolve_rng(rng)
    sampler = WeightedRootSampler(make_rr_sampler(graph, resolved), np.asarray(node_weights))
    total_weight = sampler.total_weight

    if epsilon_prime is None:
        epsilon_prime = epsilon_prime_default(epsilon, k, ell)

    timer = PhaseTimer()
    rr_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lower-bound OPT_w: pilot batch -> greedy -> fresh unbiased estimate
    # deflated by (1 + eps'), floored by the top-k weight sum.
    # ------------------------------------------------------------------
    with timer.phase("parameter_estimation"):
        pilot = sampler.sample_random_batch(pilot_rr_sets, source)
        interim = greedy_max_coverage(pilot, graph.n, k)
    rr_counts["parameter_estimation"] = pilot_rr_sets

    with timer.phase("refinement"):
        fresh_count = pilot_rr_sets
        fresh = sampler.sample_random_batch(fresh_count, source)
        covered = fresh.coverage_count(interim.seeds)
        estimate = covered / fresh_count * total_weight / (1.0 + epsilon_prime)
        weights_sorted = np.sort(sampler.node_weights)[::-1]
        weight_floor = float(weights_sorted[:k].sum())
        opt_lower = max(estimate, weight_floor, 1e-12)
    rr_counts["refinement"] = fresh_count

    lambda_value = weighted_lambda(graph.n, total_weight, k, epsilon, ell)
    theta = theta_from_kpt(lambda_value, opt_lower)
    theta, theta_capped = apply_theta_cap(theta, max_theta, "weighted_tim_plus()")

    with timer.phase("node_selection"):
        collection = sampler.sample_random_batch(theta, source)
        coverage = greedy_max_coverage(collection, graph.n, k)
    rr_counts["node_selection"] = theta

    return TIMResult(
        algorithm="WeightedTIM+",
        model=resolved.name,
        seeds=coverage.seeds,
        k=k,
        runtime_seconds=timer.total,
        estimated_spread=total_weight * coverage.fraction,
        phase_seconds=timer.as_dict(),
        extras={
            "total_weight": total_weight,
            "weight_floor": weight_floor,
            "theta_capped": theta_capped,
            "interim_seeds": interim.seeds,
        },
        epsilon=epsilon,
        ell=ell,
        ell_adjusted=ell,
        kpt_star=opt_lower,
        kpt_plus=opt_lower,
        lambda_value=lambda_value,
        theta=theta,
        rr_sets_per_phase=rr_counts,
        rr_collection_bytes=collection.nbytes(),
        theta_capped=theta_capped,
    )
