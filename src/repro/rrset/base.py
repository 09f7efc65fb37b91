"""Reverse-reachable (RR) set sampling interface.

An RR set for node ``v`` (Definition 1) is the set of nodes that can reach
``v`` in a live-edge graph ``g`` sampled from the model's distribution ``G``;
a *random* RR set additionally draws ``v`` uniformly (Definition 2).

Samplers materialise RR sets without ever building ``g``: they run a
randomized reverse traversal that flips each coin exactly when the
corresponding edge would be examined — the paper's "randomized BFS on G"
(Section 3.1 for IC, Section 4.2 for the triggering generalisation).

Every sample reports two cost figures:

* ``width`` — ``w(R)``, the number of edges of ``G`` pointing into ``R``
  (Equation 1); drives ``κ(R)`` in Algorithm 2 and equals the coin-flip
  count of the IC sampler,
* ``cost`` — nodes plus edges *examined* while generating the set; this is
  the quantity Borgs et al.'s RIS thresholds on (Section 2.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.utils.rng import resolve_rng

if TYPE_CHECKING:
    from repro.rrset.flat_collection import FlatRRCollection

__all__ = ["RRSet", "RRSampler", "make_rr_sampler"]


@dataclass(frozen=True, slots=True)
class RRSet:
    """One sampled reverse-reachable set.

    ``trace`` is only populated for sets drawn by a sampler constructed
    with ``trace_edges=True``: the ids (positions in the graph's in-CSR
    arrays) of the *live* edges the generation examined — every successful
    coin for IC, the single chosen in-edge per visited node for LT.  It is the
    per-set dependency record that lets :mod:`repro.dynamic` invalidate
    precisely the sets an edge update could have changed.
    """

    root: int
    nodes: tuple[int, ...]
    width: int
    cost: int
    trace: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(self.nodes)


class RRSampler(ABC):
    """Model-specific random RR-set generator bound to one graph.

    :meth:`sample_batch` is each model's one sampling path; uniform random
    roots (Definition 2) come from :meth:`sample_random_batch`.
    """

    #: Display name of the diffusion model the sampler targets.
    model_name: str = "abstract"

    #: Whether samples record live-edge traces (overridden per instance by
    #: samplers that support the ``trace_edges`` constructor flag).
    trace_edges: bool = False

    def __init__(self, graph: DiGraph):
        self.graph = graph

    @abstractmethod
    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """Generate one RR set per root, returned as a flat collection.

        The :class:`~repro.rrset.flat_collection.FlatRRCollection` holds the
        sets in root order, which is what the algorithms consume.
        """

    def sample_random_batch(self, count: int, rng) -> FlatRRCollection:
        """``count`` random-root RR sets as a flat collection."""
        source = resolve_rng(rng)
        roots = source.np.integers(0, self.graph.n, size=int(count), dtype=np.int64)
        return self.sample_batch(roots, source)


def make_rr_sampler(graph: DiGraph, model, trace_edges: bool = False) -> RRSampler:
    """Build the right sampler for a diffusion model (instance or name).

    Dispatches on the resolved model type: IC and LT get their specialised
    samplers; :class:`~repro.diffusion.triggering.TriggeringModel` gets the
    generic triggering sampler driven by its distribution.  ``trace_edges``
    asks for live-edge traces on every sample (IC/LT only — the generic
    triggering sampler has no edge identity to record and raises).
    """
    from repro.diffusion.base import resolve_model
    from repro.diffusion.bounded import BoundedIndependentCascade
    from repro.diffusion.independent_cascade import IndependentCascade
    from repro.diffusion.linear_threshold import LinearThreshold
    from repro.diffusion.triggering import TriggeringModel
    from repro.rrset.ic_sampler import ICRRSampler
    from repro.rrset.lt_sampler import LTRRSampler
    from repro.rrset.triggering_sampler import TriggeringRRSampler

    resolved = resolve_model(model)
    resolved.validate_graph(graph)
    if isinstance(resolved, BoundedIndependentCascade):
        return ICRRSampler(graph, max_depth=resolved.max_steps, trace_edges=trace_edges)
    if isinstance(resolved, IndependentCascade):
        return ICRRSampler(graph, trace_edges=trace_edges)
    if isinstance(resolved, LinearThreshold):
        return LTRRSampler(graph, trace_edges=trace_edges)
    if trace_edges:
        raise ValueError(
            f"edge tracing is not supported for model {resolved!r}; "
            "only the IC and LT samplers record live-edge traces"
        )
    if isinstance(resolved, TriggeringModel):
        return TriggeringRRSampler(graph, resolved.distribution)
    raise TypeError(f"no RR sampler registered for model {resolved!r}")
