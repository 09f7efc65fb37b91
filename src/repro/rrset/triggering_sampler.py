"""RR-set sampling under an arbitrary triggering distribution (Section 4.2).

The paper's generalised construction: put the root's sampled triggering set
in a queue; for every dequeued node, sample *its* triggering set and enqueue
unvisited members; the RR set is everything visited.  IC and LT are special
cases, and the dedicated samplers agree in distribution with this one
(property-tested), but those exploit structure for speed.

A triggering distribution draws one node's set per call, so this sampler
has no vector form: its :meth:`TriggeringRRSampler.sample_batch` runs the
queue traversal root by root.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.rrset.base import RRSampler
from repro.rrset.flat_collection import FlatRRCollection
from repro.diffusion.triggering import TriggeringDistribution
from repro.utils.rng import resolve_rng

__all__ = ["TriggeringRRSampler"]


class TriggeringRRSampler(RRSampler):
    """Generic reverse traversal driven by a triggering distribution."""

    model_name = "triggering"

    def __init__(self, graph: DiGraph, distribution: TriggeringDistribution):
        super().__init__(graph)
        if distribution.graph is not graph:
            raise ValueError("distribution is bound to a different graph instance")
        distribution.validate()
        self.distribution = distribution
        # Lazy: the Python in-degree list width_of sums over.
        self._in_degrees: list[int] | None = None

    def sample_batch(self, roots, rng) -> FlatRRCollection:
        """One RR set per root, each grown by its own queue traversal.

        Members are stored in discovery order, root first, as the IC and LT
        batches store theirs.
        """
        source = resolve_rng(rng)
        distribution = self.distribution
        out = FlatRRCollection(self.graph.n, self.graph.m)
        for root in np.asarray(roots, dtype=np.int64).tolist():
            visited = {root}
            # The FIFO queue is this list: its head has been dequeued, so
            # it also holds the members in the order they were discovered.
            order = [root]
            head = 0
            examined = 0
            while head < len(order):
                triggering_set = distribution.sample(order[head], source)
                head += 1
                examined += len(triggering_set)
                for source_node in triggering_set:
                    if source_node not in visited:
                        visited.add(source_node)
                        order.append(source_node)
            out.append_arrays(
                root=root,
                members=np.asarray(order, dtype=np.int32),
                width=self.width_of(order),
                cost=len(order) + examined,
            )
        return out

    def width_of(self, nodes) -> int:
        """``w(R)`` = Σ in-degree over the members (Equation 1)."""
        if self._in_degrees is None:
            self._in_degrees = self.graph.in_degrees().tolist()
        in_degrees = self._in_degrees
        return sum(in_degrees[v] for v in nodes)
