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

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.utils.rng import RandomSource, resolve_rng

__all__ = ["RRSet", "RRSampler", "make_rr_sampler"]


@dataclass(frozen=True, slots=True)
class RRSet:
    """One sampled reverse-reachable set.

    ``trace`` is only populated by samplers constructed with
    ``trace_edges=True``: the ids (positions in the graph's in-CSR arrays)
    of the *live* edges the generation examined — every successful coin for
    IC, the single chosen in-edge per visited node for LT.  It is the
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
    """Model-specific random RR-set generator bound to one graph."""

    #: Display name of the diffusion model the sampler targets.
    model_name: str = "abstract"

    #: Whether samples record live-edge traces (overridden per instance by
    #: samplers that support the ``trace_edges`` constructor flag).
    trace_edges: bool = False

    #: Sampler classes that already warned about lacking a vectorized batch
    #: path (one warning per class per process, not one per call).
    _batch_fallback_warned: set[str] = set()

    def __init__(self, graph: DiGraph):
        self.graph = graph
        # Lazy: only the scalar width_of path reads the Python list; pool
        # workers driving the vectorised batch path never build it.
        self._in_degrees: list[int] | None = None

    @abstractmethod
    def sample_rooted(self, root: int, rng: RandomSource) -> RRSet:
        """Generate an RR set for the given root node."""

    def sample(self, rng) -> RRSet:
        """Generate a random RR set: uniform random root, fresh live world."""
        source = resolve_rng(rng)
        root = source.randrange(self.graph.n)
        return self.sample_rooted(root, source)

    def sample_many(self, count: int, rng) -> list[RRSet]:
        """Generate ``count`` independent random RR sets via :meth:`sample`.

        Going through :meth:`sample` keeps a subclass's root law (e.g.
        weighted roots) instead of re-drawing uniform roots here.
        """
        source = resolve_rng(rng)
        return [self.sample(source) for _ in range(count)]

    def sample_batch(self, roots, rng):
        """Generate one RR set per root, returned as a flat collection.

        The base implementation loops :meth:`sample_rooted` (Python speed);
        vectorised samplers override it with numpy-batched expansion.  Either
        way the result is a :class:`~repro.rrset.flat_collection
        .FlatRRCollection` holding the sets in root order, which is what the
        algorithms consume.

        Falling back here is a speed degradation, not a correctness
        problem, so it is announced exactly once per sampler class instead
        of silently running orders of magnitude slower.
        """
        from repro.rrset.flat_collection import FlatRRCollection

        cls_name = type(self).__name__
        if cls_name not in RRSampler._batch_fallback_warned:
            RRSampler._batch_fallback_warned.add(cls_name)
            warnings.warn(
                f"{cls_name} has no vectorized sample_batch; falling back to "
                "the per-root Python sampling path (slow, single-core). "
                "Distribution is unchanged.",
                RuntimeWarning,
                stacklevel=2,
            )
        source = resolve_rng(rng)
        out = FlatRRCollection(self.graph.n, self.graph.m, track_traces=self.trace_edges)
        for root in roots:
            out.append(self.sample_rooted(int(root), source))
        return out

    def sample_random_batch(self, count: int, rng):
        """``count`` random-root RR sets as a flat collection."""
        source = resolve_rng(rng)
        roots = source.np.integers(0, self.graph.n, size=int(count), dtype=np.int64)
        return self.sample_batch(roots, source)

    def width_of(self, nodes) -> int:
        """``w(R)`` = Σ in-degree over the members (Equation 1)."""
        if self._in_degrees is None:
            self._in_degrees = self.graph.in_degrees().tolist()
        in_degrees = self._in_degrees
        return sum(in_degrees[v] for v in nodes)


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
