"""A worker-side stand-in for :class:`~repro.graphs.digraph.DiGraph`.

RR-set generation only ever walks *in*-edges (the reverse BFS of Section
3.1), so the parent broadcasts exactly the in-CSR triplet —
``in_ptr``/``in_idx``/``in_prob`` — plus ``n`` and ``m``.  This class wraps
the attached views with the slice of the ``DiGraph`` surface the samplers
touch: CSR attributes, ``in_degrees``, and edge-list views
(``src``/``dst``/``prob``) reconstructed from the in-CSR grouping so model
validators (e.g. ``validate_lt_weights``) run unchanged.

The arrays may be read-only (shared memory or memmap) — every sampler treats
the graph as immutable, so that is exactly right.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SharedGraph", "graph_payload"]

_GRAPH_ARRAYS = ("in_ptr", "in_idx", "in_prob")


def graph_payload(graph) -> dict[str, np.ndarray]:
    """The arrays a :class:`SharedGraph` needs, keyed for the transport."""
    return {name: getattr(graph, name) for name in _GRAPH_ARRAYS}


class SharedGraph:
    """In-CSR graph view reconstructed inside a worker process."""

    __slots__ = ("n", "m", "in_ptr", "in_idx", "in_prob")

    def __init__(self, num_nodes: int, in_ptr, in_idx, in_prob):
        self.n = int(num_nodes)
        self.m = int(in_idx.size)
        self.in_ptr = in_ptr
        self.in_idx = in_idx
        self.in_prob = in_prob

    @classmethod
    def from_arrays(cls, num_nodes: int, arrays: dict[str, np.ndarray]) -> "SharedGraph":
        return cls(num_nodes, arrays["in_ptr"], arrays["in_idx"], arrays["in_prob"])

    # -- DiGraph-compatible surface used by the samplers ----------------
    @property
    def num_nodes(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return self.m

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    def in_degree(self, v: int) -> int:
        return int(self.in_ptr[v + 1] - self.in_ptr[v])

    # -- edge-list views (validators iterate these, never mutate) -------
    @property
    def src(self) -> np.ndarray:
        """Edge sources in in-CSR order (grouped by destination)."""
        return self.in_idx

    @property
    def dst(self) -> np.ndarray:
        """Edge destinations in in-CSR order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.in_degrees())

    @property
    def prob(self) -> np.ndarray:
        """Edge probabilities in in-CSR order."""
        return self.in_prob

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedGraph(n={self.n}, m={self.m})"
