"""Scaled synthetic stand-ins for the paper's five datasets (Table 2).

The original crawls (NetHEPT … Twitter) are unavailable offline and far
beyond pure-Python scale, so each is replaced by a generator preserving the
structural properties the algorithms are sensitive to:

* graph *type* (directed vs undirected),
* Table 2's *average degree* (2m/n convention),
* heavy-tailed degree distributions (preferential attachment for the
  citation-style undirected networks, power-law out-degree with
  preferential in-degree for the follower-style directed ones),
* the *relative size ordering* NetHEPT < Epinions < DBLP < LiveJournal
  < Twitter.

Every dataset builds deterministically from a fixed per-name seed, so
experiment rows are reproducible run to run.  ``scale`` multiplies the node
count for users with more patience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.diffusion.base import resolve_model
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import powerlaw_out_digraph, preferential_attachment_graph
from repro.graphs.stats import GraphSummary, summarize
from repro.graphs.weights import uniform_random_lt, weighted_cascade
from repro.utils.validation import require

__all__ = ["DatasetSpec", "Dataset", "dataset_names", "dataset_spec", "build_dataset", "paper_table2"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one stand-in and its paper counterpart."""

    name: str
    paper_nodes: str
    paper_edges: str
    paper_avg_degree: float
    undirected: bool
    default_nodes: int
    seed: int
    builder: Callable[[int, int], DiGraph]

    def build_graph(self, scale: float = 1.0) -> DiGraph:
        require(scale > 0, "scale must be positive")
        n = max(16, int(round(self.default_nodes * scale)))
        return self.builder(n, self.seed)


@dataclass
class Dataset:
    """A materialised stand-in: topology plus per-model weighted views."""

    spec: DatasetSpec
    graph: DiGraph

    @property
    def name(self) -> str:
        return self.spec.name

    def weighted_for(self, model) -> DiGraph:
        """The graph with the paper's Section 7.1 weights for ``model``.

        IC → weighted cascade (p = 1/indeg); LT → uniform random in-weights
        normalised per node.  The LT draw is seeded from the dataset seed so
        the weighted view is deterministic too.
        """
        name = resolve_model(model).name if not isinstance(model, str) else model.upper()
        if name == "IC":
            return weighted_cascade(self.graph)
        if name == "LT":
            return uniform_random_lt(self.graph, rng=self.spec.seed + 1)
        raise ValueError(f"no standard weighting defined for model {name!r}")

    def summary(self) -> GraphSummary:
        return summarize(self.graph, self.spec.name, undirected=self.spec.undirected)

    def build_sketch(self, model="IC", **kwargs):
        """Build a :class:`~repro.sketch.index.SketchIndex` for this stand-in.

        Convenience for serving workflows: applies the Section 7.1 weighting
        for ``model`` and forwards ``kwargs`` (``theta`` or ``k``/``epsilon``
        /``ell``, ``rng``, ``jobs``) to :meth:`SketchIndex.build`.
        """
        from repro.sketch import SketchIndex

        return SketchIndex.build(self.weighted_for(model), model, **kwargs)


def _pa(edges_per_node: int) -> Callable[[int, int], DiGraph]:
    def build(n: int, seed: int) -> DiGraph:
        return preferential_attachment_graph(n, edges_per_node, rng=seed)

    return build


def _powerlaw(avg_out_degree: float, exponent: float) -> Callable[[int, int], DiGraph]:
    def build(n: int, seed: int) -> DiGraph:
        return powerlaw_out_digraph(n, avg_out_degree, exponent=exponent, rng=seed)

    return build


# Average degrees follow Table 2 (2m/n); for directed graphs the generator
# receives the average *out*-degree, i.e. half the table value.
_SPECS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("nethept", "15K", "31K", 4.1, True, 1_500, 101, _pa(2)),
        DatasetSpec("epinions", "76K", "509K", 13.4, False, 2_400, 102, _powerlaw(6.7, 2.2)),
        DatasetSpec("dblp", "655K", "2M", 6.1, True, 4_000, 103, _pa(3)),
        DatasetSpec("livejournal", "4.8M", "69M", 28.5, False, 6_000, 104, _powerlaw(14.25, 2.3)),
        DatasetSpec("twitter", "41.6M", "1.5G", 70.5, False, 8_000, 105, _powerlaw(35.25, 2.1)),
    )
}


def dataset_names() -> list[str]:
    """Stand-in names in the paper's size order."""
    return ["nethept", "epinions", "dblp", "livejournal", "twitter"]


def dataset_spec(name: str) -> DatasetSpec:
    """Spec lookup (KeyError-safe with a helpful message)."""
    key = name.lower()
    if key not in _SPECS:
        raise ValueError(f"unknown dataset {name!r}; known: {dataset_names()}")
    return _SPECS[key]


def build_dataset(name: str, scale: float = 1.0) -> Dataset:
    """Materialise a stand-in dataset at the given scale (deterministic)."""
    spec = dataset_spec(name)
    return Dataset(spec=spec, graph=spec.build_graph(scale))


def paper_table2() -> list[tuple[str, str, str, str, float]]:
    """The original Table 2 rows, for side-by-side reporting."""
    rows = []
    for name in dataset_names():
        spec = _SPECS[name]
        rows.append(
            (
                spec.name,
                spec.paper_nodes,
                spec.paper_edges,
                "undirected" if spec.undirected else "directed",
                spec.paper_avg_degree,
            )
        )
    return rows
