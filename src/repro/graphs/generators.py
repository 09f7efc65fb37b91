"""Synthetic graph generators.

Two roles:

* tiny deterministic fixtures (paths, stars, cliques, the paper's Figure 1
  example) used throughout the test suite, and
* random social-network generators (preferential attachment, power-law
  configuration, Watts-Strogatz, planted partition, forest fire) used by
  :mod:`repro.datasets` to build scaled stand-ins for the paper's five
  datasets.

All generators return unweighted graphs (``p = 1``); callers apply a scheme
from :mod:`repro.graphs.weights` afterwards, mirroring how the paper fixes
probabilities per model rather than per dataset.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.builder import GraphBuilder
from repro.graphs.digraph import DiGraph
from repro.utils.rng import resolve_rng
from repro.utils.validation import check_probability, check_positive_int, require

__all__ = [
    "path_digraph",
    "cycle_digraph",
    "star_digraph",
    "complete_digraph",
    "paper_figure1_graph",
    "gnp_random_digraph",
    "gnm_random_digraph",
    "preferential_attachment_graph",
    "powerlaw_out_digraph",
    "watts_strogatz_graph",
    "planted_partition_digraph",
    "forest_fire_digraph",
]


# ----------------------------------------------------------------------
# Deterministic fixtures
# ----------------------------------------------------------------------
def path_digraph(n: int, prob: float = 1.0) -> DiGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    check_positive_int(n, "n")
    builder = GraphBuilder(num_nodes=n)
    for u in range(n - 1):
        builder.add_edge(u, u + 1, prob)
    return builder.build()


def cycle_digraph(n: int, prob: float = 1.0) -> DiGraph:
    """Directed cycle on ``n >= 2`` nodes."""
    require(n >= 2, "cycle needs at least 2 nodes")
    builder = GraphBuilder(num_nodes=n)
    for u in range(n):
        builder.add_edge(u, (u + 1) % n, prob)
    return builder.build()


def star_digraph(n: int, prob: float = 1.0, outward: bool = True) -> DiGraph:
    """Star with hub 0; ``outward`` points hub -> leaves, else leaves -> hub."""
    require(n >= 2, "star needs at least 2 nodes")
    builder = GraphBuilder(num_nodes=n)
    for leaf in range(1, n):
        if outward:
            builder.add_edge(0, leaf, prob)
        else:
            builder.add_edge(leaf, 0, prob)
    return builder.build()


def complete_digraph(n: int, prob: float = 1.0) -> DiGraph:
    """All ``n(n-1)`` directed edges."""
    check_positive_int(n, "n")
    builder = GraphBuilder(num_nodes=n)
    for u in range(n):
        for v in range(n):
            if u != v:
                builder.add_edge(u, v, prob)
    return builder.build()


def paper_figure1_graph() -> DiGraph:
    """The four-node example of the paper's Figure 1.

    Nodes 0..3 stand for v1..v4.  Edges: v2->v1 (0.01), v2->v4 (0.01),
    v4->v1 (1.0), v3->v2 (0.01), v1->v3 (0.01) — exactly the five arrows
    drawn in the figure with their printed probabilities.
    """
    builder = GraphBuilder(num_nodes=4)
    builder.add_edge(1, 0, 0.01)
    builder.add_edge(1, 3, 0.01)
    builder.add_edge(3, 0, 1.0)
    builder.add_edge(2, 1, 0.01)
    builder.add_edge(0, 2, 0.01)
    return builder.build()


# ----------------------------------------------------------------------
# Random generators
# ----------------------------------------------------------------------
def gnp_random_digraph(n: int, p: float, rng=None) -> DiGraph:
    """Erdős–Rényi G(n, p) digraph (no self-loops)."""
    check_positive_int(n, "n")
    check_probability(p, "p")
    source = resolve_rng(rng)
    expected = p * n * (n - 1)
    if expected > 5_000_000:
        raise ValueError("G(n, p) request too large; use gnm_random_digraph")
    mask = source.np.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DiGraph(n, src, dst)


def gnm_random_digraph(n: int, m: int, rng=None) -> DiGraph:
    """Uniform digraph with exactly ``m`` distinct non-loop edges."""
    check_positive_int(n, "n")
    require(m >= 0, "m must be non-negative")
    max_edges = n * (n - 1)
    require(m <= max_edges, f"m={m} exceeds the {max_edges} possible edges")
    source = resolve_rng(rng)
    chosen: np.ndarray = np.empty(0, dtype=np.int64)
    # Rejection sampling on edge codes in [0, n(n-1)); each round keeps the
    # distinct codes found so far, so this terminates quickly for m << n^2.
    while chosen.size < m:
        need = m - chosen.size
        draw = source.np.integers(0, max_edges, size=int(need * 1.2) + 8)
        chosen = np.unique(np.concatenate([chosen, draw]))
        if chosen.size > m:
            chosen = source.np.permutation(chosen)[:m]
            chosen = np.unique(chosen)  # re-sort for determinism
    src = chosen // (n - 1)
    rem = chosen % (n - 1)
    dst = np.where(rem < src, rem, rem + 1)
    return DiGraph(n, src, dst)


def preferential_attachment_graph(
    n: int, edges_per_node: int, rng=None, directed: bool = False
) -> DiGraph:
    """Barabási–Albert preferential attachment.

    Grows from a seed clique of ``edges_per_node + 1`` nodes; each new node
    attaches to ``edges_per_node`` distinct existing nodes chosen with
    probability proportional to degree.  With ``directed=False`` (the
    default, matching citation-style datasets such as NetHEPT and DBLP) each
    attachment contributes both edge directions; with ``directed=True`` the
    new node points at its targets only.
    """
    check_positive_int(n, "n")
    check_positive_int(edges_per_node, "edges_per_node")
    require(n > edges_per_node, "n must exceed edges_per_node")
    source = resolve_rng(rng)
    builder = GraphBuilder(num_nodes=n, deduplicate="first")
    # Repeated-nodes trick: each endpoint occurrence is one lottery ticket.
    repeated: list[int] = []
    seed_size = edges_per_node + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            builder.add_undirected_edge(u, v)
            repeated.extend((u, v))
    for new_node in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < edges_per_node:
            targets.add(repeated[source.randrange(len(repeated))])
        for target in targets:
            if directed:
                builder.add_edge(new_node, target)
            else:
                builder.add_undirected_edge(new_node, target)
            repeated.extend((new_node, target))
    return builder.build()


def powerlaw_out_digraph(
    n: int,
    average_degree: float,
    exponent: float = 2.5,
    rng=None,
    max_degree: int | None = None,
) -> DiGraph:
    """Directed configuration-style graph with power-law out-degrees.

    Out-degrees are drawn from a truncated zeta distribution with the given
    ``exponent`` and rescaled so the realised mean approximates
    ``average_degree``; targets are chosen preferentially (by current
    in-degree plus one) so in-degrees are also heavy-tailed, as in real
    follower graphs such as Twitter's.
    """
    check_positive_int(n, "n")
    require(average_degree > 0, "average_degree must be positive")
    require(exponent > 1.0, "exponent must exceed 1")
    source = resolve_rng(rng)
    if max_degree is None:
        max_degree = max(4, int(np.sqrt(n) * 4))
    max_degree = min(max_degree, n - 1)

    support = np.arange(1, max_degree + 1, dtype=np.float64)
    pmf = support ** (-exponent)
    pmf /= pmf.sum()
    mean = float((support * pmf).sum())
    degrees = source.np.choice(np.arange(1, max_degree + 1), size=n, p=pmf)
    scale = average_degree / mean
    degrees = np.maximum(1, np.round(degrees * scale).astype(np.int64))
    degrees = np.minimum(degrees, n - 1)

    # Preferential target selection via one shared ticket list.
    tickets = list(range(n))  # every node starts with one ticket
    src_list: list[int] = []
    dst_list: list[int] = []
    for u in source.np.permutation(n).tolist():
        wanted = int(degrees[u])
        targets: set[int] = set()
        attempts = 0
        while len(targets) < wanted and attempts < wanted * 20:
            candidate = tickets[source.randrange(len(tickets))]
            attempts += 1
            if candidate != u:
                targets.add(candidate)
        for v in targets:
            src_list.append(u)
            dst_list.append(v)
            tickets.append(v)
    return DiGraph(n, np.asarray(src_list), np.asarray(dst_list))


def watts_strogatz_graph(n: int, lattice_degree: int, beta: float, rng=None) -> DiGraph:
    """Watts–Strogatz small world (undirected; both edge directions stored)."""
    check_positive_int(n, "n")
    require(lattice_degree % 2 == 0, "lattice_degree must be even")
    require(0 < lattice_degree < n, "need 0 < lattice_degree < n")
    check_probability(beta, "beta")
    source = resolve_rng(rng)
    edges: set[tuple[int, int]] = set()
    half = lattice_degree // 2
    for u in range(n):
        for offset in range(1, half + 1):
            v = (u + offset) % n
            if source.random() < beta:
                while True:
                    w = source.randrange(n)
                    key = (min(u, w), max(u, w))
                    if w != u and key not in edges:
                        edges.add(key)
                        break
            else:
                edges.add((min(u, v), max(u, v)))
    builder = GraphBuilder(num_nodes=n, deduplicate="first")
    for u, v in sorted(edges):
        builder.add_undirected_edge(u, v)
    return builder.build()


def planted_partition_digraph(
    n: int, num_communities: int, p_in: float, p_out: float, rng=None
) -> DiGraph:
    """Planted-partition digraph: dense blocks, sparse cross edges.

    Used to exercise community-structure workloads (the motivation behind
    community-based heuristics such as Wang et al. [31]).
    """
    check_positive_int(n, "n")
    check_positive_int(num_communities, "num_communities")
    require(num_communities <= n, "more communities than nodes")
    check_probability(p_in, "p_in")
    check_probability(p_out, "p_out")
    source = resolve_rng(rng)
    membership = np.arange(n) % num_communities
    same = membership[:, None] == membership[None, :]
    draws = source.np.random((n, n))
    mask = np.where(same, draws < p_in, draws < p_out)
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DiGraph(n, src, dst)


def forest_fire_digraph(n: int, forward_prob: float = 0.35, rng=None) -> DiGraph:
    """Leskovec's forest-fire model (simplified, forward burning only).

    Produces the shrinking-diameter, heavy-tailed structure typical of real
    social graphs; each arriving node links to an ambassador and recursively
    "burns" a geometric number of the ambassador's out-neighbours.
    """
    check_positive_int(n, "n")
    check_probability(forward_prob, "forward_prob")
    source = resolve_rng(rng)
    out_lists: list[list[int]] = [[] for _ in range(n)]
    src_list: list[int] = []
    dst_list: list[int] = []

    def link(u: int, v: int) -> None:
        out_lists[u].append(v)
        src_list.append(u)
        dst_list.append(v)

    for new_node in range(1, n):
        ambassador = source.randrange(new_node)
        visited = {ambassador}
        frontier = [ambassador]
        link(new_node, ambassador)
        while frontier:
            current = frontier.pop()
            burn_count = 0
            # Geometric(1 - forward_prob) number of neighbours to burn.
            while source.random() < forward_prob:
                burn_count += 1
            candidates = [w for w in out_lists[current] if w not in visited]
            source.py.shuffle(candidates)
            for w in candidates[:burn_count]:
                visited.add(w)
                link(new_node, w)
                frontier.append(w)
    return DiGraph(n, np.asarray(src_list), np.asarray(dst_list))
