"""Plain per-root RR-set generators: the test oracle for ``sample_batch``.

Independent implementations of the paper's two reverse traversals, one RR
set per call over Python adjacency lists, so the batched numpy samplers in
:mod:`repro.rrset` can be checked against code that shares none of their
wave, bitmap or commit machinery:

* :func:`ic_rr_set` — Section 3.1's randomized reverse BFS: flip every
  in-edge coin of a dequeued node and enqueue the unvisited source on
  success.  The queue is FIFO with explicit depths, so under ``max_depth``
  a node joins exactly when some live path of length ``<= max_depth``
  reaches the root;
* :func:`lt_rr_set` — Section 4.2's reverse random walk: hop to one
  in-neighbour picked with probability equal to the edge weight, and stop
  on the "no neighbour" mass or on a revisit.

Both follow the library's conventions: members in discovery order, root
first; ``width`` = Σ in-degree over the expanded members (Equation 1);
``cost`` = members + width for IC and twice the members for LT (one draw
per member); ``trace`` = the in-CSR ids of the live edges (every successful
coin for IC, every pick for LT).
"""

from collections import deque

import numpy as np
import pytest

from repro.rrset import FlatRRCollection, RRSet
from repro.utils.rng import RandomSource


def ic_rr_set(graph, root, rng, max_depth=None):
    """One IC RR set for ``root`` by per-edge coin flips."""
    in_adj, in_probs = graph.in_adjacency()
    in_ptr = graph.in_ptr.tolist()
    random01 = rng.py.random
    visited = {root}
    order = [root]
    trace = []
    width = 0
    queue = deque([(root, 0)])
    while queue:
        node, depth = queue.popleft()
        if max_depth is not None and depth >= max_depth:
            continue
        width += len(in_adj[node])
        for index, (source, prob) in enumerate(zip(in_adj[node], in_probs[node])):
            if random01() < prob:
                trace.append(in_ptr[node] + index)
                if source not in visited:
                    visited.add(source)
                    order.append(source)
                    queue.append((source, depth + 1))
    return RRSet(root=root, nodes=tuple(order), width=width,
                 cost=len(order) + width, trace=tuple(trace))


def lt_rr_set(graph, root, rng):
    """One LT RR set for ``root`` by a reverse random walk."""
    in_adj, in_weights = graph.in_adjacency()
    in_ptr = graph.in_ptr.tolist()
    random01 = rng.py.random
    visited = {root}
    order = [root]
    trace = []
    node = root
    while in_adj[node]:
        draw = random01()
        cumulative = 0.0
        for index, weight in enumerate(in_weights[node]):
            cumulative += weight
            if draw < cumulative:
                break
        else:
            break  # the draw fell in the "no live in-edge" mass
        trace.append(in_ptr[node] + index)
        parent = in_adj[node][index]
        if parent in visited:
            break
        visited.add(parent)
        order.append(parent)
        node = parent
    width = sum(len(in_adj[v]) for v in order)
    return RRSet(root=root, nodes=tuple(order), width=width,
                 cost=2 * len(order), trace=tuple(trace))


def oracle_batch(graph, model, count, seed, max_depth=None, roots=None):
    """``count`` oracle RR sets as a traced flat collection.

    Roots are drawn uniformly, or taken from ``roots`` (one set each).
    """
    rng = RandomSource(seed)
    collection = FlatRRCollection(graph.n, graph.m, track_traces=True)
    for index in range(count):
        root = rng.randrange(graph.n) if roots is None else int(roots[index])
        if model == "IC":
            collection.append(ic_rr_set(graph, root, rng, max_depth=max_depth))
        else:
            collection.append(lt_rr_set(graph, root, rng))
    return collection


def assert_same_inclusion(batch, oracle, floor):
    """Per-node inclusion rates within 5σ plus ``floor``."""
    count = len(oracle)
    expected = oracle.node_frequency_array() / count
    observed = batch.node_frequency_array() / len(batch)
    # Binomial standard error per node is sqrt(p(1-p)/N); the floor covers
    # the rarely-included nodes.
    sigma = np.sqrt(np.maximum(expected * (1 - expected), 1e-4) / count)
    assert np.all(np.abs(observed - expected) < 5 * sigma + floor)


def assert_same_distribution(batch, oracle, floor):
    """Per-node inclusion within 5σ plus ``floor``; mean size and width within 5%."""
    assert_same_inclusion(batch, oracle, floor)
    assert batch.set_sizes().mean() == pytest.approx(oracle.set_sizes().mean(), rel=0.05)
    assert batch.widths_array.mean() == pytest.approx(oracle.widths_array.mean(), rel=0.05)


def assert_same_means(observed, expected, z=5.0):
    """Two samples' means within ``z`` standard errors of their difference.

    For heavy-tailed per-set figures (sets through a hub, live cascades),
    whose sampling noise can exceed a fixed relative band.
    """
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    error = np.sqrt(observed.var() / observed.size + expected.var() / expected.size)
    assert abs(observed.mean() - expected.mean()) <= z * error + 1e-12, (
        observed.mean(), expected.mean(), error)
