"""Benchmark inputs, generated from the workload seed before any timing starts.

Every input is a pure function of ``(sizes, seed)``: the weighted-cascade
graph, the solver RNG seeds, the read-request stream and the edge-update
stream.  :func:`digest` gives each one a sha256 so runs on two commits can
prove they used identical inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.graphs import generators, weights

#: Seed of the independent evaluation sketch that scores solver seeds.  It
#: is fixed, not derived from the workload seed, so every run scores on a
#: sketch drawn the same way.
EVAL_SEED = 20_140_622

#: Requests per block of the read stream; every block has the same mix.
READ_BLOCK = 100


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; :data:`FULL` is the benchmark, tests use smaller ones."""

    n: int = 20_000
    m: int = 200_000
    k: int = 10
    imm_epsilon: float = 0.1
    tim_epsilon: float = 0.3
    tim_jobs: int = 2
    serve_theta: int = 50_000
    eval_theta: int = 50_000
    #: Identical set-ups per run; ``setup_s`` is their median.
    solve_setups: int = 7
    serve_setups: int = 3
    #: A serve run lasts ``--seconds`` and at least this many requests, so
    #: p99 has ten samples beyond it (nearest rank).
    min_requests: int = 1000
    #: Fixed work of one traced round (untraced and traced alike).
    trace_requests: int = 1000
    trace_rounds: int = 48
    #: Pre-generated stream lengths; the read loop cycles its stream.
    read_stream: int = 20_000
    update_rounds: int = 600
    #: Distinct include/exclude selects; their k values are fixed, so the
    #: constrained latency mode has the same shape on every seed.
    constrained_pool: int = 16
    max_select_k: int = 50


FULL = Sizes()


def build_graph(sizes: Sizes, seed: int) -> Any:
    """The ROADMAP graph: G(n, m) uniform digraph with weighted-cascade weights."""
    return weights.weighted_cascade(
        generators.gnm_random_digraph(sizes.n, sizes.m, rng=seed))


def graph_digest(graph: Any) -> str:
    """sha256 over the node count and the edge arrays with their probabilities."""
    h = hashlib.sha256()
    h.update(str(graph.n).encode())
    for array in (graph.src, graph.dst, graph.prob):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def digest(value: Any) -> str:
    """sha256 of a JSON-serialisable input in canonical form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solver_seed(seed: int) -> int:
    """RNG seed of ``imm``/``tim_plus``, the serve sketch build and the service's repairs."""
    return 1_000_003 * int(seed) + 17


def _distinct_nodes(gen: np.random.Generator, n: int, count: int) -> list[int]:
    return sorted(int(v) for v in gen.choice(n, size=count, replace=False))


def read_stream(sizes: Sizes, seed: int) -> list[dict[str, Any]]:
    """Wire requests for ``serve_read``, in blocks of 100 with a fixed mix.

    Each block holds exactly 60 ``spread``, 25 plain ``select`` (k in
    1..max_select_k), 12 ``marginal_gain`` and 3 constrained ``select``
    requests, shuffled.  The fixed mix keeps ``qps`` and ``p99_ms`` from
    moving with the share of constrained requests a seed happens to draw;
    3% constrained puts p99 inside the constrained-select latency mode.
    """
    gen = np.random.default_rng([int(seed), 1])
    n, top_k = sizes.n, sizes.max_select_k
    pool = []
    for j in range(sizes.constrained_pool):
        k = 1 + (top_k - 1) * j // max(1, sizes.constrained_pool - 1)
        nodes = _distinct_nodes(gen, n, 5)
        include = nodes[: min(k, 1 + j % 2)]
        exclude = nodes[2 : 3 + j % 3]
        pool.append({"op": "select", "k": k, "include": include, "exclude": exclude})
    gen.shuffle(pool)
    kinds = np.array(["spread"] * 60 + ["select"] * 25 + ["marginal"] * 12 + ["constrained"] * 3)
    requests: list[dict[str, Any]] = []
    constrained = 0
    while len(requests) < sizes.read_stream:
        for kind in gen.permutation(kinds):
            if kind == "spread":
                seeds = _distinct_nodes(gen, n, int(gen.integers(1, 21)))
                requests.append({"op": "spread", "seeds": seeds})
            elif kind == "select":
                requests.append({"op": "select", "k": int(gen.integers(1, top_k + 1))})
            elif kind == "marginal":
                nodes = _distinct_nodes(gen, n, int(gen.integers(2, 12)))
                requests.append({"op": "marginal_gain", "seeds": nodes[1:],
                                 "candidate": nodes[0]})
            else:
                requests.append(dict(pool[constrained % len(pool)]))
                constrained += 1
    return requests[: sizes.read_stream]


def update_stream(sizes: Sizes, graph: Any, seed: int) -> list[list[dict[str, Any]]]:
    """Rounds for ``serve_update``: one edge update, one select, 19 spreads.

    Updates cycle delete, reweight, insert and are valid in any order by
    construction: deletes and reweights target disjoint sets of existing
    edges, and inserts target distinct pairs absent from the graph.
    """
    gen = np.random.default_rng([int(seed), 2])
    n, rounds = graph.n, sizes.update_rounds
    per_kind = -(-rounds // 3)
    edge_ids = gen.choice(graph.m, size=2 * per_kind, replace=False)
    deletes, reweights = edge_ids[:per_kind], edge_ids[per_kind:]
    existing = set((graph.src * n + graph.dst).tolist())
    in_degree = np.bincount(graph.dst, minlength=n)
    inserts: list[tuple[int, int]] = []
    while len(inserts) < per_kind:
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u != v and u * n + v not in existing:
            existing.add(u * n + v)
            inserts.append((u, v))
    stream = []
    for i in range(rounds):
        slot = i // 3
        if i % 3 == 0:
            e = int(deletes[slot])
            update = {"op": "update", "action": "delete",
                      "u": int(graph.src[e]), "v": int(graph.dst[e])}
        elif i % 3 == 1:
            e = int(reweights[slot])
            update = {"op": "update", "action": "reweight", "u": int(graph.src[e]),
                      "v": int(graph.dst[e]), "p": float(graph.prob[e]) / 2.0}
        else:
            u, v = inserts[slot]
            update = {"op": "update", "action": "insert", "u": u, "v": v,
                      "p": 1.0 / (int(in_degree[v]) + 1)}
        reads = [{"op": "select", "k": sizes.k}]
        reads += [{"op": "spread", "seeds": _distinct_nodes(gen, n, int(gen.integers(1, 21)))}
                  for _ in range(19)]
        stream.append([update] + reads)
    return stream
