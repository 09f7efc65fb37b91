"""repro — TIM/TIM+ influence maximization (SIGMOD 2014), reproduced in full.

A production-quality Python implementation of Tang, Xiao & Shi,
*Influence Maximization: Near-Optimal Time Complexity Meets Practical
Efficiency* (SIGMOD 2014), together with every substrate and baseline its
evaluation depends on.

Quickstart::

    from repro import ExecutionPolicy, InfluenceSession, build_dataset

    graph = build_dataset("nethept").weighted_for("IC")
    with InfluenceSession(graph, "IC", policy=ExecutionPolicy(epsilon=0.2),
                          rng=0) as session:
        picked = session.select(50)
        print(picked.seeds, session.spread(picked.seeds))

(or the one-shot drivers: ``tim_plus(graph, k=50, epsilon=0.2, rng=0)``.)

Package map (README's *Layout* section lists every directory):

* :mod:`repro.graphs` — CSR digraph, builders, generators, weights, I/O;
* :mod:`repro.diffusion` — IC, LT and general triggering propagation;
* :mod:`repro.rrset` — reverse-reachable set sampling and max coverage;
* :mod:`repro.core` — Algorithms 1-3, TIM and TIM+;
* :mod:`repro.algorithms` — Greedy, CELF, CELF++, RIS, IRIE, SIMPATH, ...;
* :mod:`repro.api` — the unified typed surface: :class:`ExecutionPolicy`
  (one validated object for jobs/tracing/ε/ℓ),
  :class:`InfluenceSession` (graph + sketch + pool facade), and the
  versioned request/response ops behind the query service and CLI;
* :mod:`repro.analysis` — Chernoff bounds, exact oracles, cost models;
* :mod:`repro.datasets` — scaled stand-ins for the paper's five datasets;
* :mod:`repro.sketch` — persistent RR-sketch index + influence query service;
* :mod:`repro.parallel` — multicore sharded RR generation (the worker pool
  behind ``ExecutionPolicy.jobs``; byte-identical results for any count);
* :mod:`repro.dynamic` — evolving graphs: edge updates + incremental
  RR-sketch repair;
* :mod:`repro.experiments` — regeneration of every evaluation table/figure.
"""

from repro.algorithms import (
    algorithm_names,
    celf,
    celf_plus_plus,
    greedy,
    irie,
    maximize_influence,
    ris,
    simpath,
)
from repro.core import IMMResult, TIMResult, imm, tim, tim_plus, weighted_tim_plus
from repro.datasets import build_dataset, dataset_names
from repro.diffusion import (
    BoundedIndependentCascade,
    IndependentCascade,
    LinearThreshold,
    TriggeringModel,
    estimate_spread,
    simulate_ic,
    simulate_lt,
)
from repro.graphs import (
    DiGraph,
    GraphBuilder,
    from_edges,
    load_edge_list,
    uniform_random_lt,
    weighted_cascade,
)
from repro.rrset import (
    FlatRRCollection,
    RRSet,
    greedy_max_coverage,
    make_rr_sampler,
)
from repro.api import (
    SCHEMA_VERSION,
    ExecutionPolicy,
    InfluenceSession,
    MarginalRequest,
    SelectRequest,
    SpreadRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.dynamic import DynamicDiGraph, EdgeUpdate
from repro.parallel import ParallelSampler
from repro.sketch import InfluenceService, SketchIndex

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "algorithm_names",
    "celf",
    "celf_plus_plus",
    "greedy",
    "irie",
    "maximize_influence",
    "ris",
    "simpath",
    "IMMResult",
    "TIMResult",
    "imm",
    "tim",
    "tim_plus",
    "weighted_tim_plus",
    "build_dataset",
    "dataset_names",
    "BoundedIndependentCascade",
    "IndependentCascade",
    "LinearThreshold",
    "TriggeringModel",
    "estimate_spread",
    "simulate_ic",
    "simulate_lt",
    "DiGraph",
    "GraphBuilder",
    "from_edges",
    "load_edge_list",
    "uniform_random_lt",
    "weighted_cascade",
    "FlatRRCollection",
    "RRSet",
    "greedy_max_coverage",
    "make_rr_sampler",
    "DynamicDiGraph",
    "EdgeUpdate",
    "ExecutionPolicy",
    "InfluenceService",
    "InfluenceSession",
    "MarginalRequest",
    "ParallelSampler",
    "SCHEMA_VERSION",
    "SelectRequest",
    "SketchIndex",
    "SpreadRequest",
    "StatsRequest",
    "UpdateRequest",
]
