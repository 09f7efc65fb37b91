"""Single-edge-update repair vs cold rebuild (the repro.dynamic claim).

The dynamic subsystem's reason to exist, measured on the n=20k / m=200k
weighted-cascade graph the sampler benchmarks use:

* **rebuild** — ``SketchIndex.build`` from scratch on the post-update graph
  at the same θ (what a static system pays per edge update);
* **repair**  — ``SketchIndex.apply_update``: trace-aware invalidation plus
  resampling of only the affected RR sets.

For each probed update (a delete, an insert, and a reweight on sampled
edges) the script measures both paths and checks three acceptance bars:

* repair must be at least ``--min-speedup`` times faster than the rebuild
  (10x by default),
* the warm ``select(k)`` spread of the repaired index's seeds must sit
  within ``--max-spread-drift`` (1%) of the rebuilt index's seeds, with
  both seed sets scored by one independent, larger *evaluation sketch*
  (``--eval-factor`` × θ, fresh seed) built on the post-update graph, and
* the repaired index's warm ``select(k)`` — answered from postings patched
  in place by the repair — must equal ``greedy_max_coverage`` run from
  scratch on the repaired collection (same seeds, covered count and
  gains), and every node's ``coverage_count`` must equal its frequency in
  the repaired collection.

The paired evaluator and the median are the honest way to read the 1% bar:

* Each index's *own* spread estimate carries ~1/√θ Monte-Carlo noise
  (≈1.5–2% at θ = 50k on this graph), so any raw comparison of two
  estimators bakes in noise no repair strategy could beat; scoring both
  seed sets on one shared independent sketch cancels it and isolates
  selection quality.
* Even then, greedy over 20k near-tied candidates occasionally flips to a
  set whose true spread differs by a few percent — *between two cold
  rebuilds* the same paired measurement shows 2–4% gaps (the script
  measures this null in-run and reports it).  Those tail flips are a
  property of TIM at practical θ, not of repair, so the drift bar is
  enforced on the **median across the probed updates** and the per-probe
  maximum is reported alongside the cold-rebuild null for context.

Run ``python benchmarks/bench_dynamic.py`` (full size) or ``--smoke``
(CI-sized); ``--json-out`` records the summary (the repo keeps one under
``benchmarks/results/``).  Exits non-zero when a bar is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset.coverage import greedy_max_coverage
from repro.sketch import SketchIndex


def _time(fn) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def probe_updates(graph, rng: np.random.Generator, count: int) -> list[tuple]:
    """A mix of update kinds over edges sampled from the graph."""
    updates = []
    kinds = ["delete", "reweight", "insert"]
    for i in range(count):
        kind = kinds[i % len(kinds)]
        edge = int(rng.integers(0, graph.m))
        u, v = int(graph.src[edge]), int(graph.dst[edge])
        if kind == "delete":
            updates.append(("delete", u, v, None))
        elif kind == "reweight":
            updates.append(("reweight", u, v, min(1.0, float(graph.prob[edge]) * 2.0)))
        else:
            a, b = (int(x) for x in rng.integers(0, graph.n, size=2))
            updates.append(("insert", a, b if b != a else (b + 1) % graph.n, 0.1))
    return updates


def bench_updates(graph, theta: int, seed: int, k: int, updates,
                  eval_factor: int) -> list[dict]:
    rows = []
    for kind, u, v, p in updates:
        # Fresh index per probe so every repair starts from the same state.
        index = SketchIndex.build(graph, "IC", theta=theta, rng=seed, trace_edges=True)
        index.select(k)  # postings + selection state warm, as in serving
        dynamic = DynamicDiGraph(graph)
        if kind == "delete":
            delta = dynamic.delete_edge(u, v)
        elif kind == "reweight":
            delta = dynamic.reweight_edge(u, v, p)
        else:
            delta = dynamic.insert_edge(u, v, p)

        repair_seconds, report = _time(lambda: index.apply_update(delta, rng=seed + 1))
        repaired_select_seconds, repaired_result = _time(lambda: index.select(k))
        reference = greedy_max_coverage(index.collection, index.num_nodes, k)
        select_identical = (repaired_result.seeds == reference.seeds
                            and repaired_result.covered == reference.covered
                            and repaired_result.marginal_gains == reference.marginal_gains)
        counts = [index.coverage_count([v]) for v in range(index.num_nodes)]
        counts_identical = counts == index.collection.node_frequencies()

        rebuild_seconds, rebuilt = _time(
            lambda: SketchIndex.build(dynamic.graph, "IC", theta=theta,
                                      rng=seed, trace_edges=True)
        )
        rebuilt_result = rebuilt.select(k)

        # Paired evaluation on one independent, larger sketch (see module
        # docstring): same evaluator, both seed sets, fresh seed.  The
        # cold-rebuild null — a second rebuild under a different seed,
        # scored the same way — calibrates how much drift selection noise
        # alone produces.
        evaluator = SketchIndex.build(dynamic.graph, "IC", theta=eval_factor * theta,
                                      rng=seed + 1_000_003)
        spread_repaired = evaluator.spread(repaired_result.seeds)
        spread_rebuilt = evaluator.spread(rebuilt_result.seeds)
        drift = abs(spread_repaired - spread_rebuilt) / max(spread_rebuilt, 1e-12)
        null_index = SketchIndex.build(dynamic.graph, "IC", theta=theta, rng=seed + 17)
        spread_null = evaluator.spread(null_index.select(k).seeds)
        null_drift = abs(spread_null - spread_rebuilt) / max(spread_rebuilt, 1e-12)
        null_index.close()
        evaluator.close()
        rows.append({
            "op": kind,
            "u": u,
            "v": v,
            "theta": theta,
            "affected": report.num_affected,
            "affected_fraction": report.affected_fraction,
            "repair_seconds": repair_seconds,
            "repaired_select_seconds": repaired_select_seconds,
            "select_identical": select_identical,
            "counts_identical": counts_identical,
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / max(repair_seconds, 1e-12),
            "spread_repaired": spread_repaired,
            "spread_rebuilt": spread_rebuilt,
            "spread_drift": drift,
            "null_drift": null_drift,
        })
        index.close()
        rebuilt.close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=20_000)
    parser.add_argument("--edges", type=int, default=200_000)
    parser.add_argument("--theta", type=int, default=50_000)
    parser.add_argument("--updates", type=int, default=6, help="probed edge updates")
    parser.add_argument("-k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail below this repair-vs-rebuild speedup")
    parser.add_argument("--max-spread-drift", type=float, default=0.01,
                        help="fail when |spread_repaired - spread_rebuilt| "
                             "exceeds this fraction of the rebuilt spread "
                             "(both scored by the shared evaluation sketch)")
    parser.add_argument("--eval-factor", type=int, default=4,
                        help="evaluation sketch size as a multiple of theta")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (smaller graph and theta, same bars)")
    parser.add_argument("--json-out", default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes, args.edges = 5_000, 50_000
        args.theta = 20_000
        args.updates = 3

    graph = weighted_cascade(gnm_random_digraph(args.nodes, args.edges, rng=args.seed))
    rng = np.random.default_rng(args.seed)
    updates = probe_updates(graph, rng, args.updates)

    print(f"graph: n={graph.n} m={graph.m} (weighted cascade), theta={args.theta}, "
          f"evaluator theta={args.eval_factor * args.theta}")
    rows = bench_updates(graph, args.theta, args.seed, args.k, updates,
                         args.eval_factor)
    for row in rows:
        print(
            f"{row['op']:8s} {row['u']}->{row['v']}: "
            f"repair {1000 * row['repair_seconds']:8.1f}ms "
            f"({row['affected']}/{args.theta} sets, "
            f"{100 * row['affected_fraction']:.2f}%) | "
            f"rebuild {1000 * row['rebuild_seconds']:8.1f}ms | "
            f"speedup {row['speedup']:6.1f}x | "
            f"select after repair {1000 * row['repaired_select_seconds']:6.1f}ms "
            f"({'identical' if row['select_identical'] else 'MISMATCH'}, node counts "
            f"{'identical' if row['counts_identical'] else 'MISMATCH'}) | "
            f"spread drift {100 * row['spread_drift']:.3f}% "
            f"(cold-rebuild null {100 * row['null_drift']:.3f}%)"
        )

    speedups = [row["speedup"] for row in rows]
    drifts = [row["spread_drift"] for row in rows]
    nulls = [row["null_drift"] for row in rows]
    mismatches = sum(1 for row in rows
                     if not (row["select_identical"] and row["counts_identical"]))
    summary = {
        "nodes": graph.n,
        "edges": graph.m,
        "theta": args.theta,
        "k": args.k,
        "seed": args.seed,
        "min_speedup_bar": args.min_speedup,
        "max_spread_drift_bar": args.max_spread_drift,
        "median_speedup": statistics.median(speedups),
        "min_speedup": min(speedups),
        "median_spread_drift": statistics.median(drifts),
        "max_spread_drift": max(drifts),
        "median_null_drift": statistics.median(nulls),
        "max_null_drift": max(nulls),
        "median_repaired_select_seconds": statistics.median(
            row["repaired_select_seconds"] for row in rows),
        "select_mismatches": mismatches,
        "rows": rows,
    }
    print(
        f"median speedup {summary['median_speedup']:.1f}x "
        f"(min {summary['min_speedup']:.1f}x, bar {args.min_speedup:.0f}x) | "
        f"median spread drift {100 * summary['median_spread_drift']:.3f}% "
        f"(bar {100 * args.max_spread_drift:.0f}%, "
        f"max {100 * summary['max_spread_drift']:.3f}%, "
        f"cold-rebuild null median {100 * summary['median_null_drift']:.3f}%)"
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json_out}")

    failed = False
    if summary["min_speedup"] < args.min_speedup:
        print(f"FAIL: repair speedup {summary['min_speedup']:.1f}x "
              f"below the {args.min_speedup:.0f}x bar", file=sys.stderr)
        failed = True
    if summary["median_spread_drift"] > args.max_spread_drift:
        print(f"FAIL: median spread drift {100 * summary['median_spread_drift']:.2f}% "
              f"above the {100 * args.max_spread_drift:.0f}% bar", file=sys.stderr)
        failed = True
    if mismatches:
        print(f"FAIL: on {mismatches} of {len(rows)} probes the repaired index's "
              f"select({args.k}) or node cover counts differ from a fresh computation "
              f"over its collection", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
