"""Cold-build vs warm-query benchmark for the `repro.sketch` service layer.

The amortization claim behind the subsystem, measured:

* **cold** — a full ``tim(graph, k, ε)`` run: Algorithm 2, θ-set sampling,
  greedy selection; everything from scratch.
* **warm** — ``SketchIndex.select(k)`` against the *same* RR collection the
  cold run produced (captured by routing the cold call through an index),
  i.e. equal θ and bit-identical seed sets, paying only the greedy.

The script verifies seed-set identity at every probed k, enforces a minimum
warm speedup (default 10x, the ISSUE 2 acceptance bar), and then reports
warm-query throughput — an incremental ``select`` sweep across
k ∈ {1..kmax} plus a ``spread`` probe — on the nethept stand-in.

Run ``python benchmarks/bench_service.py`` (full) or ``--smoke`` (CI-sized);
``--json-out`` writes the summary for artifact upload.  Exits non-zero on a
seed mismatch or a missed speedup bar.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from repro.core.tim import tim
from repro.datasets import build_dataset
from repro.obs import runtime as obs
from repro.sketch import SketchIndex


def collect_obs_metrics() -> dict:
    """The per-phase rollup + RR throughput the tracer saw during the run."""
    phases = obs.phase_breakdown()
    rr_counter = obs.registry().get("rr.sets")
    rr_total = int(rr_counter.value) if rr_counter is not None else 0
    sampling_seconds = float(phases.get("sampling", {}).get("seconds", 0.0))
    return {
        "phases": phases,
        "rr_sets_total": rr_total,
        "rr_sets_per_sec": rr_total / sampling_seconds if sampling_seconds else 0.0,
    }


def _time(fn) -> tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def bench_cold_vs_warm(graph, identity_ks, epsilon: float, seed: int) -> list[dict]:
    """Per-k cold `tim` vs warm `select` at equal theta, identical seeds."""
    rows = []
    for k in identity_ks:
        cold_seconds, cold = _time(lambda: tim(graph, k, epsilon=epsilon, rng=seed))
        # Re-run the identical call through a fresh index: same RNG seed ⇒
        # the index captures exactly the cold run's RR collection and seeds.
        index = SketchIndex(graph=graph, model="IC")
        captured = tim(graph, k, epsilon=epsilon, rng=seed, index=index)
        if captured.seeds != cold.seeds:
            raise SystemExit(f"k={k}: capture run diverged from cold run (rng plumbing bug)")
        # A fresh index over the captured sketch: coverage_count builds its
        # postings (amortized across queries), so the timed select pays only
        # the greedy from the first pick.
        warm_index = SketchIndex(index.collection, graph=graph, model="IC")
        warm_index.coverage_count(())
        warm_seconds, warm = _time(lambda: warm_index.select(k))
        if warm.seeds != cold.seeds:
            raise SystemExit(
                f"k={k}: warm select {warm.seeds[:5]}... != cold tim {cold.seeds[:5]}..."
            )
        rows.append({
            "k": k,
            "theta": cold.theta,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": cold_seconds / max(warm_seconds, 1e-12),
            "seeds_identical": True,
        })
    return rows


def bench_warm_throughput(graph, kmax: int, epsilon: float, seed: int) -> dict:
    """Queries/second across k ∈ {1..kmax} against one warm index."""
    index = SketchIndex.build(graph, "IC", k=max(10, kmax // 2), epsilon=epsilon, rng=seed)
    index.select(1)  # build postings outside the timed region
    incremental_seconds, _ = _time(
        lambda: [index.select(k) for k in range(1, kmax + 1)]
    )
    seeds = index.select(kmax).seeds
    spread_seconds, _ = _time(lambda: [index.spread(seeds[: k or 1]) for k in range(1, kmax + 1)])
    return {
        "theta": index.num_sets,
        "kmax": kmax,
        "select_incremental_qps": kmax / max(incremental_seconds, 1e-12),
        "spread_qps": kmax / max(spread_seconds, 1e-12),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="nethept")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--kmax", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true", help="CI-sized configuration")
    parser.add_argument("--json-out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    scale = 0.25 if args.smoke else args.scale
    kmax = min(args.kmax, 20) if args.smoke else args.kmax
    identity_ks = sorted({1, 5, kmax // 2, kmax})

    # Instrument the whole run: the summary's "metrics" section carries the
    # per-phase wall-clock rollup and RR throughput the tracer recorded.
    obs.configure(enabled=True)
    obs.reset()

    graph = build_dataset(args.dataset, scale).weighted_for("IC")
    print(f"graph: {args.dataset} stand-in @ scale {scale} (n={graph.n}, m={graph.m})")
    print(f"epsilon={args.epsilon}  identity checks at k={identity_ks}  kmax={kmax}")

    rows = bench_cold_vs_warm(graph, identity_ks, args.epsilon, args.seed)
    print(f"\n{'k':>4} {'theta':>9} {'cold tim':>10} {'warm select':>12} {'speedup':>9}")
    for row in rows:
        print(
            f"{row['k']:>4} {row['theta']:>9} {row['cold_seconds']:>9.4f}s "
            f"{row['warm_seconds']:>11.6f}s {row['speedup']:>8.1f}x"
        )
    median_speedup = statistics.median(row["speedup"] for row in rows)

    throughput = bench_warm_throughput(graph, kmax, args.epsilon, args.seed)
    print(
        f"\nwarm throughput over k in 1..{kmax} (theta={throughput['theta']}): "
        f"select {throughput['select_incremental_qps']:.0f} q/s incremental, "
        f"spread {throughput['spread_qps']:.0f} q/s"
    )

    summary = {
        "dataset": args.dataset,
        "scale": scale,
        "epsilon": args.epsilon,
        "graph": {"n": graph.n, "m": graph.m},
        "cold_vs_warm": rows,
        "median_speedup": median_speedup,
        "min_speedup_required": args.min_speedup,
        "warm_throughput": throughput,
        "metrics": collect_obs_metrics(),
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json_out}")

    if median_speedup < args.min_speedup:
        print(
            f"FAIL: median warm speedup {median_speedup:.1f}x "
            f"below the {args.min_speedup:.0f}x bar",
            file=sys.stderr,
        )
        return 1
    print(f"OK: median warm speedup {median_speedup:.1f}x (bar: {args.min_speedup:.0f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
