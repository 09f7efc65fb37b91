"""Micro-benchmarks: RR-set generation throughput across worker counts.

Two parts:

* A runnable multicore sweep (``python benchmarks/bench_samplers.py
  --jobs 1,2,0``; 0 = all cores) over the sharded worker-pool engine on a
  weighted-cascade Erdős–Rényi graph: RR-sets/sec and speedup per worker
  count, plus a hard byte-identity check — every jobs value must produce
  the exact same ``FlatRRCollection`` arrays and the exact same ``tim()``
  seed set as the first one.  Defaults to the paper-scale n=20k / m=200k
  instance; ``--smoke`` shrinks it for CI.  ``--min-jobs-speedup`` turns
  the speedup into a pass/fail bar (only enforced when more than one core
  is actually available); ``--json-out`` records the summary for CI
  artifacts.  Distributional parity of the batched samplers against a
  per-root oracle is pinned by ``tests/property/test_engine_equivalence.py``.

* pytest-benchmark cases (the per-operation numbers behind every figure:
  Section 7.2's observation that LT sampling is cheaper than IC shows up
  directly here).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro.api import ExecutionPolicy
from repro.obs import runtime as obs
from repro.rrset import make_rr_sampler
from repro.utils.rng import RandomSource


def collect_obs_metrics(rr_sets_per_sec: dict[str, float]) -> dict:
    """The per-phase rollup the tracer recorded, plus measured throughput.

    ``rr_sets_per_sec`` carries the externally timed RR throughput per
    configuration (worker pools count their RR sets in the workers, so the
    parent-side counter alone would undercount there).
    """
    return {
        "rr_sets_per_sec": rr_sets_per_sec,
        "phases": obs.phase_breakdown(),
    }


# ----------------------------------------------------------------------
# Multicore jobs sweep
# ----------------------------------------------------------------------
def build_wc_graph(n: int, m: int, seed: int = 2014):
    from repro.graphs import gnm_random_digraph, weighted_cascade

    return weighted_cascade(gnm_random_digraph(n, m, rng=seed))


def run_jobs_sweep(args) -> int:
    """Time the sharded worker-pool engine at each requested worker count.

    Every row is checked for byte-identity against the first: identical
    packed RR arrays and identical ``tim()`` seeds, the determinism contract
    of :class:`repro.parallel.ParallelSampler`.
    """
    import numpy as np

    from repro.core import tim
    from repro.parallel import ParallelSampler, resolve_jobs

    jobs_values = [int(part) for part in args.jobs.split(",") if part.strip()]
    cpu_count = os.cpu_count() or 1
    print(f"graph: weighted-cascade G(n={args.n}, m={args.m})  [seed {args.seed}]")
    print(f"host : {cpu_count} cpu(s); sweep jobs={jobs_values}")
    graph = build_wc_graph(args.n, args.m, seed=args.seed)

    rows = []
    reference = None
    reference_seeds = None
    failed = False
    for jobs in jobs_values:
        sampler = ParallelSampler(make_rr_sampler(graph, "IC"), jobs=jobs)
        # Warm-up spawns the pool, broadcasts the graph, and builds the
        # per-worker adjacency caches so the timed section measures
        # steady-state generation throughput (the persistent-pool shape).
        sampler.sample_random_batch(min(args.num_sets, 2000), RandomSource(0))
        started = time.perf_counter()
        batch = sampler.sample_random_batch(args.num_sets, RandomSource(args.seed + 1))
        seconds = time.perf_counter() - started
        sampler.close()
        tim_result = tim(graph, args.k, epsilon=args.epsilon, rng=args.seed,
                         policy=ExecutionPolicy(jobs=jobs))

        arrays = (
            batch.ptr_array, batch.nodes_array, batch.roots_array,
            batch.widths_array, batch.costs_array,
        )
        if reference is None:
            reference, reference_seeds = arrays, tim_result.seeds
            identical = True
        else:
            identical = all(np.array_equal(a, b) for a, b in zip(reference, arrays))
            identical = identical and tim_result.seeds == reference_seeds
        rows.append({
            "jobs": jobs,
            "resolved_jobs": resolve_jobs(jobs),
            "seconds": seconds,
            "rr_sets_per_sec": args.num_sets / max(seconds, 1e-12),
            "speedup": rows[0]["seconds"] / max(seconds, 1e-12) if rows else 1.0,
            "identical_to_baseline": identical,
            "tim_seeds": tim_result.seeds,
        })
        if not identical:
            failed = True

    print(f"\nsharded RR generation ({args.num_sets} random RR sets):")
    print(f"  {'jobs':>5} {'workers':>8} {'ms':>9} {'RR/s':>10} {'speedup':>8}  identical")
    for row in rows:
        print(
            f"  {row['jobs']:>5} {row['resolved_jobs']:>8} {row['seconds']*1e3:>9.1f} "
            f"{row['rr_sets_per_sec']:>10.0f} {row['speedup']:>7.2f}x  "
            f"{'yes' if row['identical_to_baseline'] else 'NO'}"
        )
    if failed:
        print("FAIL: results are not byte-identical across worker counts", file=sys.stderr)

    best = max(rows, key=lambda row: row["speedup"])
    multicore_rows = [row for row in rows if row["resolved_jobs"] > 1]
    if args.min_jobs_speedup is not None and multicore_rows:
        if cpu_count <= 1:
            print(
                f"note: single-cpu host, speedup bar ({args.min_jobs_speedup:.2f}x) "
                "not enforced (no parallel hardware to measure)",
            )
        elif best["speedup"] < args.min_jobs_speedup:
            print(
                f"FAIL: best multicore speedup {best['speedup']:.2f}x "
                f"(jobs={best['jobs']}) < required {args.min_jobs_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True

    if args.json_out:
        summary = {
            "graph": {"n": args.n, "m": args.m, "seed": args.seed, "model": "IC/WC"},
            "num_sets": args.num_sets,
            "cpu_count": cpu_count,
            "rows": rows,
            "ok": not failed,
            "metrics": collect_obs_metrics({
                str(row["jobs"]): row["rr_sets_per_sec"] for row in rows
            }),
        }
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
        print(f"\nwrote {args.json_out}")
    if not failed:
        print("\nOK: identical results at every worker count" + (
            f"; best speedup {best['speedup']:.2f}x at jobs={best['jobs']}"
            if len(rows) > 1 else ""
        ))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--m", type=int, default=200_000)
    parser.add_argument(
        "--num-sets", type=int, default=None,
        help="RR sets per timed run (default 20000, or 5000 with --smoke)",
    )
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--epsilon", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument(
        "--jobs",
        default="1,2,0",
        help="comma-separated worker counts (default '1,2,0'; 0 = all cores)",
    )
    parser.add_argument(
        "--min-jobs-speedup",
        type=float,
        default=None,
        help="fail the --jobs sweep when the best multicore speedup over the "
        "first entry falls below this (skipped on single-cpu hosts)",
    )
    parser.add_argument("--json-out", default=None, help="write a JSON summary here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration: n=2000, m=10000, fewer RR sets",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.m, args.k = 2_000, 10_000, 10
    if args.num_sets is None:
        args.num_sets = 5_000 if args.smoke else 20_000
    # Instrument the whole run so --json-out can report per-phase seconds
    # alongside the externally timed throughput numbers.
    obs.configure(enabled=True)
    obs.reset()
    return run_jobs_sweep(args)


# ----------------------------------------------------------------------
# pytest-benchmark cases
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def livejournal_ic():
    from repro.datasets import build_dataset

    return build_dataset("livejournal", scale=0.5).weighted_for("IC")


@pytest.fixture(scope="module")
def livejournal_lt():
    from repro.datasets import build_dataset

    return build_dataset("livejournal", scale=0.5).weighted_for("LT")


def test_ic_rr_generation(benchmark, livejournal_ic):
    sampler = make_rr_sampler(livejournal_ic, "IC")
    benchmark(lambda: sampler.sample_random_batch(2000, RandomSource(1)))


def test_lt_rr_generation(benchmark, livejournal_lt):
    sampler = make_rr_sampler(livejournal_lt, "LT")
    benchmark(lambda: sampler.sample_random_batch(2000, RandomSource(2)))


def test_ic_forward_simulation(benchmark, livejournal_ic):
    from repro.diffusion import simulate_ic

    rng = RandomSource(3)

    def run_batch():
        for seed_node in range(0, 200):
            simulate_ic(livejournal_ic, [seed_node], rng)

    benchmark(run_batch)


def test_greedy_coverage_throughput(benchmark, livejournal_ic):
    from repro.rrset import greedy_max_coverage

    sampler = make_rr_sampler(livejournal_ic, "IC")
    rr_sets = sampler.sample_random_batch(30_000, RandomSource(4))
    benchmark(greedy_max_coverage, rr_sets, livejournal_ic.n, 50)


if __name__ == "__main__":
    raise SystemExit(main())
