"""Command-line interface: ``repro-im`` / ``python -m repro``.

Subcommands:

* ``datasets`` — list the stand-in datasets with their Table 2 stats.
* ``run`` — run any registered algorithm on a stand-in or edge-list file.
* ``spread`` — Monte-Carlo spread of a given seed set.
* ``experiment`` — regenerate a paper table/figure and print it.
* ``sketch`` — build a persistent RR-sketch index and save it as ``.npz``.
* ``serve`` — answer JSONL influence queries from a sketch (build-or-load);
  the stream may carry ``update`` ops that mutate the graph and repair the
  cached sketch incrementally.
* ``update`` — apply a JSONL stream of edge updates to a persisted sketch,
  repairing it in place of a cold rebuild, and save the result.
* ``obs`` — inspect a ``--metrics-out`` JSONL export: ``report`` renders the
  human summary table, ``prom`` converts the final registry snapshot to
  Prometheus text exposition, ``check`` validates Prometheus text.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.algorithms import algorithm_names, maximize_influence, supports_policy
from repro.api import ExecutionPolicy
from repro.api.policy import SERVING_POLICY
from repro.datasets import build_dataset, dataset_names, dataset_spec
from repro.diffusion import estimate_spread
from repro.experiments import EXPERIMENTS, render
from repro.faults import install_from_env as _install_fault_plan
from repro.graphs import load_edge_list, summarize, uniform_random_lt, weighted_cascade

__all__ = ["main", "build_parser"]


def _execution_parent() -> argparse.ArgumentParser:
    """The shared ``--jobs`` / ``--trace-edges`` / ``--metrics-out`` /
    ``--deadline-ms`` flags.

    One parent parser serves ``run``/``sketch``/``serve``/``update`` so the
    flags (names, choices, defaults) cannot drift between subcommands.
    Every default is ``None`` = "unset": resolution happens in
    :meth:`repro.api.ExecutionPolicy.from_args`, layering CLI flags over
    the ``REPRO_*`` environment variables over library defaults.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution policy")
    group.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for RR generation (0 = all cores; results "
        "are byte-identical for any worker count)",
    )
    group.add_argument(
        "--trace-edges",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="record live-edge traces while sampling so edge updates "
        "invalidate precisely (sketch/serve/update)",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs instrumentation and write the span/metrics "
        "JSONL stream here on exit (REPRO_METRICS=1 enables recording "
        "without the export; results are byte-identical either way)",
    )
    group.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request wall-clock budget (serve): over-budget queries "
        "return a structured deadline_exceeded error instead of hanging "
        "(REPRO_DEADLINE_MS layers under)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-im`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-im",
        description="TIM/TIM+ influence maximization (SIGMOD 2014 reproduction)",
    )
    execution = _execution_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list stand-in datasets")

    run = sub.add_parser(
        "run", help="run an influence-maximization algorithm", parents=[execution]
    )
    run.add_argument("--algorithm", default="tim+", choices=algorithm_names())
    run.add_argument("--dataset", default="nethept", help="stand-in name or @/path/to/edgelist")
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--model", default="IC", choices=["IC", "LT"])
    run.add_argument("-k", type=int, default=10)
    run.add_argument("--epsilon", type=float, default=None, help="TIM-family / RIS accuracy")
    run.add_argument("--ell", type=float, default=None, help="TIM-family failure exponent")
    run.add_argument("--num-runs", type=int, default=None, help="Greedy-family MC runs")
    run.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="time-critical IC: only count activations within this many rounds",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--score-samples", type=int, default=0, help="MC re-score of result (0=off)")

    spread = sub.add_parser("spread", help="estimate spread of a seed set")
    spread.add_argument("--dataset", default="nethept")
    spread.add_argument("--scale", type=float, default=1.0)
    spread.add_argument("--model", default="IC", choices=["IC", "LT"])
    spread.add_argument("--seeds", required=True, help="comma-separated node ids")
    spread.add_argument("--samples", type=int, default=10000)
    spread.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))

    sketch = sub.add_parser(
        "sketch", help="build and persist an RR-sketch index", parents=[execution]
    )
    sketch.add_argument("--dataset", default="nethept", help="stand-in name or @/path/to/edgelist")
    sketch.add_argument("--scale", type=float, default=1.0)
    sketch.add_argument("--model", default="IC", choices=["IC", "LT"])
    sketch.add_argument("-k", type=int, default=10, help="budget used to derive theta")
    sketch.add_argument("--epsilon", type=float, default=None,
                        help="build accuracy (default 0.3; REPRO_EPSILON layers under)")
    sketch.add_argument("--ell", type=float, default=None,
                        help="failure exponent (default 1.0; REPRO_ELL layers under)")
    sketch.add_argument("--theta", type=int, default=None, help="fixed sketch size (skips derivation)")
    sketch.add_argument(
        "--algorithm",
        default=None,
        choices=["tim", "imm"],
        help="theta derivation for k-based builds: tim = KPT estimation "
        "(Algorithm 2), imm = martingale lower-bound search — typically a "
        "much smaller sketch at equal epsilon (REPRO_ALGORITHM layers under)",
    )
    sketch.add_argument("--seed", type=int, default=0)
    sketch.add_argument("--out", required=True, help="output .npz sketch path")

    serve = sub.add_parser(
        "serve", help="serve influence queries from an RR sketch", parents=[execution]
    )
    serve.add_argument("--dataset", default="nethept", help="stand-in name or @/path/to/edgelist")
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument("--model", default="IC", choices=["IC", "LT"])
    serve.add_argument("--sketch", default=None, help="pre-built sketch (.npz) to load")
    serve.add_argument("--mmap", action="store_true", help="memory-map the loaded sketch")
    serve.add_argument(
        "--batch",
        default=None,
        help="JSONL query file ('-' or omitted = read stdin until EOF)",
    )
    serve.add_argument("--save-sketch", default=None, help="persist the (possibly grown) sketch on exit")
    serve.add_argument("-k", type=int, default=10, help="budget for cold sketch builds")
    serve.add_argument("--epsilon", type=float, default=None,
                       help="cold-build accuracy (default 0.3; REPRO_EPSILON layers under)")
    serve.add_argument("--ell", type=float, default=None,
                       help="failure exponent (default 1.0; REPRO_ELL layers under)")
    serve.add_argument("--theta", type=int, default=None, help="fixed size for cold sketch builds")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-indexes", type=int, default=4)
    serve.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="soft cap on resident sketch bytes: least-recently-used "
        "indexes are evicted before a cold build would exceed it",
    )

    update = sub.add_parser(
        "update",
        help="repair a persisted sketch across a stream of edge updates",
        parents=[execution],
    )
    update.add_argument("--dataset", default="nethept", help="stand-in name or @/path/to/edgelist")
    update.add_argument("--scale", type=float, default=1.0)
    update.add_argument("--model", default="IC", choices=["IC", "LT"])
    update.add_argument("--sketch", required=True, help="sketch (.npz) built for the dataset")
    update.add_argument(
        "--updates",
        required=True,
        help="JSONL edge updates ('-' = stdin): "
        '{"action": "insert"|"delete"|"reweight", "u": .., "v": .., "p": ..}',
    )
    update.add_argument("--out", required=True, help="repaired sketch output path")
    update.add_argument("--save-graph", default=None, help="write the updated edge list here")
    update.add_argument("--seed", type=int, default=0)

    obs_cmd = sub.add_parser(
        "obs", help="inspect metrics exported with --metrics-out"
    )
    obs_cmd.add_argument(
        "action",
        choices=["report", "prom", "check"],
        help="report = human summary table from a metrics JSONL; "
        "prom = convert a metrics JSONL to Prometheus text exposition; "
        "check = validate a Prometheus text file",
    )
    obs_cmd.add_argument("path", help="metrics JSONL (report/prom) or Prometheus text (check)")

    return parser


def _load_graph(dataset: str, scale: float, model: str):
    """Resolve --dataset: a registry name, or @path for an edge-list file."""
    if dataset.startswith("@"):
        graph, _ = load_edge_list(dataset[1:])
        if model == "IC":
            return weighted_cascade(graph)
        return uniform_random_lt(graph, rng=0)
    return build_dataset(dataset, scale).weighted_for(model)


def _command_datasets() -> int:
    for name in dataset_names():
        spec = dataset_spec(name)
        summary = summarize(
            build_dataset(name).graph, name, undirected=spec.undirected
        )
        print(
            f"{name:12s} paper: n={spec.paper_nodes:>6s} m={spec.paper_edges:>6s} "
            f"| stand-in: n={summary.num_nodes} m={summary.num_edges} "
            f"avg_deg={summary.average_degree:.1f} ({summary.graph_type})"
        )
    return 0


def _resolve_policy(args, base: ExecutionPolicy | None = None) -> ExecutionPolicy:
    """CLI flags over REPRO_* environment over ``base`` (library defaults).

    ``base`` carries subcommand-specific defaults — the sketch/serve builds
    start from :data:`~repro.api.policy.SERVING_POLICY` (ε = 0.3) — so the
    env vars still layer between the default and any explicit flag.
    ``--metrics-out PATH`` implies ``metrics=True`` (the flag names the
    export; the switch rides along).
    """
    policy = ExecutionPolicy.from_args(args, base=base)
    if getattr(args, "metrics_out", None):
        policy = policy.merge(metrics=True)
    return policy


#: RIS pays ε⁻³, so its historical default is coarser than the library-wide
#: 0.1; the CLI keeps it as the base layer under REPRO_EPSILON / --epsilon.
_RIS_DEFAULTS = ExecutionPolicy(epsilon=0.2)


def _command_run(args) -> int:
    graph = _load_graph(args.dataset, args.scale, args.model)
    kwargs = {}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    if args.ell is not None:
        kwargs["ell"] = args.ell
    if args.num_runs is not None:
        kwargs["num_runs"] = args.num_runs
    if args.trace_edges is not None:
        # run never persists a sketch, so tracing would be a silent no-op.
        raise SystemExit(
            "--trace-edges applies to the sketch/serve/update subcommands; "
            "run does not persist a sketch"
        )
    if supports_policy(args.algorithm):
        base = _RIS_DEFAULTS if args.algorithm.lower() == "ris" else None
        kwargs["policy"] = _resolve_policy(args, base=base)
    elif args.jobs is not None:
        policy_aware = sorted(
            name for name in algorithm_names() if supports_policy(name)
        )
        raise SystemExit(f"--jobs applies to {policy_aware}, not {args.algorithm!r}")
    model = args.model
    if args.horizon is not None:
        if args.model != "IC":
            raise SystemExit("--horizon is only defined for the IC model")
        from repro.diffusion import BoundedIndependentCascade

        model = BoundedIndependentCascade(args.horizon)
    result = maximize_influence(
        graph, args.k, algorithm=args.algorithm, model=model, rng=args.seed, **kwargs
    )
    print(f"algorithm : {result.algorithm} ({result.model} model)")
    print(f"seeds     : {result.seeds}")
    print(f"runtime   : {result.runtime_seconds:.3f}s")
    if result.estimated_spread is not None:
        print(f"internal spread estimate: {result.estimated_spread:.2f}")
    if args.score_samples > 0:
        estimate = estimate_spread(
            graph, result.seeds, model=model, num_samples=args.score_samples, rng=args.seed + 1
        )
        low, high = estimate.confidence_interval()
        print(f"MC spread : {estimate.mean:.2f} (95% CI [{low:.2f}, {high:.2f}])")
    return 0


def _command_spread(args) -> int:
    graph = _load_graph(args.dataset, args.scale, args.model)
    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    estimate = estimate_spread(
        graph, seeds, model=args.model, num_samples=args.samples, rng=args.seed
    )
    low, high = estimate.confidence_interval()
    print(f"E[I(S)] ~= {estimate.mean:.2f} (95% CI [{low:.2f}, {high:.2f}], {args.samples} runs)")
    return 0


def _command_experiment(args) -> int:
    result = EXPERIMENTS[args.name]()
    print(render(result))
    return 0


def _command_sketch(args) -> int:
    import os

    from repro.sketch import SketchIndex

    graph = _load_graph(args.dataset, args.scale, args.model)
    policy = _resolve_policy(args, base=SERVING_POLICY)
    started = obs.now()
    index = SketchIndex.build(
        graph,
        args.model,
        theta=args.theta,
        k=None if args.theta is not None else args.k,
        epsilon=policy.epsilon,
        ell=policy.ell,
        rng=args.seed,
        policy=policy,
    )
    build_seconds = obs.now() - started
    index.close()
    index.save(args.out)
    print(f"sketch      : {args.out} ({os.path.getsize(args.out)} bytes on disk)")
    print(f"graph       : n={graph.n} m={graph.m} fingerprint={graph.fingerprint()[:16]}…")
    print(f"model       : {index.meta['model']}")
    if index.meta.get("algorithm") is not None:
        print(f"derivation  : {index.meta['algorithm']} "
              f"(epsilon={index.meta.get('epsilon')})")
    print(f"rr sets     : {index.num_sets} (θ), {index.collection.nbytes()} array bytes")
    if index.collection.has_traces:
        print(f"edge traces : {index.collection.trace_edges_array.size} live edges recorded")
    print(f"build time  : {build_seconds:.3f}s")
    return 0


def _command_serve(args) -> int:
    from repro.dynamic import DynamicDiGraph
    from repro.sketch import (
        InfluenceService,
        SketchGraphMismatchError,
        SketchIndex,
        SketchFileError,
        SketchVersionError,
    )

    graph = _load_graph(args.dataset, args.scale, args.model)
    policy = _resolve_policy(args, base=SERVING_POLICY)
    memory_budget = (int(args.memory_budget_mb * 1024 * 1024)
                     if args.memory_budget_mb is not None else None)
    service = InfluenceService(
        max_indexes=args.max_indexes,
        default_k=args.k,
        theta=args.theta,
        policy=policy,
        rng=args.seed,
        memory_budget_bytes=memory_budget,
    )
    if args.sketch is not None:
        # Loading validates the fingerprint: a stale sketch fails fast here.
        # A *corrupt* file is different — it has already been quarantined by
        # load_sketch, so degrade loudly to a cold build instead of dying.
        try:
            loaded_index = SketchIndex.load(args.sketch, graph=graph, mmap=args.mmap)
        except (SketchVersionError, SketchGraphMismatchError):
            raise  # intact but wrong sketch: an operator mistake, fail fast
        except SketchFileError as exc:
            print(f"warning: {exc}; serving cold (the sketch rebuilds on "
                  f"first query)", file=sys.stderr)
            obs.degraded("warm_to_cold")
        else:
            service.add_index(loaded_index)

    # The dynamic wrapper lets the stream carry "update" ops; for purely
    # read-only batches it is a zero-cost pass-through to the snapshot.
    dynamic = DynamicDiGraph(graph)
    if args.batch is None or args.batch == "-":
        lines = sys.stdin
    else:
        lines = open(args.batch, "r", encoding="utf-8")
    try:
        responses = service.run_batch(dynamic, lines, model=args.model)
    finally:
        if lines is not sys.stdin:
            lines.close()
    try:
        for response in responses:
            print(json.dumps(response, sort_keys=True))
    except BrokenPipeError:  # downstream pager/head closed the pipe
        # Still persist the sketch and report the honest exit code; point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        import os

        sys.stdout = open(os.devnull, "w", encoding="utf-8")

    if args.save_sketch is not None:
        # After updates, the index is keyed by the *current* snapshot.
        index, _ = service.get_index(dynamic, args.model)
        index.save(args.save_sketch)
    service.close()
    stats = service.stats
    try:
        print(
            f"served {stats.queries} queries ({stats.errors} errors) | "
            f"cache hits/misses {stats.cache_hits}/{stats.cache_misses} | "
            f"mean latency {stats.mean_latency_ms:.2f}ms | "
            f"p50/p99 {stats.latency.percentile(0.5):.2f}/"
            f"{stats.latency.percentile(0.99):.2f}ms | "
            f"{stats.queries_per_second:.0f} q/s",
            file=sys.stderr,
        )
    except BrokenPipeError:
        pass
    return 1 if stats.errors else 0


def _command_update(args) -> int:
    from repro.dynamic import DynamicDiGraph, parse_update
    from repro.graphs import save_edge_list
    from repro.sketch import SketchIndex

    graph = _load_graph(args.dataset, args.scale, args.model)
    policy = _resolve_policy(args)
    index = SketchIndex.load(args.sketch, graph=graph, model=args.model, jobs=policy.jobs)
    dynamic = DynamicDiGraph(graph)

    if args.updates == "-":
        lines = sys.stdin
    else:
        lines = open(args.updates, "r", encoding="utf-8")
    total_affected = 0
    num_updates = 0
    started = obs.now()
    try:
        for line_number, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                update = parse_update(json.loads(text))
                delta = dynamic.apply(update)
                report = index.apply_update(delta, rng=args.seed + line_number)
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                raise SystemExit(f"{args.updates}:{line_number}: {exc}")
            num_updates += 1
            total_affected += report.num_affected
            print(
                f"update {num_updates:4d}: {report.op:8s} {report.u}->{report.v} | "
                f"resampled {report.num_affected}/{report.num_sets} RR sets "
                f"({100.0 * report.affected_fraction:.2f}%), patched {report.num_patched}"
            )
    finally:
        if lines is not sys.stdin:
            lines.close()
    repair_seconds = obs.now() - started
    index.close()
    index.save(args.out)
    if args.save_graph is not None:
        save_edge_list(dynamic.graph, args.save_graph)
        print(f"graph       : {args.save_graph} (n={dynamic.n} m={dynamic.m})")
    print(f"sketch      : {args.out} ({index.num_sets} RR sets, "
          f"fingerprint {dynamic.fingerprint()[:16]}…)")
    print(f"repairs     : {num_updates} updates, {total_affected} RR sets resampled "
          f"in {repair_seconds:.3f}s")
    return 0


def _command_obs(args) -> int:
    if args.action == "check":
        text = open(args.path, "r", encoding="utf-8").read()
        errors = obs.validate_prometheus_text(text)
        for error in errors:
            print(f"{args.path}: {error}", file=sys.stderr)
        if not errors:
            print(f"{args.path}: valid Prometheus text exposition")
        return 1 if errors else 0
    data = obs.read_jsonl(args.path)
    if args.action == "prom":
        sys.stdout.write(obs.snapshot_to_prometheus(data["metrics"]))
        return 0
    sys.stdout.write(obs.render_report(data))
    return 0


def _metrics_wanted(args) -> str | None:
    """The --metrics-out path when instrumentation should switch on."""
    return getattr(args, "metrics_out", None)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # Chaos jobs inject faults into real CLI processes via REPRO_FAULTS;
    # unset (the normal case) this is a no-op and checkpoints stay free.
    try:
        _install_fault_plan()
    except ValueError as exc:
        raise SystemExit(str(exc))
    # --metrics-out flips the process-global tracer for the command's
    # duration and exports on the way out.  REPRO_METRICS=1 already enabled
    # recording at import time (no export without a path); the flag layers
    # on top exactly like every other ExecutionPolicy knob.
    metrics_out = _metrics_wanted(args)
    if metrics_out is not None:
        obs.configure(enabled=True)
        obs.reset()
    code = _dispatch_command(args)
    if metrics_out is not None:
        obs.write_jsonl(metrics_out, meta={"command": args.command})
    return code


def _dispatch_command(args) -> int:
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "run":
        return _command_run(args)
    if args.command == "spread":
        return _command_spread(args)
    if args.command == "experiment":
        return _command_experiment(args)
    if args.command == "sketch":
        return _command_sketch(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "update":
        return _command_update(args)
    if args.command == "obs":
        return _command_obs(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
