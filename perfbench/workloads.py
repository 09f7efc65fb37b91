"""The four workloads: set-up, timed region, output checks and metrics.

``imm`` and ``tim_plus`` time one solve at a time on the ROADMAP graph and
repeat it only while another solve fits in ``--seconds``.  ``serve_read``
and ``serve_update`` drive an :class:`~repro.sketch.service.InfluenceService`
as a closed loop with one client (the JSONL ``serve`` loop answers one
request at a time and each caller waits for its reply), for ``--seconds``
and at least ``Sizes.min_requests`` requests.

An untraced run reports the end-to-end metrics.  A traced run does a fixed
amount of work twice in one process, untraced and then traced, and reports
the per-layer metrics of the traced round plus the overhead between them.
Every output check that fails counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Callable, ContextManager

import repro
from repro.api.policy import ExecutionPolicy
from repro.dynamic.graph import DynamicDiGraph
from repro.sketch.index import SketchIndex
from repro.sketch.service import InfluenceService

from perfbench import inputs
from perfbench.inputs import Sizes
from perfbench.reduce_spans import reduce
from perfbench.spans import Tracer, install

now = time.perf_counter

WORKLOADS = ("imm", "tim_plus", "serve_read", "serve_update")

_COUNTERS = ("rrset.sets", "rrset.edges_examined", "parallel.waves", "rrset.greedy_calls",
             "sketch.postings_builds", "sketch.select_calls", "sketch.query_calls",
             "persist.bytes", "dynamic.sets_affected")


@dataclass
class Outcome:
    """What one run reports: metrics, operation counts and input digests."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    inputs: dict[str, str]
    notes: list[str] = field(default_factory=list)
    #: Printed with the metrics but not part of the result line.
    extras: dict[str, float] = field(default_factory=dict)


@dataclass
class Run:
    """One benchmark run's parameters and its scratch directory."""

    sizes: Sizes
    seed: int
    seconds: float
    workdir: str
    spread_floor: float = 0.0
    tracer: Tracer | None = None
    notes: list[str] = field(default_factory=list)

    def span(self, name: str) -> ContextManager[None]:
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def set_request(self, request_id: str) -> None:
        if self.tracer is not None:
            self.tracer.request = request_id


def run_workload(name: str, run: Run, trace: bool) -> Outcome:
    if name in ("imm", "tim_plus"):
        return _solve_workload(name, run, trace)
    if name in ("serve_read", "serve_update"):
        return _serve_workload(name, run, trace)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def percentile_ms(seconds: list[float], q: float) -> float:
    """Nearest-rank percentile of latencies given in seconds, in ms."""
    ordered = sorted(seconds)
    rank = max(1, math.ceil(q * len(ordered)))
    return 1000.0 * ordered[rank - 1]


def _reap_pool_workers(timeout: float = 30.0) -> None:
    """Wait until every worker process a pool left behind has exited."""
    deadline = now() + timeout
    while multiprocessing.active_children() and now() < deadline:
        time.sleep(0.02)


def stop_children(timeout: float = 30.0) -> None:
    """Stop and reap every process this run started, so none outlives it.

    Pool workers exit once their pool is shut down; one that outlasts
    ``timeout`` is killed.  Shared memory starts multiprocessing's resource
    tracker, which exits only when its pipe closes and is never reaped by
    its parent otherwise: ``_stop`` closes the pipe and waits for it.  Any
    other child is waited for until ``timeout``.
    """
    _reap_pool_workers(timeout)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    deadline = now() + timeout
    while True:
        try:
            reaped, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if reaped == 0:
            if now() > deadline:
                raise RuntimeError(f"a child process outlived the run by {timeout} s")
            time.sleep(0.02)


def _peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus ``pool_workers`` × the largest worker's.

    Pool workers do symmetric shares of each wave, so the largest reaped
    worker stands for each of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * workers) / 1024.0


def _traced(run: Run, body: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """Run ``body`` with every layer wrapped; returns its value and the reduction."""
    tracer = Tracer(run.workdir)
    uninstall = install(tracer)
    run.tracer = tracer
    try:
        value = body()
    finally:
        run.tracer = None
        uninstall()
    tracer.collect()
    dump_path = os.path.join(run.workdir, "spans.json")
    tracer.dump(dump_path)
    with open(dump_path, encoding="utf-8") as handle:
        layer = reduce(json.load(handle)["spans"])
    for counter in _COUNTERS:
        layer[counter] = float(tracer.counters.get(counter, 0))
    entries = tracer.counters.get("sketch.postings_entries", 0)
    layer["sketch.postings_reuse"] = (
        tracer.counters["sketch.postings_final_entries"] / entries if entries else 0.0)
    return value, layer


# ----------------------------------------------------------------------
# imm / tim_plus
# ----------------------------------------------------------------------
def _solver(name: str, sizes: Sizes, seed: int) -> Callable[[Any], Any]:
    rng = inputs.solver_seed(seed)
    if name == "imm":
        return lambda graph: repro.imm(graph, sizes.k, sizes.imm_epsilon, rng=rng)
    policy = ExecutionPolicy(jobs=sizes.tim_jobs)
    return lambda graph: repro.tim_plus(graph, sizes.k, sizes.tim_epsilon, rng=rng,
                                        policy=policy)


def theta_bound(result: Any) -> int:
    """θ the algorithm's own result fields require: ⌈λ*/LB⌉ (IMM), ⌈λ/KPT⁺⌉ (TIM+)."""
    if hasattr(result, "lambda_star"):
        return math.ceil(result.lambda_star / result.opt_lower_bound)
    return math.ceil(result.lambda_value / result.kpt_plus)


def check_solve(result: Any, n: int, k: int) -> list[str]:
    """Problems with one solve's output (empty when it passes)."""
    problems = []
    seeds = list(result.seeds)
    if len(seeds) != k or len(set(seeds)) != k:
        problems.append(f"expected {k} distinct seeds, got {seeds}")
    if any(not 0 <= int(s) < n for s in seeds):
        problems.append("seed out of range")
    if result.theta_capped:
        problems.append("theta was capped")
    if result.theta < theta_bound(result):
        problems.append(f"theta {result.theta} below its bound {theta_bound(result)}")
    # IMM selects on every set it sampled; TIM+ on its node-selection sets.
    selected_on = result.rr_sets_per_phase.get("node_selection", 0)
    if hasattr(result, "lambda_star"):
        selected_on = result.total_rr_sets
    if selected_on < result.theta:
        problems.append(f"selected on {selected_on} RR sets, fewer than theta {result.theta}")
    return problems


def _solve_fields(result: Any) -> dict[str, float]:
    if hasattr(result, "lb_iterations"):
        iterations = result.lb_iterations
    else:
        iterations = result.extras["kpt_iterations"]
    return {"core.theta": float(result.theta),
            "core.lb_iterations": float(iterations),
            "core.sets_kept_ratio": result.theta / result.total_rr_sets}


def _solve_workload(name: str, run: Run, trace: bool) -> Outcome:
    sizes, seed = run.sizes, run.seed
    solve = _solver(name, sizes, seed)
    pool_workers = sizes.tim_jobs if name == "tim_plus" and sizes.tim_jobs > 1 else 0
    results: list[Any] = []

    def timed_solve(graph: Any) -> float:
        started = now()
        results.append(solve(graph))
        return now() - started

    if not trace:
        setups = []
        for _ in range(sizes.solve_setups):
            started = now()
            graph = inputs.build_graph(sizes, seed)
            setups.append(now() - started)
        walls: list[float] = []
        started = now()
        while True:
            walls.append(timed_solve(graph))
            if now() - started + statistics.median(walls) > run.seconds:
                break
        _reap_pool_workers()
        # One solve is one operation, so the latency and rate metrics every
        # workload reports describe the solve times here.
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(walls),
                   "p50_ms": percentile_ms(walls, 0.50),
                   "p99_ms": percentile_ms(walls, 0.99),
                   "qps": len(walls) / sum(walls),
                   "peak_rss_mb": _peak_rss_mb(pool_workers)}
    else:
        graph = inputs.build_graph(sizes, seed)
        untraced = timed_solve(graph)
        _reap_pool_workers()

        def body() -> float:
            run.set_request("setup")
            with run.span("bench.setup"):
                traced_graph = inputs.build_graph(sizes, seed)
            run.set_request("solve-0")
            with run.span("bench.solve"):
                return timed_solve(traced_graph)

        traced, metrics = _traced(run, body)
        _reap_pool_workers()
        metrics.update(_solve_fields(results[-1]))
        metrics["trace.overhead"] = traced / untraced - 1.0

    failed = 0
    first = list(results[0].seeds)
    spread = _score(sizes, graph, first)
    for result in results:
        problems = check_solve(result, sizes.n, sizes.k)
        if list(result.seeds) != first:
            problems.append("repeated solve on identical inputs returned other seeds")
        if spread < run.spread_floor:
            problems.append(f"spread {spread:.1f} below the floor {run.spread_floor}")
        run.notes.extend(problems)
        failed += bool(problems)
    if not trace:
        metrics["spread"] = spread
    digests = {"graph": inputs.graph_digest(graph),
               "solver_rng": inputs.digest({"rng": inputs.solver_seed(seed)})}
    return Outcome(metrics, len(results), failed, digests, run.notes)


def _score(sizes: Sizes, graph: Any, seeds: list[int]) -> float:
    """n·F_R(seeds) on an independent evaluation sketch from a fixed seed."""
    evaluation = SketchIndex.build(graph, "IC", theta=sizes.eval_theta, rng=inputs.EVAL_SEED)
    return float(evaluation.spread(seeds))


# ----------------------------------------------------------------------
# serve_read / serve_update
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    graph: Any
    dynamic: DynamicDiGraph
    service: InfluenceService
    index: SketchIndex
    path: str


def serve_setup(run: Run, rep: int) -> ServeState:
    """Graph, sketch build → save → load, service over a dynamic graph, warm-up."""
    sizes = run.sizes
    graph = inputs.build_graph(sizes, run.seed)
    built = SketchIndex.build(graph, "IC", theta=sizes.serve_theta, trace_edges=True,
                              rng=inputs.solver_seed(run.seed))
    path = os.path.join(run.workdir, f"sketch-{rep}.npz")
    built.save(path)
    built.close()
    index = SketchIndex.load(path, graph=graph, mmap=True)
    dynamic = DynamicDiGraph(graph)
    # The service draws its repair randomness from this seed, so the sketch
    # after each update is the same on every run of a workload seed.
    service = InfluenceService(rng=inputs.solver_seed(run.seed))
    service.add_index(index)
    warm = service.execute(dynamic, {"op": "select", "k": sizes.max_select_k}).to_wire()
    if not warm["ok"]:
        raise RuntimeError(f"warm-up select failed: {warm}")
    return ServeState(graph, dynamic, service, index, path)


@dataclass
class Loop:
    """Latencies and replies of one closed-loop pass, and its wall time."""

    latencies: list[float] = field(default_factory=list)
    replies: list[dict[str, Any]] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)
    #: Wall time of each unit of work: a block of 100 reads, or an update round.
    units: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0


def _ask(run: Run, state: ServeState, loop: Loop, request: dict[str, Any]) -> dict[str, Any]:
    run.set_request(f"req-{len(loop.latencies)}")
    started = now()
    reply = state.service.execute(state.dynamic, request).to_wire()
    loop.latencies.append(now() - started)
    loop.replies.append(reply)
    return reply


def _read_loop(run: Run, state: ServeState, stream: list[dict[str, Any]],
               fixed: bool) -> Loop:
    """``serve_read``: the fixed-mix stream, cycled until the run is over."""
    sizes = run.sizes
    loop = Loop()
    started = unit_started = now()
    with run.span("bench.loop"):
        while True:
            _ask(run, state, loop, stream[len(loop.latencies) % len(stream)])
            count = len(loop.latencies)
            if count % inputs.READ_BLOCK == 0:
                loop.units.append(now() - unit_started)
                unit_started = now()
            if fixed:
                if count >= sizes.trace_requests:
                    break
            elif count >= sizes.min_requests and now() - started >= run.seconds:
                break
    loop.wall = now() - started
    return loop


def _check_reads(run: Run, state: ServeState, stream: list[dict[str, Any]],
                 loops: list[Loop]) -> None:
    """Every reply must be ok and equal the answer of an independently loaded copy."""
    copy = SketchIndex.load(state.path, graph=state.graph)
    expected: dict[str, dict[str, Any]] = {}
    for loop in loops:
        for i, reply in enumerate(loop.replies):
            request = stream[i % len(stream)]
            key = json.dumps(request, sort_keys=True)
            if key not in expected:
                expected[key] = answer(copy, request)
            if not reply.get("ok") or reply.get("result") != expected[key]:
                loop.failed += 1
                run.notes.append(f"request {i} {request} replied {reply}")


def answer(index: SketchIndex, request: dict[str, Any]) -> dict[str, Any]:
    """The reply payload a read request must get, computed on ``index`` directly."""
    op = request["op"]
    if op == "select":
        result = index.select(request["k"], forced_include=request.get("include", ()),
                              forced_exclude=request.get("exclude", ()))
        return {"seeds": list(result.seeds), "coverage_fraction": result.fraction,
                "estimated_spread": index.num_nodes * result.fraction,
                "num_rr_sets": index.num_sets}
    if op == "spread":
        return {"spread": index.spread(request["seeds"]),
                "coverage_fraction": index.coverage_fraction(request["seeds"]),
                "num_rr_sets": index.num_sets}
    if op == "marginal_gain":
        return {"gain": index.marginal_gain(request["seeds"], request["candidate"]),
                "num_rr_sets": index.num_sets}
    raise ValueError(f"not a read request: {request}")


def _update_loop(run: Run, state: ServeState, rounds: list[list[dict[str, Any]]],
                 fixed: bool) -> Loop:
    """``serve_update``: rounds of one edge update, one select and 19 spreads.

    Each update reply is checked as it arrives, outside its latency: it is
    ok, the cached index is re-keyed to the dynamic graph's new fingerprint,
    and θ is unchanged.
    """
    sizes = run.sizes
    theta = state.index.num_sets
    loop = Loop()
    started = now()
    with run.span("bench.loop"):
        for number, requests in enumerate(rounds):
            if fixed and number >= sizes.trace_rounds:
                break
            if not fixed and (len(loop.latencies) >= sizes.min_requests
                              and now() - started >= run.seconds):
                break
            round_started = now()
            for request in requests:
                reply = _ask(run, state, loop, request)
                problem = None
                if not reply.get("ok"):
                    problem = f"request {request} replied {reply}"
                elif request["op"] == "update":
                    loop.update_latencies.append(loop.latencies[-1])
                    problem = _update_problem(state, reply, theta)
                if problem is not None:
                    loop.failed += 1
                    run.notes.append(problem)
            loop.units.append(now() - round_started)
        else:
            run.notes.append("update stream exhausted before the run ended")
    loop.wall = now() - started
    return loop


def _update_problem(state: ServeState, reply: dict[str, Any], theta: int) -> str | None:
    fingerprint = state.dynamic.fingerprint()
    if reply["result"]["fingerprint"] != fingerprint:
        return "update reply names another graph version"
    if state.service.cached_keys() != [(fingerprint, "IC")]:
        return f"index not re-keyed to the graph: {state.service.cached_keys()}"
    if state.index.meta["graph_fingerprint"] != fingerprint or state.index.num_sets != theta:
        return f"index lost its theta {theta} or fingerprint after the update"
    return None


def _serve_workload(name: str, run: Run, trace: bool) -> Outcome:
    sizes = run.sizes
    graph = inputs.build_graph(sizes, run.seed)
    stream: list[dict[str, Any]] = []
    if name == "serve_read":
        stream = inputs.read_stream(sizes, run.seed)
        requests_digest = inputs.digest(stream)

        def one_loop(state: ServeState, fixed: bool) -> Loop:
            return _read_loop(run, state, stream, fixed)
    else:
        rounds = inputs.update_stream(sizes, graph, run.seed)
        requests_digest = inputs.digest(rounds)

        def one_loop(state: ServeState, fixed: bool) -> Loop:
            return _update_loop(run, state, rounds, fixed)

    extras: dict[str, float] = {}
    if not trace:
        setups = []
        for rep in range(sizes.serve_setups):
            started = now()
            state = serve_setup(run, rep)
            setups.append(now() - started)
        loop = one_loop(state, False)
        loops = [loop]
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(loop.units),
                   "qps": len(loop.latencies) / loop.wall,
                   "p50_ms": percentile_ms(loop.latencies, 0.50),
                   "p99_ms": percentile_ms(loop.latencies, 0.99),
                   "peak_rss_mb": _peak_rss_mb(0)}
        if name == "serve_update":
            extras["update_p50_ms"] = percentile_ms(loop.update_latencies, 0.50)
        # The answer a client gets for the library's k, scored like a solve.
        metrics["spread"] = _score(sizes, state.dynamic.graph,
                                   list(state.index.select(sizes.k).seeds))
    else:
        state = serve_setup(run, 0)
        untraced = one_loop(state, True)

        def body() -> tuple[ServeState, Loop]:
            run.set_request("setup")
            with run.span("bench.setup"):
                traced_state = serve_setup(run, 1)
            return traced_state, one_loop(traced_state, True)

        (traced_state, traced), metrics = _traced(run, body)
        loops = [untraced, traced]
        theta = traced_state.index.num_sets
        sampled = metrics["rrset.sets"]
        metrics.update({"core.theta": float(theta), "core.lb_iterations": 0.0,
                        "core.sets_kept_ratio": theta / sampled if sampled else 0.0})
        per_request = [loop.wall / len(loop.latencies) for loop in loops]
        metrics["trace.overhead"] = per_request[1] / per_request[0] - 1.0
    if name == "serve_read":
        _check_reads(run, state, stream, loops)
    digests = {"graph": inputs.graph_digest(graph), "requests": requests_digest,
               "sketch_rng": inputs.digest({"rng": inputs.solver_seed(run.seed)})}
    return Outcome(metrics, sum(len(loop.latencies) for loop in loops),
                   sum(loop.failed for loop in loops), digests, run.notes, extras)
