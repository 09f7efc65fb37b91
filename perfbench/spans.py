"""Outside-in span tracing of repro's layers, for the traced benchmark run.

:func:`install` wraps each layer's public entry points (functions are
rebound in every ``repro`` module that imported them, methods on their
defining class) so each call records a span: name, start, end, parent span
id, request id and process id.  Spans stay in memory and :meth:`Tracer.dump`
writes them once at the end; :mod:`perfbench.reduce_spans` turns the dump
into per-layer self times.  Nothing here edits program code, and nothing is
installed in an untraced run.

Pool workers of :mod:`repro.parallel` are forked after :func:`install`, so
they inherit the wrapped sampler.  A worker cannot reach the parent's
memory, so it appends each closed span to its own file in the tracer's
worker directory; :meth:`Tracer.collect` reads those files and hangs each
worker span under the ``parallel.wave`` span that was open around it.

Postings (the sketch's inverted index) are built lazily by private code,
so after every sketch growth, load and update the wrapper forces the build
through the public ``coverage_count(())`` inside a ``sketch.postings`` span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

now = time.perf_counter


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        #: ``[id, parent, name, start, end, request, pid]`` per closed span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Request id stamped on every span opened while it is set.
        self.request: str | None = None
        self._stack: list[tuple[Any, str]] = []
        self._stack_pid = self.pid
        self._next_id = 0

    def _current_stack(self) -> list[tuple[Any, str]]:
        pid = os.getpid()
        if pid != self._stack_pid:
            # A forked pool worker inherits the parent's open spans; its own
            # spans start a fresh tree that collect() re-parents.
            self._stack_pid = pid
            self._stack = []
        return self._stack

    def inside(self, name: str) -> bool:
        """Whether the innermost open span in this process is ``name``."""
        stack = self._current_stack()
        return bool(stack) and stack[-1][1] == name

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._current_stack()
        self._next_id += 1
        pid = os.getpid()
        span_id: Any = self._next_id if pid == self.pid else f"{pid}:{self._next_id}"
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            record = [span_id, parent, name, start, end, self.request, pid]
            if pid == self.pid:
                self.spans.append(record)
            else:
                self._to_worker_file({"span": record})

    def count(self, name: str, value: float = 1) -> None:
        if os.getpid() == self.pid:
            self.counters[name] += value
        else:
            self._to_worker_file({"count": [name, value]})

    def _to_worker_file(self, entry: dict[str, Any]) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")

    def collect(self) -> None:
        """Merge the pool workers' span files into this tracer."""
        waves = sorted((s for s in self.spans if s[2] == "parallel.wave"),
                       key=lambda s: s[3])
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(self.worker_dir, name)
            with open(path, encoding="utf-8") as handle:
                entries = [json.loads(line) for line in handle]
            os.remove(path)
            for entry in entries:
                if "count" in entry:
                    counter, value = entry["count"]
                    self.counters[counter] += value
                    continue
                record = entry["span"]
                if record[1] is None:
                    wave = next((w for w in waves
                                 if w[3] <= record[3] and record[4] <= w[4]), None)
                    if wave is not None:
                        record[1], record[5] = wave[0], wave[5]
                self.spans.append(record)

    def dump(self, path: str) -> None:
        """Write every span and counter once, as one JSON document."""
        keys = ("id", "parent", "name", "start", "end", "request", "pid")
        payload = {"spans": [dict(zip(keys, s)) for s in self.spans],
                   "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# ----------------------------------------------------------------------
# Wrapping the layers
# ----------------------------------------------------------------------
Undo = list[tuple[Any, str, Any]]


def _set(owner: Any, attr: str, value: Any, undo: Undo) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _rebind_function(original: Callable[..., Any], wrapper: Callable[..., Any],
                     undo: Undo) -> None:
    """Point every ``repro`` module binding of ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _set(module, attr, wrapper, undo)


def _timed(tracer: Tracer, name: str, fn: Callable[..., Any],
           after: Callable[[tuple[Any, ...], Any], None] | None = None) -> Callable[..., Any]:
    """``fn`` inside a ``name`` span; ``after`` runs once the span closes.

    ``after`` only runs for the outermost call of a layer, so nested calls
    such as ``spread`` → ``coverage_fraction`` → ``coverage_count`` count once.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        outermost = not tracer.inside(name)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None and outermost:
            after(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    from repro.core.kpt_estimation import estimate_kpt
    from repro.core.refine_kpt import refine_kpt
    from repro.api.ops import ErrorResponse, Response
    from repro.dynamic.graph import DynamicDiGraph
    from repro.graphs import generators, weights
    from repro.parallel.engine import ParallelSampler
    from repro.rrset.base import RRSampler
    from repro.rrset.coverage import greedy_max_coverage
    from repro.rrset.ic_sampler import ICRRSampler
    from repro.sketch.index import SketchIndex
    from repro.sketch.service import InfluenceService

    undo: Undo = []
    coverage_count = SketchIndex.coverage_count
    entries_by_index: dict[int, int] = {}

    def force_postings(index: Any) -> None:
        with tracer.span("sketch.postings"):
            coverage_count(index, ())
        entries = int(index.collection.nodes_array.size)
        tracer.count("sketch.postings_builds")
        tracer.count("sketch.postings_entries", entries)
        entries_by_index[id(index)] = entries
        tracer.counters["sketch.postings_final_entries"] = sum(entries_by_index.values())

    def count_sets(args: tuple[Any, ...], batch: Any) -> None:
        tracer.count("rrset.sets", len(batch))
        tracer.count("rrset.edges_examined", int(batch.widths_array.sum()))

    def counter(name: str) -> Callable[[tuple[Any, ...], Any], None]:
        return lambda args, result: tracer.count(name)

    def saved(args: tuple[Any, ...], result: Any) -> None:
        tracer.count("persist.bytes", os.path.getsize(args[1]))

    def repaired(args: tuple[Any, ...], report: Any) -> None:
        tracer.count("dynamic.sets_affected", report.num_affected)
        force_postings(args[0])

    for fn in (generators.gnm_random_digraph, weights.weighted_cascade):
        _rebind_function(fn, _timed(tracer, "graphs.build", fn), undo)
    _rebind_function(greedy_max_coverage, _timed(
        tracer, "rrset.greedy", greedy_max_coverage, counter("rrset.greedy_calls")), undo)
    for fn in (estimate_kpt, refine_kpt):
        _rebind_function(fn, _timed(tracer, "core.kpt", fn), undo)

    methods: list[tuple[type, str, str, Callable[[tuple[Any, ...], Any], None] | None]] = [
        (ICRRSampler, "sample_batch", "rrset.sample", count_sets),
        (RRSampler, "sample_random_batch", "rrset.sample", count_sets),
        (ParallelSampler, "sample_random_batch", "parallel.wave", counter("parallel.waves")),
        (ParallelSampler, "sample_batch", "parallel.wave", counter("parallel.waves")),
        (SketchIndex, "extend_flat", "sketch.extend", lambda a, r: force_postings(a[0])),
        (SketchIndex, "select", "sketch.select", counter("sketch.select_calls")),
        (SketchIndex, "spread", "sketch.query", counter("sketch.query_calls")),
        (SketchIndex, "coverage_fraction", "sketch.query", counter("sketch.query_calls")),
        (SketchIndex, "coverage_count", "sketch.query", counter("sketch.query_calls")),
        (SketchIndex, "marginal_gain", "sketch.query", counter("sketch.query_calls")),
        (SketchIndex, "save", "persist.save", saved),
        (SketchIndex, "apply_update", "dynamic.repair", repaired),
        (DynamicDiGraph, "preview", "dynamic.preview", None),
        (InfluenceService, "execute", "serve.dispatch", None),
        (Response, "to_wire", "serve.dispatch", None),
        (ErrorResponse, "to_wire", "serve.dispatch", None),
    ]
    for owner, attr, name, after in methods:
        _set(owner, attr, _timed(tracer, name, owner.__dict__[attr], after), undo)
    load = SketchIndex.__dict__["load"].__func__
    _set(SketchIndex, "load", classmethod(
        _timed(tracer, "persist.load", load, lambda a, index: force_postings(index))), undo)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
