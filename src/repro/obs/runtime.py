"""The tracing runtime: a process-global switch, span tracer, and registry.

``trace("kpt.estimate")`` is the instrumentation primitive every hot-path
module uses::

    from repro.obs import trace

    with trace("kpt.estimate", k=k):
        ...

Disabled (the default, and whenever ``REPRO_METRICS`` is unset/falsy) the
call returns one shared no-op context manager — no allocation, no clock
read, no record — so instrumented code costs a single module-global bool
check.  Enabled, each span records nested wall-clock (and, when memory
accounting is switched on, RSS / traced-allocation deltas) into a global
:class:`~repro.obs.registry.MetricsRegistry` plus an event list the
exporters serialize.

**Hard invariant: instrumentation never touches RNG streams.**  Nothing in
this module (or anything it calls) draws randomness, so enabling metrics
cannot perturb sampling — ``tests/obs/test_byte_identity.py`` pins sketch
bytes and tim seeds obs-on vs obs-off.

Span names are dotted: the first component is the *phase group*
(``kpt.estimate`` and ``kpt.refine`` both roll up under ``kpt`` in
:func:`phase_breakdown`).  Groups in use: ``kpt``, ``price``,
``sampling``, ``selection``, ``sketch``, ``repair``, ``serve``, ``tim``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Iterable, Union

import numpy as np

from repro.obs.registry import SECONDS_BUCKETS, Histogram, MetricsRegistry

__all__ = [
    "SpanRecord",
    "add",
    "configure",
    "degraded",
    "enabled",
    "gauge_set",
    "now",
    "observe",
    "observe_many",
    "phase_breakdown",
    "registry",
    "reset",
    "spans",
    "trace",
]

_ENV_VAR = "REPRO_METRICS"
_ENV_MEM_VAR = "REPRO_METRICS_MEM"
_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})

#: Completed spans kept in memory; beyond this they are counted, not stored.
_DEFAULT_SPAN_CAPACITY = 100_000

#: Prefix for the per-span duration histograms in the global registry.
SPAN_METRIC_PREFIX = "span."


def _env_flag(variable: str) -> bool:
    return os.environ.get(variable, "").strip().lower() in _TRUE_STRINGS


@dataclass
class SpanRecord:
    """One completed span: what ran, for how long, nested under what."""

    name: str
    seconds: float
    start: float  # seconds since the last reset() (monotonic clock)
    depth: int
    parent: str | None
    labels: dict[str, Any] = field(default_factory=dict)
    rss_kb_delta: int | None = None
    alloc_bytes: int | None = None

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "seconds": self.seconds,
            "start": self.start,
            "depth": self.depth,
            "parent": self.parent,
        }
        if self.labels:
            record["labels"] = dict(self.labels)
        if self.rss_kb_delta is not None:
            record["rss_kb_delta"] = self.rss_kb_delta
        if self.alloc_bytes is not None:
            record["alloc_bytes"] = self.alloc_bytes
        return record


class _Runtime:
    """Process-global tracer state (one instance, module-private)."""

    def __init__(self) -> None:
        self.enabled = _env_flag(_ENV_VAR)
        self.memory = _env_flag(_ENV_MEM_VAR)
        self.registry = MetricsRegistry()
        self.spans: list[SpanRecord] = []
        self.dropped_spans = 0
        self.span_capacity = _DEFAULT_SPAN_CAPACITY
        self.origin = time.perf_counter()
        self.local = threading.local()

    def stack(self) -> list[str]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = []
            self.local.stack = stack
        return stack


_RUNTIME = _Runtime()


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _RUNTIME.enabled


def now() -> float:
    """The sanctioned monotonic clock (``time.perf_counter`` passthrough).

    Product code outside :mod:`repro.obs` times with this (or with
    :func:`trace` spans) so the RL601 lint rule can flag stray ad-hoc
    ``time.perf_counter()`` timing.  Always live, metrics on or off.
    """
    return time.perf_counter()


def configure(*, enabled: bool | None = None, memory: bool | None = None,
              span_capacity: int | None = None) -> None:
    """Flip the process-global switches (``None`` leaves a switch as-is)."""
    if enabled is not None:
        _RUNTIME.enabled = bool(enabled)
    if memory is not None:
        _RUNTIME.memory = bool(memory)
    if span_capacity is not None:
        if span_capacity < 0:
            raise ValueError(f"span_capacity must be >= 0; got {span_capacity}")
        _RUNTIME.span_capacity = span_capacity


def reset() -> None:
    """Drop every recorded metric and span; restart the span clock."""
    _RUNTIME.registry = MetricsRegistry()
    _RUNTIME.spans = []
    _RUNTIME.dropped_spans = 0
    _RUNTIME.origin = time.perf_counter()
    _RUNTIME.local = threading.local()


def registry() -> MetricsRegistry:
    """The process-global registry (live object, not a copy)."""
    return _RUNTIME.registry


def spans() -> list[SpanRecord]:
    """Completed spans since the last :func:`reset` (shared list)."""
    return _RUNTIME.spans


def dropped_spans() -> int:
    """Spans discarded because the capacity cap was hit."""
    return _RUNTIME.dropped_spans


def _rss_kb() -> int | None:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _traced_alloc() -> int | None:
    import tracemalloc

    if not tracemalloc.is_tracing():
        return None
    current, _ = tracemalloc.get_traced_memory()
    return int(current)


class _NoopSpan:
    """The shared do-nothing span handed out whenever metrics are off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: times its ``with`` body and records on exit."""

    __slots__ = ("name", "labels", "_started", "_rss0", "_alloc0")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self._started = 0.0
        self._rss0: int | None = None
        self._alloc0: int | None = None

    def __enter__(self) -> "_Span":
        _RUNTIME.stack().append(self.name)
        if _RUNTIME.memory:
            self._rss0 = _rss_kb()
            self._alloc0 = _traced_alloc()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> None:
        finished = time.perf_counter()
        stack = _RUNTIME.stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        seconds = finished - self._started
        _RUNTIME.registry.histogram(
            SPAN_METRIC_PREFIX + self.name + ".seconds", SECONDS_BUCKETS
        ).observe(seconds)
        rss_delta: int | None = None
        alloc_bytes: int | None = None
        if _RUNTIME.memory:
            rss1 = _rss_kb()
            if rss1 is not None and self._rss0 is not None:
                rss_delta = rss1 - self._rss0
            alloc1 = _traced_alloc()
            if alloc1 is not None and self._alloc0 is not None:
                alloc_bytes = alloc1 - self._alloc0
        if len(_RUNTIME.spans) >= _RUNTIME.span_capacity:
            _RUNTIME.dropped_spans += 1
            return None
        _RUNTIME.spans.append(SpanRecord(
            name=self.name,
            seconds=seconds,
            start=self._started - _RUNTIME.origin,
            depth=len(stack),
            parent=stack[-1] if stack else None,
            labels=self.labels,
            rss_kb_delta=rss_delta,
            alloc_bytes=alloc_bytes,
        ))
        return None


def trace(name: str, **labels: Any) -> Union[_Span, _NoopSpan]:
    """A context manager timing ``name``; a shared no-op when disabled."""
    if not _RUNTIME.enabled:
        return _NOOP_SPAN
    return _Span(name, labels)


# ----------------------------------------------------------------------
# Guarded recording helpers (no-ops when disabled)
# ----------------------------------------------------------------------
def add(name: str, amount: float = 1) -> None:
    """Increment counter ``name`` (created on first use) when enabled."""
    if _RUNTIME.enabled:
        _RUNTIME.registry.counter(name).inc(amount)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` when enabled."""
    if _RUNTIME.enabled:
        _RUNTIME.registry.gauge(name).set(value)


def degraded(kind: str) -> None:
    """Count one graceful-degradation event under ``degraded.<kind>``.

    One counter family for every fallback in the stack (``pool_inline``,
    ``warm_to_cold``, ``memory_evicted``, ...) so a dashboard can alert on
    *any* silent quality loss with a single query.
    """
    if _RUNTIME.enabled:
        _RUNTIME.registry.counter("degraded." + kind).inc(1)


def observe(name: str, value: float,
            bounds: tuple[float, ...] = SECONDS_BUCKETS) -> None:
    """Observe one value into histogram ``name`` when enabled."""
    if _RUNTIME.enabled:
        _RUNTIME.registry.histogram(name, bounds).observe(value)


def observe_many(name: str, values: "Iterable[float] | np.ndarray[Any, Any]",
                 bounds: tuple[float, ...] = SECONDS_BUCKETS) -> None:
    """Observe a whole array into histogram ``name`` when enabled."""
    if _RUNTIME.enabled:
        _RUNTIME.registry.histogram(name, bounds).observe_many(values)


def phase_breakdown(source: MetricsRegistry | None = None) -> dict[str, dict[str, Any]]:
    """Per-phase rollup from the span histograms.

    Groups ``span.<group>.<rest>.seconds`` histograms by ``<group>`` and
    returns ``{group: {"seconds": total, "count": spans}}`` — the additive
    payload the service's ``stats`` op exposes.  Empty when nothing has
    been recorded (metrics off).
    """
    reg = source if source is not None else _RUNTIME.registry
    breakdown: dict[str, dict[str, Any]] = {}
    for metric in reg.metrics():
        name = metric.name
        if not isinstance(metric, Histogram) or not name.startswith(SPAN_METRIC_PREFIX):
            continue
        span_name = name[len(SPAN_METRIC_PREFIX):]
        if span_name.endswith(".seconds"):
            span_name = span_name[: -len(".seconds")]
        group = span_name.split(".", 1)[0]
        entry = breakdown.setdefault(group, {"seconds": 0.0, "count": 0})
        entry["seconds"] += metric.sum
        entry["count"] += metric.count
    return breakdown
