"""`InfluenceService` — an in-process influence-query server over sketches.

The service front of :mod:`repro.sketch`: it keeps an LRU cache of
:class:`~repro.sketch.index.SketchIndex` objects keyed by
``(graph fingerprint, model name)``, builds an index on first touch
(cold miss) and serves every later query from the cached sketch (warm hit).
This is the "build a sketch once, answer millions of queries" shape the
ROADMAP's serving north-star asks for, mirrored in miniature: the
``repro-im serve`` CLI wraps one service instance around a JSONL request
stream and reports per-query latency plus hit/miss statistics.

Request format (one JSON object per line)::

    {"op": "select", "k": 10}
    {"op": "select", "k": 10, "include": [3], "exclude": [7]}
    {"op": "spread", "seeds": [3, 17, 42]}
    {"op": "marginal_gain", "seeds": [3, 17], "candidate": 42}
    {"op": "update", "action": "insert", "u": 3, "v": 7, "p": 0.2}
    {"op": "update", "action": "delete", "u": 3, "v": 7}
    {"op": "update", "action": "reweight", "u": 3, "v": 7, "p": 0.05}
    {"op": "stats"}

``update`` requires the service to be driven with a
:class:`~repro.dynamic.graph.DynamicDiGraph` (the CLI's ``serve`` wraps the
loaded graph in one): the edge mutation lands on the dynamic graph and every
cached index for the pre-update snapshot is *repaired in place* — only the
affected RR sets resampled — then re-keyed under the new fingerprint, so
the stale key vacates the cache atomically instead of lingering until LRU
pressure evicts it.

Responses echo ``op`` (and ``id`` when the request carries one) and add
``result``, ``latency_ms``, ``cache`` (``"hit"``/``"miss"``) and
``schema_version``.  Failures come back as structured payloads —
``{"ok": false, "error": {"code": ..., "message": ..., "retryable": ...}}``
— instead of raising, so one bad request cannot take down a batch; unknown
request fields are rejected (``unknown_field``) rather than silently
ignored.  Idempotent requests get one deterministic retry of transient
failures (``update`` never replays), and a request carrying ``deadline_ms``
(or a service-level default) that blows its budget returns a structured
``deadline_exceeded`` error rather than hanging the loop.

The protocol itself lives in :mod:`repro.api.ops`: :meth:`execute` is the
typed front (``SelectRequest`` in, ``SelectResponse`` out; wire dicts are
parsed on the way in, and ``.to_wire()`` gives the payload back) and is
what ``run_batch`` and the CLI speak.  Reads are answered by the handler
:func:`repro.api.ops.answer` that :class:`~repro.api.session.InfluenceSession`
also uses; the service adds the LRU lookup and the ``cache`` stamp.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Iterable

from repro.api.ops import (
    ApiError,
    ErrorResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    answer,
    as_edge_update,
    parse_request,
)
from repro.api.policy import SERVING_POLICY, ExecutionPolicy
from repro.diffusion.base import resolve_model
from repro.faults import injection as faults
from repro.faults.errors import DeadlineExceeded, ReproError
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.obs import runtime as obs
from repro.obs.registry import LATENCY_MS_BUCKETS, Histogram
from repro.sketch.index import SketchIndex
from repro.utils.rng import resolve_rng
from repro.utils.validation import require

__all__ = ["InfluenceService", "ServiceStats"]


class ServiceStats:
    """Aggregate counters the service maintains across queries.

    ``as_dict()`` keeps every historical key byte-identical — including
    ``mean_latency_ms``/``queries_per_second`` averaging over all requests,
    errors included — and appends additive fields: the error/success
    latency split and interpolated p50/p90/p99 request latency from a
    fixed-bucket histogram (deterministic; no reservoir sampling).
    """

    def __init__(self) -> None:
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.evictions = 0
        self.builds = 0
        self.repairs = 0
        self.retries = 0
        self.sets_resampled = 0
        # Error latency is kept apart from the total so the success-only
        # mean is not polluted by cheap fast-fail requests.
        self.total_latency_seconds = 0.0
        self.error_latency_seconds = 0.0
        self.latency = Histogram("service.request_latency_ms", LATENCY_MS_BUCKETS)
        self.per_op: dict[str, int] = {}

    def record_latency(self, seconds: float, *, error: bool) -> None:
        """Fold one request's wall-clock into every latency aggregate."""
        self.total_latency_seconds += seconds
        if error:
            self.error_latency_seconds += seconds
        self.latency.observe(1000.0 * seconds)
        # Mirror into the process-global registry (no-op when metrics are
        # off) so --metrics-out exports carry request latency alongside
        # the span histograms.
        obs.observe("service.request_latency_ms", 1000.0 * seconds,
                    bounds=LATENCY_MS_BUCKETS)

    @property
    def mean_latency_ms(self) -> float:
        if self.queries == 0:
            return 0.0
        return float(1000.0 * self.total_latency_seconds / self.queries)

    @property
    def queries_per_second(self) -> float:
        if self.total_latency_seconds <= 0.0:
            return 0.0
        return float(self.queries / self.total_latency_seconds)

    @property
    def success_mean_latency_ms(self) -> float:
        """Mean latency over successful requests only (errors excluded)."""
        successes = self.queries - self.errors
        if successes <= 0:
            return 0.0
        seconds = self.total_latency_seconds - self.error_latency_seconds
        return float(1000.0 * seconds / successes)

    def as_dict(self) -> dict[str, Any]:
        return {
            "queries": self.queries,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "builds": self.builds,
            "repairs": self.repairs,
            "retries": self.retries,
            "sets_resampled": self.sets_resampled,
            "mean_latency_ms": self.mean_latency_ms,
            "queries_per_second": self.queries_per_second,
            "per_op": dict(self.per_op),
            # Additive fields (schema_version stays 1): the error/success
            # latency split plus deterministic interpolated percentiles.
            "error_latency_seconds": self.error_latency_seconds,
            "success_mean_latency_ms": self.success_mean_latency_ms,
            "latency_p50_ms": self.latency.percentile(0.50),
            "latency_p90_ms": self.latency.percentile(0.90),
            "latency_p99_ms": self.latency.percentile(0.99),
        }


class InfluenceService:
    """LRU of sketch indexes plus a uniform query front.

    Reads are answered by :func:`repro.api.ops.answer` on the cached index,
    as the session answers them on its own; unlike a session, the service
    never re-prices θ for a request's ``k``.

    Parameters
    ----------
    max_indexes:
        Capacity of the LRU; the least-recently-used index is evicted when a
        build would exceed it.
    default_k:
        Budget whose θ a cold miss prices at ``policy.epsilon`` with
        :func:`repro.core.pricing.price`, under ``policy.algorithm``
        (``"imm"`` selects IMM's rule, anything else TIM's), as a session
        does; ``theta`` overrides the pricing with a fixed sketch size.
    policy:
        The :class:`~repro.api.policy.ExecutionPolicy` (or a dict of its
        fields) for cold builds and requests: ``epsilon``/``ell`` price θ;
        ``jobs`` shards cold builds across worker processes (sketch bytes
        are worker-count invariant, so the cache key needs no ``jobs`` term);
        ``trace_edges`` records live-edge traces so ``update`` requests
        invalidate precisely (IC/LT); ``deadline_ms`` is the default
        per-request budget, past which a request comes back as a structured
        ``deadline_exceeded`` error (a request's own ``deadline_ms``
        overrides it).  ``None`` means
        :data:`~repro.api.policy.SERVING_POLICY` (ε = 0.3).
    rng:
        Seed/source for cold builds, so a service run is reproducible.
    memory_budget_bytes:
        Soft cap on the summed ``nbytes`` of cached sketches; before a cold
        build (and after any insert) least-recently-used indexes are
        evicted until the resident set fits, keeping at least one index.
    retry:
        :class:`~repro.faults.retry.RetryPolicy` for idempotent request
        dispatch (default: one deterministic retry of transient failures;
        ``update`` requests are never replayed — graph mutation is not
        idempotent).
    """

    #: One free redo of an idempotent query whose transient cause (crashed
    #: pool, injected chaos fault, post-eviction MemoryError) may have
    #: cleared; milliseconds-scale backoff so batches never stall visibly.
    DEFAULT_DISPATCH_RETRY = RetryPolicy(max_attempts=2, base_delay_ms=1.0,
                                         max_delay_ms=10.0)

    def __init__(self, max_indexes: int = 4, *, default_k: int = 10,
                 theta: int | None = None,
                 policy: ExecutionPolicy | dict[str, Any] | None = None,
                 rng: Any = None, memory_budget_bytes: int | None = None,
                 retry: RetryPolicy | None = None) -> None:
        require(max_indexes >= 1, "max_indexes must be >= 1")
        self.max_indexes = int(max_indexes)
        self.default_k = int(default_k)
        self.theta = theta
        self.policy = SERVING_POLICY if policy is None else ExecutionPolicy.coerce(policy)
        require(memory_budget_bytes is None or memory_budget_bytes > 0,
                f"memory_budget_bytes must be > 0; got {memory_budget_bytes!r}")
        self.memory_budget_bytes = memory_budget_bytes
        self._retry = retry if retry is not None else self.DEFAULT_DISPATCH_RETRY
        self._rng = resolve_rng(rng)
        self._indexes: "OrderedDict[tuple[str, str], SketchIndex]" = OrderedDict()
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # Index cache
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_graph(graph: Any) -> Any:
        """Accept either a plain snapshot or a dynamic overlay."""
        current = getattr(graph, "graph", None)
        return current if current is not None else graph

    @classmethod
    def _key(cls, graph: Any, model: Any) -> tuple[str, str]:
        return (cls._resolve_graph(graph).fingerprint(), resolve_model(model).name)

    def add_index(self, index: SketchIndex, graph: Any = None) -> tuple[str, str]:
        """Register a pre-built/loaded index (e.g. from a sketch file)."""
        graph = graph if graph is not None else index.graph
        fingerprint = index.meta.get("graph_fingerprint")
        if fingerprint is None:
            require(graph is not None, "index carries no fingerprint and no graph")
            fingerprint = graph.fingerprint()
        key = (fingerprint, index.meta["model"])
        self._indexes[key] = index
        self._indexes.move_to_end(key)
        self._evict()
        return key

    def get_index(self, graph: Any, model: Any = "IC") -> tuple[SketchIndex, bool]:
        """Return ``(index, was_cached)`` for the graph/model, building on miss."""
        key = self._key(graph, model)
        cached = self._indexes.get(key)
        if cached is not None:
            self._indexes.move_to_end(key)
            self.stats.cache_hits += 1
            return cached, True
        self.stats.cache_misses += 1
        self.stats.builds += 1
        if self.memory_budget_bytes is not None:
            # Free headroom *before* the build allocates a graph-sized
            # sketch, not after the allocation already spiked.
            doomed: list[SketchIndex] = []
            self._enforce_memory_budget(doomed)
            self._close_all(doomed)
        index = SketchIndex.build(
            self._resolve_graph(graph),
            model,
            theta=self.theta,
            k=None if self.theta is not None else self.default_k,
            rng=self._rng.spawn(),
            policy=self.policy,
        )
        self._indexes[key] = index
        self._evict()
        return index, False

    @staticmethod
    def _close_all(indexes: list[SketchIndex]) -> None:
        """Close every index; the *first* failure re-raises after all run.

        One index whose pool teardown blows up must not leak the worker
        pools and shared-memory segments of the indexes behind it.
        """
        failure: BaseException | None = None
        for index in indexes:
            try:
                index.close()
            except Exception as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _evict(self) -> None:
        doomed: list[SketchIndex] = []
        while len(self._indexes) > self.max_indexes:
            _, evicted = self._indexes.popitem(last=False)
            doomed.append(evicted)
            self.stats.evictions += 1
        self._enforce_memory_budget(doomed)
        # Pools and SHM segments are released only after *every* victim has
        # left the cache, so one failing close() cannot strand the rest.
        self._close_all(doomed)

    def memory_bytes(self) -> int:
        """Exact resident bytes of all cached sketch payloads."""
        return sum(index.collection.nbytes() for index in self._indexes.values())

    def _enforce_memory_budget(self, doomed: list[SketchIndex]) -> None:
        """Pop LRU indexes into ``doomed`` until the resident set fits."""
        if self.memory_budget_bytes is not None:
            while (len(self._indexes) > 1
                   and self.memory_bytes() > self.memory_budget_bytes):
                _, evicted = self._indexes.popitem(last=False)
                doomed.append(evicted)
                self.stats.evictions += 1
                obs.degraded("memory_evicted")
        obs.gauge_set("service.memory_bytes", float(self.memory_bytes()))

    def close(self) -> None:
        """Shut down every cached index's sampling pool (queries still work)."""
        self._close_all(list(self._indexes.values()))

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def apply_update(self, dynamic: Any, update: Any) -> dict[str, Any]:
        """Apply one edge update and repair every cached index it staled.

        ``dynamic`` must be a :class:`~repro.dynamic.graph.DynamicDiGraph`;
        ``update`` an :class:`~repro.dynamic.updates.EdgeUpdate`, an
        :class:`~repro.api.ops.UpdateRequest` or a request dict.  The update is *previewed* first: the post-update
        snapshot is validated against every cached model before anything
        mutates, so a rejected update (missing edge, LT weight-sum
        violation, ...) leaves the dynamic graph, the cache, and every
        index — pools included — exactly as they were.  On success each
        cached index keyed by the pre-update fingerprint (one per model) is
        repaired and re-keyed under the new fingerprint — the stale key
        leaves the cache in the same step, so no query can ever hit an
        index whose fingerprint no longer matches the graph.  Models
        without a cached index cost nothing now and cold-build on their
        next query, as usual.
        """
        from repro.dynamic.graph import DynamicDiGraph

        require(isinstance(dynamic, DynamicDiGraph),
                "updates need a DynamicDiGraph (got a plain graph; wrap it "
                "in repro.dynamic.DynamicDiGraph to enable mutation)")
        update = as_edge_update(update)
        delta = dynamic.preview(update)
        keys = [k for k in self._indexes if k[0] == delta.old_fingerprint]
        for _, model_name in keys:
            # Fail the whole op before any index is touched if the new
            # snapshot is invalid for a cached model.
            resolve_model(model_name).validate_graph(delta.new_graph)
        repaired: list[dict[str, Any]] = []
        for key in keys:
            index = self._indexes[key]
            report = index.apply_update(delta, rng=self._rng.spawn())
            # Only re-key once the repair has succeeded; a raise above
            # leaves the index cached (and closeable) under its old key.
            del self._indexes[key]
            new_key = (delta.new_fingerprint, key[1])
            self._indexes[new_key] = index
            self._indexes.move_to_end(new_key)
            self.stats.repairs += 1
            self.stats.sets_resampled += report.num_affected
            repaired.append(report.as_dict())
        dynamic.commit(delta)
        return {
            "action": update.action,
            "u": update.u,
            "v": update.v,
            "version": dynamic.version,
            "fingerprint": delta.new_fingerprint,
            "num_edges": dynamic.m,
            "repaired_indexes": repaired,
        }

    def __len__(self) -> int:
        return len(self._indexes)

    def cached_keys(self) -> list[tuple[str, str]]:
        return list(self._indexes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _dispatch(self, graph: Any, request: Request, model: Any) -> Response:
        """Route one *typed* request to its handler; may raise."""
        if isinstance(request, StatsRequest):
            payload = self.stats.as_dict()
            # Additive per-phase rollup from the global tracer: empty when
            # metrics are off, {"kpt": {"seconds": ..., "count": ...}, ...}
            # when REPRO_METRICS/--metrics-out enabled span recording.
            payload["phases"] = obs.phase_breakdown()
            return StatsResponse(stats=payload, cache="n/a")
        if isinstance(request, UpdateRequest):
            report = self.apply_update(graph, request)
            return UpdateResponse(cache="n/a", **report)
        resolved_model = getattr(request, "model", None) or model or "IC"
        index, was_cached = self.get_index(graph, resolved_model)
        response = answer(index, request)
        response.cache = "hit" if was_cached else "miss"
        return response

    def _dispatch_retrying(self, graph: Any, request: Request,
                           model: Any) -> Response:
        """Dispatch with the service retry policy (idempotent ops only)."""

        def attempt() -> Response:
            faults.checkpoint("serve.dispatch")
            return self._dispatch(graph, request, model)

        if isinstance(request, UpdateRequest):
            # Graph mutation is not idempotent: a replay after a partial
            # failure could double-apply.  One attempt, structured error.
            return attempt()

        def note_retry(attempt_number: int, exc: BaseException) -> None:
            self.stats.retries += 1
            obs.add("serve.retries")

        return call_with_retry(attempt, policy=self._retry, on_retry=note_retry)

    def execute(self, graph: Any, request: Any, model: Any = None) -> Response:
        """Answer one typed request (or wire dict); never raises on bad input.

        The single protocol front: :class:`~repro.api.ops.Request` in,
        :class:`~repro.api.ops.Response` out, with latency and hit/miss
        bookkeeping.  ``model`` on the request overrides the call-level
        default, which overrides ``"IC"``.  Failures — protocol errors and
        domain rejections alike — come back as
        :class:`~repro.api.ops.ErrorResponse` with a stable ``code``.
        """
        started = obs.now()
        op: str | None = None
        request_id: object = None
        response: Response | None = None
        if isinstance(request, dict):
            # Best-effort envelope echo even when parsing fails.
            op = request.get("op") if isinstance(request.get("op"), str) else None
            request_id = request.get("id")
        try:
            with obs.trace("serve.request"):
                typed = parse_request(request)
                op, request_id = typed.op, typed.id
                budget = (typed.deadline_ms if typed.deadline_ms is not None
                          else self.policy.deadline_ms)
                with faults.deadline_scope(budget):
                    response = self._dispatch_retrying(graph, typed, model)
                response.id = request_id
        except DeadlineExceeded as exc:
            obs.add("serve.deadline_exceeded")
            response = ErrorResponse.from_exception(exc, op=op, id=request_id)
            self.stats.errors += 1
        except (ApiError, ReproError, MemoryError,
                ValueError, KeyError, TypeError) as exc:
            response = ErrorResponse.from_exception(exc, op=op, id=request_id)
            self.stats.errors += 1
        finally:
            elapsed = obs.now() - started
            if response is not None:
                response.latency_ms = 1000.0 * elapsed
            self.stats.queries += 1
            self.stats.record_latency(
                elapsed, error=isinstance(response, ErrorResponse))
            op_name = op or "<missing>"
            self.stats.per_op[op_name] = self.stats.per_op.get(op_name, 0) + 1
        return response

    def run_batch(self, graph: Any, lines: Iterable[str],
                  model: Any = None) -> list[dict[str, Any]]:
        """Answer a JSONL request stream; blank lines and ``#`` comments skip."""
        responses: list[dict[str, Any]] = []
        for line_number, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                request = json.loads(text)
            except json.JSONDecodeError as exc:
                self.stats.queries += 1
                self.stats.errors += 1
                responses.append(ErrorResponse(
                    code="invalid_json",
                    message=f"invalid JSON: {exc}",
                    line=line_number,
                ).to_wire())
                continue
            responses.append(self.execute(graph, request, model=model).to_wire())
        return responses
