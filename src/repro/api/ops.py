"""Versioned typed request/response operations — the service protocol.

One schema, three fronts: :meth:`repro.sketch.service.InfluenceService.execute`,
:meth:`repro.api.session.InfluenceSession.execute`, and the ``serve`` /
``update`` CLI subcommands all speak these types.  The JSONL wire format is
unchanged from the dict protocol the service always used — these classes
*are* its schema, made explicit, validated, and versioned:

=================  ==========================================================
request            wire shape
=================  ==========================================================
`SelectRequest`    ``{"op": "select", "k": 10, "include": [..], "exclude": [..]}``
`SpreadRequest`    ``{"op": "spread", "seeds": [3, 17, 42]}``
`MarginalRequest`  ``{"op": "marginal_gain", "seeds": [..], "candidate": 42}``
`UpdateRequest`    ``{"op": "update", "action": "insert", "u": 3, "v": 7, "p": 0.2}``
`StatsRequest`     ``{"op": "stats"}``
=================  ==========================================================

Every request additionally accepts ``id`` (echoed on the response),
``model`` (where meaningful) and ``schema_version``; anything else is an
**error** (``unknown_field``) — a typo like ``"includ"`` used to be silently
ignored, now it comes back as a structured payload::

    {"ok": false, "error": {"code": "unknown_field", "message": ...}, ...}

Responses carry ``schema_version`` so clients can detect protocol drift;
:data:`SCHEMA_VERSION` bumps only on breaking wire changes.  Both sides
round-trip: ``parse_request(req.to_wire()) == req`` and
``response_from_wire(resp.to_wire()) == resp`` (modulo float latency),
which the golden-fixture suite in ``tests/api`` pins.

The three reads have one handler, :func:`answer`: given a
:class:`~repro.sketch.index.SketchIndex` it builds the ``select``,
``spread`` or ``marginal_gain`` response, and both fronts call it once they
hold an index — the service after its LRU lookup (stamping ``cache``), the
session after growing its sketch for the request's ``k``.  Updates and
stats stay with each front, which owns the graph and the counters;
:func:`as_edge_update` is the one coercion of an update's accepted shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, ClassVar

from repro.faults.errors import error_code, is_retryable
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.dynamic.updates import EdgeUpdate
    from repro.sketch.index import SketchIndex

__all__ = [
    "SCHEMA_VERSION",
    "ApiError",
    "Request",
    "SelectRequest",
    "SpreadRequest",
    "MarginalRequest",
    "UpdateRequest",
    "StatsRequest",
    "Response",
    "SelectResponse",
    "SpreadResponse",
    "MarginalResponse",
    "UpdateResponse",
    "StatsResponse",
    "ErrorResponse",
    "parse_request",
    "response_from_wire",
    "answer",
    "as_edge_update",
]

#: Protocol version stamped on every response (and accepted on requests).
#: Bumps only on breaking wire-format changes.
SCHEMA_VERSION = 1


class ApiError(ValueError):
    """A protocol-level failure with a stable machine-readable code.

    Codes: ``bad_request`` (malformed value), ``unknown_op``,
    ``unknown_field`` (typo'd key), ``unsupported_schema_version``,
    ``invalid_json`` (JSONL decode failures).  Runtime failures surface
    through the :mod:`repro.faults.errors` taxonomy instead —
    ``transient``, ``fatal``, ``deadline_exceeded``, ``resource_exhausted``
    — with the payload's ``retryable`` flag telling clients whether a
    resubmit can help.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    @property
    def message(self) -> str:
        return self.args[0]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_tuple(value: object, what: str) -> tuple[int, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise ApiError("bad_request", f"{what} must be a list of integers; got {value!r}")
    out: list[int] = []
    for item in value:
        if not _is_int(item):
            raise ApiError("bad_request", f"{what} must contain only integers; got {item!r}")
        out.append(int(item))
    return tuple(out)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Request:
    """Base request: ``id`` is opaque and echoed back on the response.

    ``deadline_ms`` (any op, optional) caps the request's wall clock:
    past the budget the service answers with a structured
    ``deadline_exceeded`` error instead of keeping the caller waiting.
    """

    op: ClassVar[str] = ""
    #: Wire keys this op accepts beyond its dataclass fields.
    _extra_keys: ClassVar[frozenset[str]] = frozenset()

    id: object = None
    deadline_ms: int | float | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is None:
            return
        if (isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, (int, float))
                or self.deadline_ms <= 0):
            raise ApiError(
                "bad_request",
                f"deadline_ms must be a number > 0; got {self.deadline_ms!r}")

    @classmethod
    def allowed_keys(cls) -> frozenset[str]:
        own = {f.name for f in fields(cls)}
        return frozenset(own | {"op", "schema_version"} | cls._extra_keys)

    def _payload(self) -> dict[str, Any]:
        """Op-specific wire keys (compact: defaults are omitted)."""
        return {}

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {"op": self.op, "schema_version": SCHEMA_VERSION}
        if self.id is not None:
            wire["id"] = self.id
        if self.deadline_ms is not None:
            wire["deadline_ms"] = self.deadline_ms
        wire.update(self._payload())
        return wire


@dataclass(frozen=True, kw_only=True)
class _ModelRequest(Request):
    """Requests that may name a diffusion model (default: the serve-level one)."""

    model: str | None = None

    def _payload(self) -> dict[str, Any]:
        return {"model": self.model} if self.model is not None else {}


@dataclass(frozen=True, kw_only=True)
class SelectRequest(_ModelRequest):
    """Greedy seed selection over the sketch for budget ``k``."""

    op: ClassVar[str] = "select"

    k: int
    include: tuple[int, ...] = ()
    exclude: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not _is_int(self.k) or self.k < 1:
            raise ApiError("bad_request", f"select needs an integer k >= 1; got {self.k!r}")
        object.__setattr__(self, "include", _int_tuple(self.include, "include"))
        object.__setattr__(self, "exclude", _int_tuple(self.exclude, "exclude"))

    def _payload(self) -> dict[str, Any]:
        payload = super()._payload()
        payload["k"] = self.k
        if self.include:
            payload["include"] = list(self.include)
        if self.exclude:
            payload["exclude"] = list(self.exclude)
        return payload


@dataclass(frozen=True, kw_only=True)
class SpreadRequest(_ModelRequest):
    """Corollary-1 spread estimate of a fixed seed set."""

    op: ClassVar[str] = "spread"

    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "seeds", _int_tuple(self.seeds, "seeds"))
        if not self.seeds:
            raise ApiError("bad_request", "spread needs a non-empty seeds list")

    def _payload(self) -> dict[str, Any]:
        payload = super()._payload()
        payload["seeds"] = list(self.seeds)
        return payload


@dataclass(frozen=True, kw_only=True)
class MarginalRequest(_ModelRequest):
    """Marginal spread gain of ``candidate`` on top of ``seeds``."""

    op: ClassVar[str] = "marginal_gain"

    seeds: tuple[int, ...]
    candidate: int

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "seeds", _int_tuple(self.seeds, "seeds"))
        if not _is_int(self.candidate):
            raise ApiError("bad_request",
                           f"marginal_gain needs an integer candidate; got {self.candidate!r}")

    def _payload(self) -> dict[str, Any]:
        payload = super()._payload()
        payload["seeds"] = list(self.seeds)
        payload["candidate"] = self.candidate
        return payload


@dataclass(frozen=True, kw_only=True)
class UpdateRequest(Request):
    """One edge mutation: insert / delete / reweight."""

    op: ClassVar[str] = "update"
    _extra_keys: ClassVar[frozenset[str]] = frozenset({"prob"})  # legacy alias of "p"

    action: str
    u: int
    v: int
    p: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        # EdgeUpdate owns the domain validation (action set, probability
        # range, delete-takes-no-p); surface its message under bad_request.
        try:
            self.to_edge_update()
        except ValueError as exc:
            raise ApiError("bad_request", str(exc)) from None

    def to_edge_update(self) -> "EdgeUpdate":
        from repro.dynamic.updates import EdgeUpdate

        return EdgeUpdate(action=self.action, u=self.u, v=self.v,
                          prob=None if self.p is None else float(self.p))

    def _payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"action": self.action, "u": self.u, "v": self.v}
        if self.p is not None:
            payload["p"] = float(self.p)
        return payload


@dataclass(frozen=True, kw_only=True)
class StatsRequest(Request):
    """Service-level counters (queries, cache hits, repairs, latency)."""

    op: ClassVar[str] = "stats"


_REQUEST_TYPES: dict[str, type[Request]] = {
    cls.op: cls
    for cls in (SelectRequest, SpreadRequest, MarginalRequest, UpdateRequest, StatsRequest)
}


def _check_schema_version(wire: dict[str, Any]) -> None:
    version = wire.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        raise ApiError(
            "unsupported_schema_version",
            f"this server speaks schema_version {SCHEMA_VERSION}; request "
            f"declared {version!r}",
        )


def parse_request(request: object) -> Request:
    """Typed, strictly-validated request from a wire dict (or passthrough).

    Raises :class:`ApiError` — never a bare ``ValueError`` — so callers can
    map failures onto structured error payloads.  Unknown keys are rejected
    (``unknown_field``): silently ignoring a typo'd ``"includ"`` key would
    return a *wrong answer* that looks healthy.
    """
    if isinstance(request, Request):
        return request
    if not isinstance(request, dict):
        raise ApiError("bad_request", "request must be a JSON object")
    op = request.get("op")
    if not isinstance(op, str):
        raise ApiError("bad_request", "request needs an 'op' string")
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise ApiError(
            "unknown_op",
            f"unknown op {op!r}; expected one of {sorted(_REQUEST_TYPES)}",
        )
    _check_schema_version(request)
    unknown = sorted(set(request) - cls.allowed_keys())
    if unknown:
        allowed = sorted(cls.allowed_keys())
        raise ApiError(
            "unknown_field",
            f"unknown field(s) for op '{op}': {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}",
        )
    kwargs = {
        key: value for key, value in request.items()
        if key not in ("op", "schema_version")
    }
    if cls is UpdateRequest and "prob" in kwargs:
        value = kwargs.pop("prob")
        if "p" in kwargs and kwargs["p"] != value:
            raise ApiError("bad_request", "update carries conflicting 'p' and 'prob'")
        kwargs["p"] = value
    try:
        return cls(**kwargs)
    except ApiError:
        raise
    except (TypeError, ValueError) as exc:
        raise ApiError("bad_request", str(exc)) from None


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class Response:
    """Base response envelope; ``to_wire()`` emits the JSONL shape."""

    op: ClassVar[str] = ""
    ok: ClassVar[bool] = True

    id: object = None
    cache: str | None = None
    latency_ms: float = 0.0
    schema_version: int = SCHEMA_VERSION

    def result(self) -> dict[str, Any]:
        """The op-specific ``"result"`` payload."""
        return {}

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {}
        if self.id is not None:
            wire["id"] = self.id
        wire["op"] = self.op
        wire["ok"] = True
        wire["schema_version"] = self.schema_version
        if self.cache is not None:
            wire["cache"] = self.cache
        wire["result"] = self.result()
        wire["latency_ms"] = self.latency_ms
        return wire


@dataclass(kw_only=True)
class SelectResponse(Response):
    op: ClassVar[str] = "select"

    seeds: list[int] = field(default_factory=list)
    coverage_fraction: float = 0.0
    estimated_spread: float = 0.0
    num_rr_sets: int = 0

    def result(self) -> dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "coverage_fraction": self.coverage_fraction,
            "estimated_spread": self.estimated_spread,
            "num_rr_sets": self.num_rr_sets,
        }


@dataclass(kw_only=True)
class SpreadResponse(Response):
    op: ClassVar[str] = "spread"

    spread: float = 0.0
    coverage_fraction: float = 0.0
    num_rr_sets: int = 0

    def result(self) -> dict[str, Any]:
        return {
            "spread": self.spread,
            "coverage_fraction": self.coverage_fraction,
            "num_rr_sets": self.num_rr_sets,
        }


@dataclass(kw_only=True)
class MarginalResponse(Response):
    op: ClassVar[str] = "marginal_gain"

    gain: float = 0.0
    num_rr_sets: int = 0

    def result(self) -> dict[str, Any]:
        return {"gain": self.gain, "num_rr_sets": self.num_rr_sets}


@dataclass(kw_only=True)
class UpdateResponse(Response):
    op: ClassVar[str] = "update"

    action: str = ""
    u: int = -1
    v: int = -1
    version: int = 0
    fingerprint: str = ""
    num_edges: int = 0
    repaired_indexes: list[Any] = field(default_factory=list)

    def result(self) -> dict[str, Any]:
        return {
            "action": self.action,
            "u": self.u,
            "v": self.v,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "num_edges": self.num_edges,
            "repaired_indexes": list(self.repaired_indexes),
        }


@dataclass(kw_only=True)
class StatsResponse(Response):
    """Service counters (``ServiceStats.as_dict()``) as one flat dict.

    The payload grows **additively** under ``schema_version=1``: the
    historical keys (``queries``, ``errors``, cache/build/repair counters,
    ``total_latency_seconds``, ``mean_latency_ms``, ``queries_per_second``,
    ``per_op``) stay byte-identical, and :mod:`repro.obs` appended
    ``error_latency_seconds``, ``success_mean_latency_ms``, interpolated
    ``latency_p50_ms`` / ``latency_p90_ms`` / ``latency_p99_ms``, and the
    per-phase span rollup under ``phases`` (empty unless metrics are on).
    Consumers must tolerate new keys.
    """

    op: ClassVar[str] = "stats"

    stats: dict[str, Any] = field(default_factory=dict)

    def result(self) -> dict[str, Any]:
        return dict(self.stats)


@dataclass(kw_only=True)
class ErrorResponse(Response):
    """Structured failure: a stable ``code`` plus a human message.

    ``retryable`` (additive under ``schema_version=1``) tells clients
    whether resubmitting the same request may succeed — ``True`` for
    transient runtime failures and resource exhaustion, ``False`` for
    protocol errors, fatal failures, and blown deadlines.
    """

    ok: ClassVar[bool] = False

    code: str = "bad_request"
    message: str = ""
    retryable: bool = False
    failed_op: str | None = None
    line: int | None = None

    @classmethod
    def from_exception(cls, exc: Exception, *, op: str | None = None,
                       id: Any = None, line: int | None = None) -> "ErrorResponse":
        # ApiError and the repro.faults taxonomy both carry .code; anything
        # else maps through error_code (MemoryError → resource_exhausted,
        # fallback bad_request).
        code = error_code(exc)
        # str(KeyError) is the repr of its argument — unwrap the quotes.
        message = (str(exc.args[0]) if isinstance(exc, KeyError) and exc.args
                   else str(exc))
        return cls(code=code, message=message, retryable=is_retryable(exc),
                   failed_op=op, id=id, line=line)

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {}
        if self.id is not None:
            wire["id"] = self.id
        if self.failed_op is not None:
            wire["op"] = self.failed_op
        wire["ok"] = False
        wire["schema_version"] = self.schema_version
        if self.line is not None:
            wire["line"] = self.line
        wire["error"] = {"code": self.code, "message": self.message,
                         "retryable": self.retryable}
        wire["latency_ms"] = self.latency_ms
        return wire


_RESPONSE_TYPES: dict[str, type[Response]] = {
    cls.op: cls
    for cls in (SelectResponse, SpreadResponse, MarginalResponse,
                UpdateResponse, StatsResponse)
}


def response_from_wire(wire: dict[str, Any]) -> Response:
    """Rebuild a typed response from its JSONL form (client-side helper)."""
    require(isinstance(wire, dict), "response wire form must be a JSON object")
    _check_schema_version(wire)
    common: dict[str, Any] = {
        "id": wire.get("id"),
        "latency_ms": wire.get("latency_ms", 0.0),
        "schema_version": wire.get("schema_version", SCHEMA_VERSION),
    }
    if not wire.get("ok", False):
        error = wire.get("error")
        retryable = False
        if isinstance(error, dict):
            code, message = error.get("code", "bad_request"), error.get("message", "")
            retryable = bool(error.get("retryable", False))
        else:  # pre-v1 stringly-typed error payloads
            code, message = "bad_request", str(error)
        return ErrorResponse(code=code, message=message, retryable=retryable,
                             failed_op=wire.get("op"), line=wire.get("line"),
                             **common)
    op = wire.get("op")
    cls = _RESPONSE_TYPES.get(op)
    if cls is None:
        raise ApiError("unknown_op", f"unknown response op {op!r}")
    common["cache"] = wire.get("cache")
    result = wire.get("result") or {}
    if cls is StatsResponse:
        return StatsResponse(stats=dict(result), **common)
    try:
        return cls(**result, **common)
    except TypeError as exc:
        raise ApiError("bad_request", f"malformed {op} result payload: {exc}") from None


# ----------------------------------------------------------------------
# The read handler and the update coercion both fronts share
# ----------------------------------------------------------------------
def answer(index: SketchIndex, request: Request) -> Response:
    """Answer a ``select``, ``spread`` or ``marginal_gain`` request on ``index``.

    The one place those three responses are built.  The envelope (``id``,
    ``cache``, ``latency_ms``) is the calling front's to stamp.  An update
    or stats request is not a read of the sketch and raises
    :class:`ApiError`; each front answers those itself.
    """
    if isinstance(request, SelectRequest):
        result = index.select(request.k, forced_include=request.include,
                              forced_exclude=request.exclude)
        return SelectResponse(
            seeds=result.seeds,
            coverage_fraction=result.fraction,
            estimated_spread=index.num_nodes * result.fraction,
            num_rr_sets=index.num_sets,
        )
    if isinstance(request, SpreadRequest):
        # One postings union; n * F_R(S) is what index.spread returns.
        fraction = index.coverage_fraction(request.seeds)
        return SpreadResponse(
            spread=index.num_nodes * fraction,
            coverage_fraction=fraction,
            num_rr_sets=index.num_sets,
        )
    if isinstance(request, MarginalRequest):
        return MarginalResponse(
            gain=index.marginal_gain(request.seeds, request.candidate),
            num_rr_sets=index.num_sets,
        )
    raise ApiError("bad_request", f"{request.op!r} is not a read of the sketch")


def as_edge_update(update: EdgeUpdate | UpdateRequest | dict[str, Any]) -> EdgeUpdate:
    """The :class:`~repro.dynamic.updates.EdgeUpdate` an update names.

    Accepts an ``EdgeUpdate``, an :class:`UpdateRequest` or a request dict
    (with or without the ``"op"`` envelope).
    """
    from repro.dynamic.updates import EdgeUpdate, parse_update

    if isinstance(update, UpdateRequest):
        return update.to_edge_update()
    if isinstance(update, EdgeUpdate):
        return update
    return parse_update(update)
