"""Unified typed API surface (`repro.api`).

Three layers, consumed together or separately:

* :class:`~repro.api.policy.ExecutionPolicy` — one frozen, validated
  object for every execution knob (jobs, trace_edges, ε, ℓ, metrics,
  deadline, algorithm) with explicit env/CLI/call-site resolution;
* :class:`~repro.api.session.InfluenceSession` — the Python caller's
  facade owning graph + dynamic overlay + sketch + pool lifecycle;
* :mod:`repro.api.ops` — the versioned typed request/response operations
  (``SelectRequest`` … ``StatsRequest`` → typed responses carrying
  ``schema_version``) that are the single protocol behind
  :class:`~repro.sketch.service.InfluenceService`, ``run_batch``, and the
  ``serve``/``update`` CLI subcommands.
"""

from typing import Any

from repro.api.ops import (
    SCHEMA_VERSION,
    ApiError,
    ErrorResponse,
    MarginalRequest,
    MarginalResponse,
    Request,
    Response,
    SelectRequest,
    SelectResponse,
    SpreadRequest,
    SpreadResponse,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    parse_request,
    response_from_wire,
)
from repro.api.policy import ExecutionPolicy

__all__ = [
    "SCHEMA_VERSION",
    "ApiError",
    "ErrorResponse",
    "ExecutionPolicy",
    "InfluenceSession",
    "MarginalRequest",
    "MarginalResponse",
    "Request",
    "Response",
    "SelectRequest",
    "SelectResponse",
    "SpreadRequest",
    "SpreadResponse",
    "StatsRequest",
    "StatsResponse",
    "UpdateRequest",
    "UpdateResponse",
    "parse_request",
    "response_from_wire",
]


def __getattr__(name: str) -> Any:
    # InfluenceSession pulls in the sketch/dynamic stacks; importing it
    # lazily keeps `repro.api.policy` importable from low-level modules
    # (core.tim, sketch.index) without a cycle.
    if name == "InfluenceSession":
        from repro.api.session import InfluenceSession

        return InfluenceSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
