"""`InfluenceSession` — one object that owns a whole influence workload.

The facade over everything the library grew subsystem by subsystem: the
graph (with a :class:`~repro.dynamic.graph.DynamicDiGraph` overlay so it
can evolve), one RR sketch (:class:`~repro.sketch.index.SketchIndex`) that
is built lazily, reused, warm-extended and repaired in place, and the
worker-pool lifecycle behind it — all configured by a single
:class:`~repro.api.policy.ExecutionPolicy`.

Where :class:`~repro.sketch.service.InfluenceService` is the *multi-graph
LRU server* (JSONL front, cache statistics), the session is the *Python
caller's* surface: one graph, one model, typed results, deterministic under
a seed, and a context manager so the pool can never leak.  Both answer reads
through the one handler :func:`repro.api.ops.answer`; what differs is how
each gets its index.  The session grows its sketch until it is
``policy.epsilon``-adequate for the request's ``k`` (``default_k`` for
spread and marginal-gain reads); the service keeps whatever θ its cached
index was built with::

    from repro import ExecutionPolicy, InfluenceSession

    with InfluenceSession(graph, "IC", policy=ExecutionPolicy(jobs=0),
                          rng=0) as session:
        picked = session.select(50)                  # SelectResponse
        reach = session.spread(picked.seeds)         # float
        lift = session.marginal(picked.seeds, 7)     # float
        session.apply_update(action="insert", u=3, v=7, p=0.2)
        tightened = session.ensure(epsilon=0.1)      # grow the sketch

Determinism: the session draws every sampling wave from spawned children of
its ``rng``, so a session constructed with the same seed, policy, and call
sequence reproduces byte-identical sketches and seed sets — including
across worker counts (``policy.jobs`` never changes results).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any, cast

from repro.api.ops import (
    ApiError,
    Request,
    Response,
    SelectRequest,
    SelectResponse,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    answer,
    as_edge_update,
    parse_request,
)
from repro.api.policy import ExecutionPolicy
from repro.diffusion.base import resolve_model
from repro.utils.rng import resolve_rng
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.dynamic.graph import DynamicDiGraph
    from repro.graphs.digraph import DiGraph
    from repro.sketch.index import SketchIndex

__all__ = ["InfluenceSession"]


class InfluenceSession:
    """Facade owning graph + dynamic overlay + sketch + pool lifecycle.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.digraph.DiGraph` snapshot or an existing
        :class:`~repro.dynamic.graph.DynamicDiGraph` overlay (adopted, not
        copied — updates applied here are visible to other holders).
    model:
        Diffusion model name or instance for every query in this session.
    policy:
        The :class:`ExecutionPolicy` (or a dict of its fields / ``None``
        for defaults) governing the worker pool, tracing and accuracy.
    rng:
        Seed or source; all sampling determinism flows from it.
    default_k:
        Budget used to price the first sketch's θ when a query arrives
        before any explicit :meth:`ensure` (at ``policy.epsilon``, under
        ``policy.algorithm``: ``"imm"`` selects IMM's rule, anything else
        TIM's); later ``select(k)`` calls re-price for their own ``k`` under
        the rule the sketch was priced with.
    index:
        Adopt a pre-built/loaded :class:`SketchIndex` instead of building
        lazily.  It must serve this session's graph and model.
    """

    def __init__(self, graph: DiGraph | DynamicDiGraph, model: Any = "IC", *,
                 policy: ExecutionPolicy | dict[str, Any] | None = None,
                 rng: Any = None, default_k: int = 10,
                 index: SketchIndex | None = None) -> None:
        from repro.dynamic.graph import DynamicDiGraph

        self.policy = ExecutionPolicy.coerce(policy)
        self._dynamic = graph if isinstance(graph, DynamicDiGraph) else DynamicDiGraph(graph)
        self._model = resolve_model(model)
        self._model.validate_graph(self._dynamic.graph)
        self._rng = resolve_rng(rng)
        self.default_k = int(default_k)
        require(self.default_k >= 1, "default_k must be >= 1")
        self._index: SketchIndex | None = None
        if index is not None:
            from repro.core.pricing import adopt_index

            self._index, _ = adopt_index(index, self._dynamic.graph, self._model,
                                         self.policy)
        self._closed = False

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The current (post-update) immutable snapshot."""
        return self._dynamic.graph

    @property
    def dynamic_graph(self) -> DynamicDiGraph:
        """The mutable overlay; versioned by fingerprint."""
        return self._dynamic

    @property
    def model(self) -> str:
        return self._model.name

    @property
    def index(self) -> SketchIndex | None:
        """The owned sketch index, or ``None`` before the first query."""
        return self._index

    @property
    def num_rr_sets(self) -> int:
        return 0 if self._index is None else self._index.num_sets

    # ------------------------------------------------------------------
    # Sketch lifecycle
    # ------------------------------------------------------------------
    def _ensure_index(self, k: int | None = None) -> SketchIndex:
        """The sketch, built or grown (never resampled) until it is
        ``policy.epsilon``-adequate for budget ``k``."""
        self.ensure(epsilon=self.policy.epsilon, k=k)
        assert self._index is not None
        return self._index

    def ensure(self, *, epsilon: float | None = None, theta: int | None = None,
               k: int | None = None) -> int:
        """Grow the sketch to a target accuracy or size; returns sets added.

        Exactly one of ``epsilon`` (ε-adequacy for budget ``k``, defaulting
        to ``default_k``) or ``theta`` (absolute RR-set count) must be
        given.  Existing RR sets are never resampled — i.i.d. sets extend.
        On a fresh session the first sketch is built straight to the
        requested target (never to ``policy.epsilon`` first), so
        ``ensure(theta=100)`` samples exactly 100 sets.
        """
        from repro.sketch.index import SketchIndex

        require((epsilon is None) != (theta is None),
                "ensure() takes exactly one of epsilon= or theta=")
        require(not self._closed, "session is closed")
        k = self.default_k if k is None else int(k)
        if self._index is None:
            self._index = SketchIndex.build(
                self.graph, self._model, theta=theta, k=k, epsilon=epsilon,
                rng=self._rng.spawn(), policy=self.policy,
            )
            return self._index.num_sets
        if theta is not None:
            return self._index.ensure_theta(int(theta), rng=self._rng.spawn(),
                                            jobs=self.policy.jobs)
        return self._index.ensure_epsilon(
            k, float(epsilon),
            ell=self.policy.ell, rng=self._rng.spawn(), jobs=self.policy.jobs,
        )

    def close(self) -> None:
        """Release the sketch's worker pool and end the session.

        Idempotent.  A closed session rejects further queries and updates
        (``ValueError: session is closed``) — the strict lifecycle keeps
        the facade's surface uniform; query the owned :attr:`index`
        directly if read-only access past close is needed.
        """
        if self._index is not None:
            self._index.close()
        self._closed = True

    def __enter__(self) -> "InfluenceSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Queries (typed results)
    # ------------------------------------------------------------------
    def select(self, k: int, include: Iterable[int] = (),
               exclude: Iterable[int] = ()) -> SelectResponse:
        """Greedy seed selection for budget ``k`` over the (ensured) sketch."""
        request = SelectRequest(k=k, include=tuple(int(v) for v in include),
                                exclude=tuple(int(v) for v in exclude))
        return cast(SelectResponse, answer(self._ensure_index(k), request))

    def spread(self, seeds: Iterable[int]) -> float:
        """``n · F_R(S)`` — the Corollary 1 estimate over the sketch."""
        return float(self._ensure_index().spread(seeds))

    def marginal(self, seeds: Iterable[int], candidate: int) -> float:
        """Estimated spread lift from adding ``candidate`` to ``seeds``."""
        return float(self._ensure_index().marginal_gain(seeds, candidate))

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def apply_update(self, update: Any = None, *, action: str | None = None,
                     u: int | None = None, v: int | None = None,
                     p: float | None = None) -> UpdateResponse:
        """Apply one edge mutation and repair the owned sketch in place.

        Accepts an :class:`~repro.dynamic.updates.EdgeUpdate`, an
        :class:`~repro.api.ops.UpdateRequest`, a request dict, or the bare
        ``action=``/``u=``/``v=``/``p=`` keywords.  Validation happens on a
        *preview* — a rejected update (missing edge, LT weight violation)
        leaves graph and sketch untouched.
        """
        from repro.dynamic.updates import EdgeUpdate

        require(not self._closed, "session is closed")
        if update is None:
            require(action is not None and u is not None and v is not None,
                    "apply_update needs an update object or action=/u=/v= keywords")
            update = EdgeUpdate(action=action, u=int(u), v=int(v),
                                prob=None if p is None else float(p))
        else:
            update = as_edge_update(update)

        delta = self._dynamic.preview(update)
        # Validate unconditionally — an update that breaks the model's
        # invariants (e.g. LT in-weight sums) must be rejected even before
        # the first sketch exists, or it would wedge every later query.
        self._model.validate_graph(delta.new_graph)
        repaired: list[Any] = []
        if self._index is not None:
            report = self._index.apply_update(delta, rng=self._rng.spawn(),
                                              jobs=self.policy.jobs)
            repaired.append(report.as_dict())
        self._dynamic.commit(delta)
        return UpdateResponse(
            action=update.action,
            u=update.u,
            v=update.v,
            version=self._dynamic.version,
            fingerprint=delta.new_fingerprint,
            num_edges=self._dynamic.m,
            repaired_indexes=repaired,
        )

    # ------------------------------------------------------------------
    # Typed-op front (the same protocol the service speaks)
    # ------------------------------------------------------------------
    def execute(self, request: Request | dict[str, Any]) -> Response:
        """Answer one typed request (or wire dict) against this session.

        Reads go through :func:`~repro.api.ops.answer` once the sketch is
        ensured for the request's ``k`` (``default_k`` when it has none).
        The session has no LRU, so ``stats`` reports the sketch shape
        rather than cache counters.  Raises :class:`ApiError` on protocol
        failures — unlike the service front, the session is a Python API
        and failing loudly is the right default here.
        """
        request = parse_request(request)
        requested_model = getattr(request, "model", None)
        response: Response
        if requested_model is not None and requested_model != self.model:
            raise ApiError(
                "bad_request",
                f"this session serves model {self.model!r}; per-request model "
                f"overrides ({requested_model!r}) need an InfluenceService",
            )
        if isinstance(request, UpdateRequest):
            response = self.apply_update(request)
        elif isinstance(request, StatsRequest):
            # "sketch" reports what the owned sketch *certifies* (additive
            # payload; schema_version stays 1): the tightest ε it meets, the
            # θ derivation used, and whether a max_theta cap ever voided the
            # guarantee for a run routed through it.
            sketch_stats: dict[str, Any] = {
                "theta": self.num_rr_sets,
                "algorithm": None,
                "epsilon": None,
                "theta_capped": False,
            }
            if self._index is not None:
                sketch_stats.update(
                    algorithm=self._index.meta.get("algorithm"),
                    epsilon=self._index.meta.get("epsilon"),
                    theta_capped=bool(self._index.meta.get("theta_capped", False)),
                )
            response = StatsResponse(stats={
                "model": self.model,
                "num_rr_sets": self.num_rr_sets,
                "num_nodes": self._dynamic.n,
                "num_edges": self._dynamic.m,
                "graph_version": self._dynamic.version,
                "policy": self.policy.as_dict(),
                "sketch": sketch_stats,
            })
        else:
            response = answer(self._ensure_index(getattr(request, "k", None)), request)
        response.id = request.id
        return response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InfluenceSession(model={self.model!r}, n={self._dynamic.n}, "
            f"m={self._dynamic.m}, rr_sets={self.num_rr_sets}, "
            f"policy={self.policy!r})"
        )
