"""`ExecutionPolicy` — one validated object for every execution knob.

The sketch index, parallel sharding and dynamic repair each configure
how a run executes (``jobs``, ``trace_edges``), next to the accuracy pair
``epsilon``/``ell``.  The policy consolidates these knobs into a
single frozen, validated value object that the TIM drivers, the sketch
subsystem, :class:`~repro.api.session.InfluenceSession`, the
:class:`~repro.sketch.service.InfluenceService` and the CLI all share —
so a configuration is constructed (and validated) once and means the same
thing at every layer.

Resolution layers compose explicitly::

    policy = ExecutionPolicy()                      # library defaults
    policy = ExecutionPolicy.from_env()             # + REPRO_* environment
    policy = ExecutionPolicy.from_args(args)        # + CLI flags (env-layered)
    policy = policy.merge(jobs=8)                   # + call-site overrides

Every field is *total*: a policy always carries a concrete value, so code
consuming one never needs a fallback chain.  ``merge`` skips ``None``
overrides, which is what lets optional CLI flags / function arguments layer
over a base policy without clobbering it.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.utils.validation import check_ell, check_epsilon, require

__all__ = ["ExecutionPolicy", "SERVING_POLICY"]

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})

#: Environment variables :meth:`ExecutionPolicy.from_env` understands.
_ENV_VARS = {
    "jobs": "REPRO_JOBS",
    "trace_edges": "REPRO_TRACE_EDGES",
    "epsilon": "REPRO_EPSILON",
    "ell": "REPRO_ELL",
    "metrics": "REPRO_METRICS",
    "deadline_ms": "REPRO_DEADLINE_MS",
    "algorithm": "REPRO_ALGORITHM",
}


def _parse_bool(text: str, variable: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_STRINGS:
        return True
    if lowered in _FALSE_STRINGS:
        return False
    raise ValueError(
        f"{variable} must be a boolean "
        f"({'/'.join(sorted(_TRUE_STRINGS))} or {'/'.join(sorted(_FALSE_STRINGS))}); "
        f"got {text!r}"
    )


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a run executes — never *what* it computes.

    Two policies that differ only in ``jobs`` produce byte-identical seed
    sets, KPT estimates, and sketch bytes for equal seeds; ``trace_edges``
    changes only the extra arrays stored.  The accuracy pair
    ``epsilon``/``ell`` *does* change θ (and therefore the sample).

    Fields
    ------
    jobs:
        Worker processes for RR generation: ``None`` = legacy single
        stream (default), ``0`` = all cores, ``n >= 1`` = that many.
    trace_edges:
        Record live-edge traces during sampling so dynamic updates
        invalidate precisely (IC/LT).
    epsilon, ell:
        Approximation slack and failure exponent — the TIM guarantee is
        ``(1 − 1/e − ε)`` with probability ``≥ 1 − n^{−ℓ}``.
    metrics:
        The resolved :mod:`repro.obs` instrumentation switch (span tracing
        + counters).  Like every policy field it layers library default →
        ``REPRO_METRICS`` env → CLI (``--metrics-out`` implies it) →
        call-site ``merge``; process entry points (the CLI, benchmarks)
        apply the resolved value via ``obs.configure(enabled=...)``.
        Instrumentation never touches RNG streams, so results are
        byte-identical either way.
    deadline_ms:
        Default per-request wall-clock budget for serving layers
        (:class:`~repro.sketch.service.InfluenceService`): past the budget
        a query returns a structured ``deadline_exceeded`` error instead
        of hanging.  ``None`` (default) = no budget; layers env via
        ``REPRO_DEADLINE_MS``.  Deadlines never alter results that finish
        in time — only whether slow ones are cut short.
    algorithm:
        The default influence-maximization algorithm for layers that pick
        one (``"tim"`` default; layers env via ``REPRO_ALGORITHM``).
        Sketch-owning layers (:class:`InfluenceSession`,
        :class:`InfluenceService`, :meth:`SketchIndex.build`) use it to
        choose the rule :func:`repro.core.pricing.price` prices θ with:
        ``"imm"`` selects the martingale lower-bound search, anything else
        the TIM KPT derivation.  Normalized to lowercase.
    """

    jobs: int | None = None
    trace_edges: bool = False
    epsilon: float = 0.1
    ell: float = 1.0
    metrics: bool = False
    deadline_ms: float | None = None
    algorithm: str = "tim"

    def __post_init__(self) -> None:
        if self.jobs is not None:
            require(isinstance(self.jobs, int) and not isinstance(self.jobs, bool),
                    f"jobs must be an integer or None; got {self.jobs!r}")
            require(self.jobs >= 0, f"jobs must be >= 0 (0 = all cores); got {self.jobs}")
        require(isinstance(self.trace_edges, bool),
                f"trace_edges must be a bool; got {self.trace_edges!r}")
        require(isinstance(self.metrics, bool),
                f"metrics must be a bool; got {self.metrics!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "ell", float(self.ell))
        check_epsilon(self.epsilon)
        check_ell(self.ell)
        if self.deadline_ms is not None:
            require(isinstance(self.deadline_ms, (int, float))
                    and not isinstance(self.deadline_ms, bool),
                    f"deadline_ms must be a number or None; got {self.deadline_ms!r}")
            require(self.deadline_ms > 0,
                    f"deadline_ms must be > 0; got {self.deadline_ms!r}")
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
        require(isinstance(self.algorithm, str) and self.algorithm.strip() != "",
                f"algorithm must be a non-empty string; got {self.algorithm!r}")
        object.__setattr__(self, "algorithm", self.algorithm.strip().lower())

    # ------------------------------------------------------------------
    # Construction / resolution
    # ------------------------------------------------------------------
    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_kwargs(cls, base: "ExecutionPolicy | None" = None,
                    **kwargs: Any) -> "ExecutionPolicy":
        """Build a policy from keyword overrides, rejecting unknown keys.

        ``None`` values mean "unset" and fall through to ``base`` (or the
        library default), so optional call-site arguments forward directly.
        """
        unknown = sorted(set(kwargs) - set(cls.field_names()))
        require(not unknown,
                f"unknown execution-policy field(s): {', '.join(unknown)}; "
                f"known: {', '.join(cls.field_names())}")
        return (base if base is not None else cls()).merge(**kwargs)

    @classmethod
    def coerce(cls, value: Any) -> "ExecutionPolicy":
        """Accept a policy, a mapping of fields, or ``None`` (defaults)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_kwargs(**value)
        raise ValueError(
            f"policy must be an ExecutionPolicy, a dict of its fields, or None; "
            f"got {type(value).__name__}"
        )

    def merge(self, **overrides: Any) -> "ExecutionPolicy":
        """A new policy with the non-``None`` overrides applied.

        ``None`` means "keep the current value" — which also means a merge
        cannot reset ``jobs`` to the single-stream default; construct a
        fresh policy for that.
        """
        unknown = sorted(set(overrides) - set(self.field_names()))
        require(not unknown,
                f"unknown execution-policy field(s): {', '.join(unknown)}; "
                f"known: {', '.join(self.field_names())}")
        effective = {key: value for key, value in overrides.items() if value is not None}
        return replace(self, **effective) if effective else self

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None,
                 base: "ExecutionPolicy | None" = None) -> "ExecutionPolicy":
        """Resolve ``REPRO_JOBS`` / ``REPRO_TRACE_EDGES`` / ``REPRO_EPSILON``
        / ``REPRO_ELL`` / ``REPRO_METRICS`` / ``REPRO_DEADLINE_MS`` /
        ``REPRO_ALGORITHM`` over ``base`` (or defaults)."""
        env = os.environ if env is None else env
        overrides: dict[str, Any] = {}
        for field_name, variable in _ENV_VARS.items():
            raw = env.get(variable)
            if raw is None or raw == "":
                continue
            try:
                if field_name == "jobs":
                    overrides[field_name] = int(raw)
                elif field_name in ("trace_edges", "metrics"):
                    overrides[field_name] = _parse_bool(raw, variable)
                elif field_name in ("epsilon", "ell", "deadline_ms"):
                    overrides[field_name] = float(raw)
                else:
                    overrides[field_name] = raw
            except ValueError as exc:
                raise ValueError(f"invalid {variable}={raw!r}: {exc}") from None
        return (base if base is not None else cls()).merge(**overrides)

    @classmethod
    def from_args(cls, args: Any, base: "ExecutionPolicy | None" = None,
                  *, env: Mapping[str, str] | None = None) -> "ExecutionPolicy":
        """Resolve CLI flags over the environment over ``base``.

        ``args`` is any object with optional ``jobs`` / ``trace_edges`` /
        ``epsilon`` / ``ell`` / ``metrics`` / ``deadline_ms`` /
        ``algorithm`` attributes (an argparse namespace); missing or
        ``None`` attributes stay unset so absent flags never clobber the
        environment layer.
        """
        resolved = cls.from_env(env=env, base=base)
        overrides = {
            name: getattr(args, name, None)
            for name in ("jobs", "trace_edges", "epsilon", "ell",
                         "metrics", "deadline_ms", "algorithm")
        }
        return resolved.merge(**overrides)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.field_names()}


#: The defaults of a serving sketch: :class:`~repro.sketch.service.InfluenceService`
#: builds under it when given no policy, and the ``sketch``/``serve`` CLI
#: subcommands layer ``REPRO_*`` and their flags over it.  Its ε = 0.3 is
#: coarser than the library-wide 0.1, because a serving sketch trades
#: tightness for build time.
SERVING_POLICY = ExecutionPolicy(epsilon=0.3)
