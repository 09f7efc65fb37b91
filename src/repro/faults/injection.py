"""Deterministic fault injection — a process-global, schedule-driven plan.

The chaos half of :mod:`repro.faults`: production code threads *injection
points* (``faults.checkpoint("parallel.wave")``) through the hot paths, and
a test (or ``REPRO_FAULTS`` in the environment) installs a
:class:`FaultPlan` describing which checkpoints misbehave — "fail the Nth
pool wave", "raise ``MemoryError`` in extend #2", "truncate the sketch
write at byte B", "delay request #K by D ms".  Plans are seeded and
schedule-driven, so a chaos run is exactly reproducible.

The design mirrors the :mod:`repro.obs` tracer: one module-global armed
flag, checked first, so every checkpoint costs a single bool comparison
when no plan (and no deadline) is installed — zero overhead in production.

Registered injection sites (keep this list in sync with CONTRIBUTING.md):

===================== ====================================================
site                  where it fires
===================== ====================================================
``parallel.wave``     before each :class:`ParallelSampler` shard wave
``sketch.build``      start of ``SketchIndex.build``
``sketch.extend``     each ``SketchIndex.extend_flat`` call
``sketch.apply_update`` each ``SketchIndex.apply_update`` repair
``sketch.select``     each ``SketchIndex.select`` query
``sketch.save``       before the sketch temp-file write (rules may carry
                      ``truncate_at`` to tear the written payload)
``sketch.load``       start of ``load_sketch``
``serve.dispatch``    each ``InfluenceService`` request dispatch attempt
``price.lb_search``   each iteration of IMM's lower-bound search in
                      :func:`repro.core.pricing.price`
``price.grow``        before ``price`` grows the index to the priced θ
===================== ====================================================

Checkpoints double as **deadline** checks: :func:`deadline_scope` installs
a per-thread budget and any checkpoint past it raises
:class:`~repro.faults.errors.DeadlineExceeded` — which is how a select that
blows its ``deadline_ms`` comes back as a structured error instead of
hanging the JSONL loop.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.faults.errors import DeadlineExceeded, FatalError, TransientError
from repro.obs import runtime as obs
from repro.utils.rng import RandomSource

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "checkpoint",
    "clear",
    "deadline_scope",
    "enabled",
    "install",
    "install_from_env",
    "plan_scope",
    "remaining_ms",
]

#: Environment variable carrying a JSON fault plan (or ``@/path/to/plan``).
ENV_VAR = "REPRO_FAULTS"

#: Error kinds a rule may inject, mapped to the exception that is raised.
_ERROR_KINDS: dict[str, type[BaseException]] = {
    "transient": TransientError,
    "fatal": FatalError,
    "deadline": DeadlineExceeded,
    "memory": MemoryError,
    "oserror": OSError,
}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled misbehaviour at one injection site.

    A site's checkpoints are counted from 0; the rule matches hits
    ``after <= hit < after + times`` (so ``after=1, times=1`` is "the 2nd
    occurrence").  ``probability`` (with the plan's seed) thins matching
    hits deterministically.  Actions compose: a rule may delay *and* raise.
    """

    site: str
    error: str | None = None
    delay_ms: float = 0.0
    truncate_at: int | None = None
    after: int = 0
    times: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ValueError(f"fault rule needs a non-empty site string; got {self.site!r}")
        if self.error is not None and self.error not in _ERROR_KINDS:
            raise ValueError(
                f"unknown fault error kind {self.error!r}; "
                f"known: {sorted(_ERROR_KINDS)}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0; got {self.delay_ms!r}")
        if self.truncate_at is not None and self.truncate_at < 0:
            raise ValueError(f"truncate_at must be >= 0; got {self.truncate_at!r}")
        if self.after < 0 or self.times < 1:
            raise ValueError(
                f"need after >= 0 and times >= 1; got after={self.after!r} "
                f"times={self.times!r}")
        if not (0.0 < self.probability <= 1.0):
            raise ValueError(f"probability must be in (0, 1]; got {self.probability!r}")
        if self.error is None and self.delay_ms == 0.0 and self.truncate_at is None:
            raise ValueError(
                "fault rule has no action: set error=, delay_ms= and/or truncate_at=")

    def make_error(self, site: str, hit: int) -> BaseException:
        """The exception this rule injects (``error`` must be set)."""
        assert self.error is not None
        return _ERROR_KINDS[self.error](
            f"injected {self.error} fault at {site!r} (hit #{hit})")


class FaultPlan:
    """A seeded schedule of :class:`FaultRule` entries plus hit counters."""

    def __init__(self, rules: Iterable["FaultRule | Mapping[str, Any]"] = (),
                 *, seed: int = 0) -> None:
        self.rules: tuple[FaultRule, ...] = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule(**dict(rule))
            for rule in rules
        )
        self.seed = int(seed)
        self._hits: dict[str, int] = {}
        self._rng = RandomSource(self.seed)
        self._lock = threading.Lock()

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``[{"site": ...}, ...]`` or ``{"seed": .., "rules": [...]}``."""
        data = json.loads(text)
        if isinstance(data, list):
            return cls(data)
        if isinstance(data, dict):
            rules = data.get("rules", [])
            if not isinstance(rules, list):
                raise ValueError(f"fault plan 'rules' must be a list; got {rules!r}")
            return cls(rules, seed=int(data.get("seed", 0)))
        raise ValueError(
            f"fault plan must be a JSON list of rules or an object with "
            f"'rules'; got {type(data).__name__}")

    def hits(self, site: str) -> int:
        """How many times ``site``'s checkpoint has fired under this plan."""
        with self._lock:
            return self._hits.get(site, 0)

    def fire(self, site: str) -> FaultRule | None:
        """Count one hit at ``site``; the matching rule to apply, if any."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            for rule in self.rules:
                if rule.site != site:
                    continue
                if not (rule.after <= hit < rule.after + rule.times):
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                return rule
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({len(self.rules)} rules, seed={self.seed})"


# ----------------------------------------------------------------------
# Process-global state (mirrors the obs runtime: one fast-path bool)
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None
_ACTIVE_DEADLINES = 0
_STATE_LOCK = threading.Lock()

#: The single fast-path flag: ``True`` iff a plan is installed or at least
#: one deadline scope is open anywhere in the process.  ``checkpoint()``
#: reads only this when disarmed.
_ARMED = False

_LOCAL = threading.local()


def _deadline_stack() -> list[float]:
    stack = getattr(_LOCAL, "deadlines", None)
    if stack is None:
        stack = []
        _LOCAL.deadlines = stack
    return stack


def _rearm() -> None:
    global _ARMED
    _ARMED = _PLAN is not None or _ACTIVE_DEADLINES > 0


def enabled() -> bool:
    """Whether any fault plan or deadline is currently armed."""
    return _ARMED


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` clears)."""
    global _PLAN
    with _STATE_LOCK:
        _PLAN = plan
        _rearm()


def clear() -> None:
    """Remove any installed fault plan."""
    install(None)


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _PLAN


@contextmanager
def plan_scope(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the ``with`` body, restoring the previous plan."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def install_from_env(env: Mapping[str, str] | None = None) -> FaultPlan | None:
    """Install the plan named by ``REPRO_FAULTS`` (inline JSON or ``@path``).

    Returns the installed plan, or ``None`` when the variable is unset or
    empty.  Used by the CLI so chaos jobs can inject faults into real
    ``repro sketch`` / ``repro serve`` processes without code changes.
    """
    env = os.environ if env is None else env
    raw = env.get(ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as handle:
                raw = handle.read()
        plan = FaultPlan.from_json(raw)
    except (ValueError, TypeError, OSError) as exc:
        raise ValueError(f"invalid {ENV_VAR} fault plan: {exc}") from exc
    install(plan)
    return plan


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
@contextmanager
def deadline_scope(deadline_ms: float | None) -> Iterator[None]:
    """Arm a wall-clock budget for the ``with`` body (``None`` = no budget).

    Scopes nest; the *tightest* enclosing budget wins.  Any
    :func:`checkpoint` reached after expiry raises
    :class:`~repro.faults.errors.DeadlineExceeded`.  The budget is
    per-thread: concurrent requests cannot expire each other.
    """
    global _ACTIVE_DEADLINES
    if deadline_ms is None:
        yield
        return
    if deadline_ms <= 0:
        raise ValueError(f"deadline_ms must be > 0; got {deadline_ms!r}")
    stack = _deadline_stack()
    stack.append(obs.now() + deadline_ms / 1000.0)
    with _STATE_LOCK:
        _ACTIVE_DEADLINES += 1
        _rearm()
    try:
        yield
    finally:
        stack.pop()
        with _STATE_LOCK:
            _ACTIVE_DEADLINES -= 1
            _rearm()


def remaining_ms() -> float | None:
    """Milliseconds left on the tightest active deadline (``None`` if none)."""
    stack = _deadline_stack()
    if not stack:
        return None
    return 1000.0 * (min(stack) - obs.now())


def _check_deadline(site: str) -> None:
    stack = _deadline_stack()
    if stack and obs.now() > min(stack):
        raise DeadlineExceeded(
            f"deadline exceeded at {site!r} "
            f"(over budget by {-(remaining_ms() or 0.0):.1f}ms)")


# ----------------------------------------------------------------------
# The injection point
# ----------------------------------------------------------------------
def checkpoint(site: str) -> FaultRule | None:
    """One injection point: a single bool check when nothing is armed.

    Armed, it (in order) raises ``DeadlineExceeded`` if the active budget
    is spent, then applies the plan's matching rule: sleep ``delay_ms``
    (re-checking the deadline after — a delay can spend the budget), raise
    the rule's ``error``, and/or return the rule so call sites that
    understand richer actions (``truncate_at`` in the sketch writer) can
    apply them.  Returns ``None`` when nothing fires.
    """
    if not _ARMED:
        return None
    return _checkpoint_armed(site)


def _checkpoint_armed(site: str) -> FaultRule | None:
    _check_deadline(site)
    plan = _PLAN
    if plan is None:
        return None
    rule = plan.fire(site)
    if rule is None:
        return None
    if rule.delay_ms > 0.0:
        time.sleep(rule.delay_ms / 1000.0)
        _check_deadline(site)
    if rule.error is not None:
        raise rule.make_error(site, plan.hits(site) - 1)
    return rule
