"""Chaos: InfluenceService under injected faults, deadlines, and pressure.

Acceptance (iii): a request over its wall-clock budget returns a structured
``deadline_exceeded`` error — the JSONL loop never hangs — and transient
dispatch failures are retried exactly once for idempotent ops.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy
from repro.api.ops import ErrorResponse, SelectRequest, SelectResponse
from repro.faults import FaultPlan, FaultRule, RetryPolicy, injection
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.sketch import InfluenceService


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(90, 360, rng=31))


@pytest.fixture
def service():
    svc = InfluenceService(max_indexes=2, theta=400, rng=17)
    yield svc
    svc.close()


class TestDeadline:
    def test_over_budget_select_returns_structured_error(self, wc_graph, service):
        # A 50 ms stall injected into dispatch against a 5 ms budget: the
        # delayed checkpoint itself detects the expiry — no hang, ever.
        plan = FaultPlan([FaultRule(site="serve.dispatch", delay_ms=50.0)])
        with injection.plan_scope(plan):
            response = service.execute(
                wc_graph, {"op": "select", "k": 3, "deadline_ms": 5}
            )
        assert isinstance(response, ErrorResponse)
        wire = response.to_wire()
        assert wire["error"]["code"] == "deadline_exceeded"
        assert wire["error"]["retryable"] is False
        assert service.stats.errors == 1
        assert service.stats.retries == 0  # a spent budget is never retried

    def test_service_level_default_budget(self, wc_graph):
        svc = InfluenceService(max_indexes=2, theta=400, rng=17,
                               policy=ExecutionPolicy(deadline_ms=5))
        try:
            plan = FaultPlan([FaultRule(site="serve.dispatch", delay_ms=50.0)])
            with injection.plan_scope(plan):
                response = svc.execute(wc_graph, SelectRequest(k=3))
            assert isinstance(response, ErrorResponse)
            assert response.code == "deadline_exceeded"
        finally:
            svc.close()

    def test_request_budget_overrides_service_default(self, wc_graph):
        # A generous per-request budget rescues a query the tight service
        # default would have killed.
        svc = InfluenceService(max_indexes=2, theta=400, rng=17,
                               policy=ExecutionPolicy(deadline_ms=1))
        try:
            plan = FaultPlan([FaultRule(site="serve.dispatch", delay_ms=10.0)])
            with injection.plan_scope(plan):
                response = svc.execute(
                    wc_graph, SelectRequest(k=3, deadline_ms=60_000)
                )
            assert isinstance(response, SelectResponse)
        finally:
            svc.close()

    def test_batch_with_deadline_faults_never_hangs(self, wc_graph, service):
        plan = FaultPlan(
            [FaultRule(site="serve.dispatch", delay_ms=30.0, times=1000)]
        )
        lines = ['{"op": "select", "k": 2, "deadline_ms": 5, "id": %d}' % i
                 for i in range(5)]
        with injection.plan_scope(plan):
            responses = service.run_batch(wc_graph, lines)
        assert len(responses) == 5
        assert all(r["error"]["code"] == "deadline_exceeded" for r in responses)
        assert [r["id"] for r in responses] == list(range(5))


class TestDispatchRetry:
    def test_transient_fault_retried_once_then_succeeds(self, wc_graph, service):
        plan = FaultPlan([FaultRule(site="serve.dispatch", error="transient")])
        with injection.plan_scope(plan):
            response = service.execute(wc_graph, SelectRequest(k=3))
        assert isinstance(response, SelectResponse)
        assert len(response.seeds) == 3
        assert service.stats.retries == 1
        assert service.stats.errors == 0

    def test_persistent_transient_becomes_structured_error(self, wc_graph, service):
        plan = FaultPlan(
            [FaultRule(site="serve.dispatch", error="transient", times=2)]
        )
        with injection.plan_scope(plan):
            response = service.execute(wc_graph, SelectRequest(k=3))
        assert isinstance(response, ErrorResponse)
        wire = response.to_wire()
        assert wire["error"]["code"] == "transient"
        assert wire["error"]["retryable"] is True  # the caller may resubmit

    def test_fatal_fault_is_not_retried(self, wc_graph, service):
        plan = FaultPlan([FaultRule(site="serve.dispatch", error="fatal")])
        with injection.plan_scope(plan):
            response = service.execute(wc_graph, SelectRequest(k=3))
        assert isinstance(response, ErrorResponse)
        assert response.code == "fatal"
        assert plan.hits("serve.dispatch") == 1
        assert service.stats.retries == 0

    def test_update_is_never_replayed(self, wc_graph, service):
        from repro.dynamic.graph import DynamicDiGraph

        dynamic = DynamicDiGraph(wc_graph)
        plan = FaultPlan([FaultRule(site="serve.dispatch", error="transient")])
        with injection.plan_scope(plan):
            response = service.execute(
                dynamic,
                {"op": "update", "action": "reweight", "u": 0, "v": 1, "p": 0.01},
            )
        # The same transient that earns a select a redo fails an update:
        # graph mutation must not risk double-apply.
        assert isinstance(response, ErrorResponse)
        assert plan.hits("serve.dispatch") == 1
        assert service.stats.retries == 0

    def test_custom_retry_budget(self, wc_graph):
        svc = InfluenceService(
            max_indexes=2, theta=400, rng=17,
            retry=RetryPolicy(max_attempts=4, base_delay_ms=0.5, max_delay_ms=2.0),
        )
        try:
            plan = FaultPlan(
                [FaultRule(site="serve.dispatch", error="transient", times=3)]
            )
            with injection.plan_scope(plan):
                response = svc.execute(wc_graph, SelectRequest(k=3))
            assert isinstance(response, SelectResponse)
            assert svc.stats.retries == 3
        finally:
            svc.close()

    def test_retries_surface_in_stats_payload(self, wc_graph, service):
        plan = FaultPlan([FaultRule(site="serve.dispatch", error="transient")])
        with injection.plan_scope(plan):
            service.execute(wc_graph, SelectRequest(k=2))
            stats = service.execute(wc_graph, {"op": "stats"})
        assert stats.to_wire()["result"]["retries"] == 1


class TestMemoryBudget:
    def test_budget_evicts_lru_before_cold_build(self, wc_graph):
        other = weighted_cascade(gnm_random_digraph(90, 360, rng=32))
        svc = InfluenceService(max_indexes=8, theta=400, rng=17,
                               memory_budget_bytes=1)  # everything is over
        try:
            svc.execute(wc_graph, SelectRequest(k=2))
            assert len(svc) == 1
            svc.execute(other, SelectRequest(k=2))
            # The budget pass evicted the first index before the second
            # build; max_indexes alone would have kept both.
            assert len(svc) == 1
            assert svc.stats.evictions == 1
        finally:
            svc.close()

    def test_budget_keeps_at_least_one_index(self, wc_graph):
        svc = InfluenceService(max_indexes=4, theta=400, rng=17,
                               memory_budget_bytes=1)
        try:
            response = svc.execute(wc_graph, SelectRequest(k=3))
            assert isinstance(response, SelectResponse)
            assert len(svc) == 1  # never evicted below a working set of one
            assert svc.memory_bytes() > 0
        finally:
            svc.close()


class TestCloseLeakSafety:
    def test_one_failing_close_does_not_leak_the_rest(self, wc_graph, monkeypatch):
        other = weighted_cascade(gnm_random_digraph(90, 360, rng=33))
        svc = InfluenceService(max_indexes=4, theta=400, rng=17)
        svc.execute(wc_graph, SelectRequest(k=2))
        svc.execute(other, SelectRequest(k=2))
        first, second = (svc._indexes[key] for key in svc.cached_keys())

        closed = []
        monkeypatch.setattr(
            type(first), "close",
            lambda self: (_ for _ in ()).throw(RuntimeError("pool wedged"))
            if self is first else closed.append(self),
        )
        with pytest.raises(RuntimeError, match="pool wedged"):
            svc.close()
        assert closed == [second]  # the healthy index still closed

    def test_evict_closes_every_victim_despite_failure(self, wc_graph, monkeypatch):
        graphs = [wc_graph] + [
            weighted_cascade(gnm_random_digraph(90, 360, rng=40 + i))
            for i in range(2)
        ]
        svc = InfluenceService(max_indexes=4, theta=400, rng=17)
        for graph in graphs:
            svc.execute(graph, SelectRequest(k=2))
        victims = [svc._indexes[key] for key in svc.cached_keys()[:2]]

        closed = []
        monkeypatch.setattr(
            type(victims[0]), "close",
            lambda self: (_ for _ in ()).throw(RuntimeError("wedged"))
            if self is victims[0] else closed.append(self),
        )
        svc.max_indexes = 1
        with pytest.raises(RuntimeError, match="wedged"):
            svc._evict()
        # Both victims left the cache and the second one's close() ran.
        assert len(svc) == 1
        assert victims[1] in closed
        monkeypatch.undo()
        svc.close()
