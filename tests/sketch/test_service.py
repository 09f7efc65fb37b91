"""InfluenceService: LRU behaviour, query dispatch, JSONL batches."""

import json

import pytest

from repro.api import ExecutionPolicy
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.sketch import InfluenceService, SketchIndex

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")  # this module deliberately exercises the deprecated legacy surface



@pytest.fixture
def wc_graph():
    return weighted_cascade(gnm_random_digraph(90, 360, rng=31))


@pytest.fixture
def service():
    return InfluenceService(max_indexes=2, theta=400, rng=17)


class TestCache:
    def test_miss_then_hit(self, service, wc_graph):
        first = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()
        second = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["result"]["seeds"] == second["result"]["seeds"]
        assert service.stats.builds == 1

    def test_distinct_graphs_get_distinct_indexes(self, service):
        a = weighted_cascade(gnm_random_digraph(50, 200, rng=1))
        b = weighted_cascade(gnm_random_digraph(50, 200, rng=2))
        service.execute(a, {"op": "select", "k": 2})
        service.execute(b, {"op": "select", "k": 2})
        assert len(service) == 2
        assert service.stats.builds == 2

    def test_lru_eviction(self, service):
        graphs = [
            weighted_cascade(gnm_random_digraph(40, 160, rng=seed)) for seed in (1, 2, 3)
        ]
        for graph in graphs:
            service.execute(graph, {"op": "select", "k": 2})
        assert len(service) == 2
        assert service.stats.evictions == 1
        # Oldest graph was evicted: querying it again is a rebuild miss.
        response = service.execute(graphs[0], {"op": "select", "k": 2}).to_wire()
        assert response["cache"] == "miss"

    def test_add_index_registers_preloaded_sketch(self, service, wc_graph, tmp_path):
        index = SketchIndex.build(wc_graph, "IC", theta=200, rng=3)
        path = tmp_path / "sk.npz"
        index.save(path)
        service.add_index(SketchIndex.load(path, graph=wc_graph))
        response = service.execute(wc_graph, {"op": "select", "k": 2}).to_wire()
        assert response["cache"] == "hit"
        assert service.stats.builds == 0


class TestQueries:
    def test_select_response_shape(self, service, wc_graph):
        response = service.execute(wc_graph, {"op": "select", "k": 4, "id": "q1"}).to_wire()
        assert response["ok"] and response["id"] == "q1"
        result = response["result"]
        assert len(result["seeds"]) == 4
        assert 0.0 <= result["coverage_fraction"] <= 1.0
        assert result["estimated_spread"] == pytest.approx(
            wc_graph.n * result["coverage_fraction"]
        )
        assert response["latency_ms"] >= 0.0

    def test_select_with_constraints(self, service, wc_graph):
        response = service.execute(
            wc_graph, {"op": "select", "k": 4, "include": [5], "exclude": [6]}
        ).to_wire()
        assert response["ok"]
        assert response["result"]["seeds"][0] == 5
        assert 6 not in response["result"]["seeds"]

    def test_spread_and_marginal_gain(self, service, wc_graph):
        seeds = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()["result"]["seeds"]
        spread = service.execute(wc_graph, {"op": "spread", "seeds": seeds}).to_wire()
        assert spread["ok"] and spread["result"]["spread"] > 0
        gain = service.execute(
            wc_graph, {"op": "marginal_gain", "seeds": seeds[:2], "candidate": seeds[2]}
        ).to_wire()
        assert gain["ok"] and gain["result"]["gain"] >= 0

    def test_spread_request_runs_the_postings_union_once(self, service, wc_graph,
                                                          monkeypatch):
        seeds = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()["result"]["seeds"]
        unions = []
        covered_mask = SketchIndex._covered_mask

        def counted(index, members):
            unions.append(members)
            return covered_mask(index, members)

        monkeypatch.setattr(SketchIndex, "_covered_mask", counted)
        spread = service.execute(wc_graph, {"op": "spread", "seeds": seeds}).to_wire()
        assert len(unions) == 1
        index, _ = service.get_index(wc_graph, "IC")
        assert spread["result"]["spread"] == index.spread(seeds)
        assert spread["result"]["coverage_fraction"] == index.coverage_fraction(seeds)

    def test_stats_op(self, service, wc_graph):
        service.execute(wc_graph, {"op": "select", "k": 2})
        response = service.execute(wc_graph, {"op": "stats"}).to_wire()
        assert response["ok"]
        assert response["result"]["queries"] == 1
        assert response["result"]["per_op"] == {"select": 1}

    def test_bad_requests_do_not_raise(self, service, wc_graph):
        for request in (
            {"op": "unknown"},
            {"op": "select"},
            {"op": "select", "k": 0},
            {"op": "spread", "seeds": []},
            {"op": "marginal_gain", "seeds": [1]},
            {"op": "spread", "seeds": [10_000]},
        ):
            response = service.execute(wc_graph, request).to_wire()
            assert not response["ok"]
            assert "error" in response
        assert service.stats.errors == 6

    def test_errors_are_structured_payloads(self, service, wc_graph):
        response = service.execute(wc_graph, {"op": "warp", "k": 1}).to_wire()
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_op"
        assert "warp" in response["error"]["message"]
        assert response["schema_version"] == 1

    def test_unknown_fields_rejected_not_ignored(self, service, wc_graph):
        """A typo'd key used to be silently dropped — a healthy-looking
        wrong answer.  Now it is a structured error."""
        response = service.execute(
            wc_graph, {"op": "select", "k": 2, "includ": [1]}).to_wire()
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_field"
        assert "includ" in response["error"]["message"]
        assert service.stats.errors == 1

    def test_schema_version_negotiation(self, service, wc_graph):
        ok = service.execute(wc_graph, {"op": "select", "k": 2, "schema_version": 1}).to_wire()
        assert ok["ok"] and ok["schema_version"] == 1
        future = service.execute(wc_graph, {"op": "select", "k": 2, "schema_version": 99}).to_wire()
        assert future["ok"] is False
        assert future["error"]["code"] == "unsupported_schema_version"

    def test_typed_execute_front(self, service, wc_graph):
        from repro.api import SelectRequest, SelectResponse

        response = service.execute(wc_graph, SelectRequest(k=2, id="t1"))
        assert isinstance(response, SelectResponse)
        assert response.id == "t1"
        assert len(response.seeds) == 2
        assert response.to_wire()["result"]["seeds"] == response.seeds


class TestBatch:
    def test_jsonl_batch(self, service, wc_graph):
        lines = [
            json.dumps({"op": "select", "k": k}) for k in (1, 2, 3)
        ] + ["", "# comment", json.dumps({"op": "stats"})]
        responses = service.run_batch(wc_graph, lines)
        assert len(responses) == 4  # blanks and comments skipped
        assert all(response["ok"] for response in responses)

    def test_invalid_json_reported_per_line(self, service, wc_graph):
        responses = service.run_batch(wc_graph, ["{not json", json.dumps({"op": "stats"})])
        assert not responses[0]["ok"]
        assert responses[0]["line"] == 1
        assert responses[1]["ok"]
        assert service.stats.errors == 1


class TestRobustness:
    def test_out_of_range_exclude_is_a_soft_error(self, service, wc_graph):
        """A bad request must never take down a batch (regression test)."""
        responses = service.run_batch(wc_graph, [
            json.dumps({"op": "select", "k": 2, "exclude": [999_999_999]}),
            json.dumps({"op": "select", "k": 2, "exclude": [-1]}),
            json.dumps({"op": "select", "k": 2, "include": [-3]}),
            json.dumps({"op": "select", "k": 2}),
        ])
        assert [r["ok"] for r in responses] == [False, False, False, True]


class TestEvictionClosesPools:
    """PR 3 gap: evicting an index must release its worker pool and shared
    graph segments — no fd/SHM leak behind the LRU (asserted via spies on
    close(), plus the live pool state for a real multi-worker index)."""

    def _spy(self, index, calls, tag):
        original = index.close

        def spying_close():
            calls.append(tag)
            original()

        index.close = spying_close

    def test_eviction_closes_exactly_the_evicted_index(self, service):
        graphs = [
            weighted_cascade(gnm_random_digraph(40, 160, rng=seed)) for seed in (1, 2, 3)
        ]
        calls = []
        service.execute(graphs[0], {"op": "select", "k": 2})
        service.execute(graphs[1], {"op": "select", "k": 2})
        for tag, index in enumerate(service._indexes.values()):
            self._spy(index, calls, tag)
        service.execute(graphs[2], {"op": "select", "k": 2})  # evicts index 0
        assert calls == [0]

    def test_service_close_closes_every_cached_index(self, service):
        graphs = [
            weighted_cascade(gnm_random_digraph(40, 160, rng=seed)) for seed in (4, 5)
        ]
        for graph in graphs:
            service.execute(graph, {"op": "select", "k": 2})
        calls = []
        for tag, index in enumerate(service._indexes.values()):
            self._spy(index, calls, tag)
        service.close()
        assert calls == [0, 1]

    def test_eviction_shuts_down_a_live_worker_pool(self):
        from repro.parallel import ParallelSampler

        service = InfluenceService(max_indexes=1, theta=300,
                                   policy=ExecutionPolicy(jobs=2), rng=6)
        first = weighted_cascade(gnm_random_digraph(40, 160, rng=7))
        second = weighted_cascade(gnm_random_digraph(40, 160, rng=8))
        service.execute(first, {"op": "select", "k": 2})
        index = next(iter(service._indexes.values()))
        sampler = index._sampler
        assert isinstance(sampler, ParallelSampler)
        assert sampler._state.get("executor") is not None  # pool is live
        service.execute(second, {"op": "select", "k": 2})  # evicts `index`
        assert service.stats.evictions == 1
        # The evicted index's pool and shared-graph pack are both released.
        assert sampler._state.get("executor") is None
        assert sampler._state.get("pack") is None

    def test_update_repair_does_not_leak_the_old_pool(self):
        from repro.dynamic import DynamicDiGraph
        from repro.parallel import ParallelSampler

        service = InfluenceService(max_indexes=2, theta=300, rng=6,
                                   policy=ExecutionPolicy(jobs=2, trace_edges=True))
        graph = weighted_cascade(gnm_random_digraph(40, 160, rng=7))
        dynamic = DynamicDiGraph(graph)
        service.execute(dynamic, {"op": "select", "k": 2})
        index = next(iter(service._indexes.values()))
        old_sampler = index._sampler
        assert isinstance(old_sampler, ParallelSampler)
        assert old_sampler._state.get("executor") is not None
        service.apply_update(
            dynamic, {"action": "delete", "u": int(graph.src[0]), "v": int(graph.dst[0])}
        )
        # The pre-update pool (broadcasting the old graph) is gone; the
        # repaired index owns a fresh sampler bound to the new snapshot.
        assert old_sampler._state.get("executor") is None
        assert index._sampler is not old_sampler
        service.close()
