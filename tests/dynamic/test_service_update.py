"""Service-level dynamic updates: versioned cache keys, JSONL op, CLI."""

import json

import pytest

from repro.api import ExecutionPolicy
from repro.cli import main
from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, save_edge_list, weighted_cascade
from repro.sketch import InfluenceService

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")  # this module deliberately exercises the deprecated legacy surface



@pytest.fixture
def wc_graph():
    return weighted_cascade(gnm_random_digraph(80, 320, rng=13))


@pytest.fixture
def service():
    return InfluenceService(max_indexes=3, theta=400,
                            policy=ExecutionPolicy(trace_edges=True), rng=17)


class TestServiceApplyUpdate:
    def test_update_rekeys_cached_index(self, service, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        service.execute(dynamic, {"op": "select", "k": 3})
        old_key = service.cached_keys()[0]
        result = service.apply_update(
            dynamic, {"action": "delete", "u": int(wc_graph.src[0]), "v": int(wc_graph.dst[0])}
        )
        assert result["version"] == 1
        assert len(result["repaired_indexes"]) == 1
        # The stale key vacated the cache in the same step.
        assert old_key not in service.cached_keys()
        assert service.cached_keys() == [(dynamic.fingerprint(), "IC")]
        # Next query hits the repaired index warm — no rebuild.
        response = service.execute(dynamic, {"op": "select", "k": 3}).to_wire()
        assert response["cache"] == "hit"
        assert service.stats.builds == 1
        assert service.stats.repairs == 1
        assert service.stats.sets_resampled == result["repaired_indexes"][0]["num_affected"]

    def test_update_without_cached_index_is_cheap(self, service, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        result = service.apply_update(dynamic, {"action": "insert", "u": 1, "v": 2, "p": 0.3})
        assert result["repaired_indexes"] == []
        assert service.stats.repairs == 0
        # The next query cold-builds against the updated snapshot.
        response = service.execute(dynamic, {"op": "select", "k": 2}).to_wire()
        assert response["cache"] == "miss"

    def test_update_requires_dynamic_graph(self, service, wc_graph):
        response = service.execute(
            wc_graph, {"op": "update", "action": "delete", "u": 0, "v": 1}
        ).to_wire()
        assert response["ok"] is False
        assert "DynamicDiGraph" in response["error"]["message"]
        assert service.stats.errors == 1

    def test_run_batch_mixes_queries_and_updates(self, service, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        u, v = int(wc_graph.src[4]), int(wc_graph.dst[4])
        lines = [
            json.dumps({"op": "select", "k": 2}),
            json.dumps({"op": "update", "action": "delete", "u": u, "v": v}),
            json.dumps({"op": "select", "k": 2}),
            json.dumps({"op": "stats"}),
        ]
        responses = service.run_batch(dynamic, lines)
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[1]["result"]["version"] == 1
        assert responses[2]["cache"] == "hit"
        assert responses[3]["result"]["repairs"] == 1

    def test_bad_update_is_an_error_response_not_a_crash(self, service, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        response = service.execute(
            dynamic, {"op": "update", "action": "delete", "u": 0, "v": 0}
        ).to_wire()
        assert response["ok"] is False  # no self-loop 0->0 in the graph
        # The graph was not mutated by the failed update.
        assert dynamic.version == 0

    def test_rejected_update_leaves_cache_and_graph_untouched(self):
        """A post-update snapshot that is invalid for a cached model must
        not mutate anything: the graph stays at its version, the index
        stays cached under its key, and no pool is dropped unclosed."""
        import numpy as np

        from repro.graphs import gnm_random_digraph, uniform_random_lt

        graph = uniform_random_lt(gnm_random_digraph(40, 160, rng=7), rng=1)
        service = InfluenceService(max_indexes=2, theta=300,
                                   policy=ExecutionPolicy(trace_edges=True), rng=17)
        dynamic = DynamicDiGraph(graph)
        service.execute(dynamic, {"op": "select", "k": 2, "model": "LT"})
        cached_before = service.cached_keys()
        index_before = next(iter(service._indexes.values()))
        # Push a node's in-weight sum over 1: invalid for the cached LT index.
        heavy = int(np.argmax(np.bincount(graph.dst.astype(int),
                                          weights=graph.prob, minlength=graph.n)))
        response = service.execute(dynamic, {
            "op": "update", "action": "insert",
            "u": (heavy + 1) % graph.n, "v": heavy, "p": 1.0,
        }).to_wire()
        assert response["ok"] is False
        assert "LT weights invalid" in response["error"]["message"]
        assert dynamic.version == 0
        assert service.cached_keys() == cached_before
        assert next(iter(service._indexes.values())) is index_before
        # The untouched index still answers warm.
        assert service.execute(dynamic, {"op": "select", "k": 2, "model": "LT"}).to_wire()["cache"] == "hit"

    def test_update_rejects_boolean_endpoints(self, service, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        response = service.execute(
            dynamic, {"op": "update", "action": "delete", "u": True, "v": 0}
        ).to_wire()
        assert response["ok"] is False
        assert "integer" in response["error"]["message"]
        assert dynamic.version == 0


class TestUpdateCli:
    def test_update_subcommand_roundtrip(self, tmp_path, capsys):
        graph = weighted_cascade(gnm_random_digraph(60, 240, rng=3))
        edge_path = tmp_path / "graph.edges"
        save_edge_list(graph, edge_path)
        sketch_path = tmp_path / "sketch.npz"
        assert main([
            "sketch", "--dataset", f"@{edge_path}", "--model", "IC",
            "--theta", "500", "--seed", "4", "--trace-edges",
            "--out", str(sketch_path),
        ]) == 0
        updates_path = tmp_path / "updates.jsonl"
        # The CLI reloads @edge files with compacted labels, so pick the
        # edge to touch off the graph as the CLI will see it.
        from repro.graphs import load_edge_list

        reloaded, _ = load_edge_list(edge_path)
        u, v = int(reloaded.src[2]), int(reloaded.dst[2])
        updates_path.write_text(
            json.dumps({"action": "delete", "u": u, "v": v}) + "\n"
            + "# comment lines are skipped\n"
            + json.dumps({"action": "insert", "u": u, "v": v, "p": 0.2}) + "\n"
        )
        out_path = tmp_path / "repaired.npz"
        graph_out = tmp_path / "updated.edges"
        assert main([
            "update", "--dataset", f"@{edge_path}", "--model", "IC",
            "--sketch", str(sketch_path), "--updates", str(updates_path),
            "--out", str(out_path), "--save-graph", str(graph_out), "--seed", "4",
        ]) == 0
        captured = capsys.readouterr().out
        assert "resampled" in captured
        assert out_path.exists() and graph_out.exists()
        from repro.sketch import SketchIndex

        loaded = SketchIndex.load(out_path)
        assert loaded.num_sets == 500
        assert loaded.collection.has_traces
        assert loaded.meta["dynamic_updates"] == 2

    def test_update_subcommand_rejects_bad_line(self, tmp_path):
        graph = weighted_cascade(gnm_random_digraph(20, 60, rng=3))
        edge_path = tmp_path / "graph.edges"
        save_edge_list(graph, edge_path)
        sketch_path = tmp_path / "sketch.npz"
        main([
            "sketch", "--dataset", f"@{edge_path}", "--model", "IC",
            "--theta", "100", "--seed", "4", "--trace-edges",
            "--out", str(sketch_path),
        ])
        updates_path = tmp_path / "updates.jsonl"
        updates_path.write_text('{"action": "explode"}\n')
        with pytest.raises(SystemExit, match="updates.jsonl:1"):
            main([
                "update", "--dataset", f"@{edge_path}", "--model", "IC",
                "--sketch", str(sketch_path), "--updates", str(updates_path),
                "--out", str(tmp_path / "r.npz"),
            ])
