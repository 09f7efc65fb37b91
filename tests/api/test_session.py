"""InfluenceSession: facade behaviour, determinism, lifecycle, typed ops."""

import pytest

from repro.api import (
    ApiError,
    ExecutionPolicy,
    InfluenceSession,
    SelectRequest,
    SelectResponse,
    SpreadRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.sketch import SketchIndex


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(60, 240, rng=11))


class TestQueries:
    def test_select_returns_typed_response(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=0) as session:
            response = session.select(4)
        assert isinstance(response, SelectResponse)
        assert len(response.seeds) == 4
        assert len(set(response.seeds)) == 4
        assert 0.0 < response.coverage_fraction <= 1.0
        assert response.estimated_spread == pytest.approx(
            wc_graph.n * response.coverage_fraction)
        assert response.num_rr_sets >= 1

    def test_select_matches_direct_sketch_index(self, wc_graph):
        session = InfluenceSession(wc_graph, "IC", rng=5)
        picked = session.select(5)
        # Same RR sets => same greedy answer as querying the index directly.
        assert picked.seeds == session.index.select(5).seeds
        session.close()

    def test_spread_and_marginal_are_consistent(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=1) as session:
            seeds = session.select(3).seeds
            base = session.spread(seeds)
            gain = session.marginal(seeds, seeds[0])
            assert gain == 0.0  # already a seed: no new coverage
            assert base > 0.0

    def test_same_seed_same_results(self, wc_graph):
        def run():
            with InfluenceSession(wc_graph, "IC", rng=42) as session:
                response = session.select(4)
                return response.seeds, session.spread(response.seeds)
        assert run() == run()

    def test_constrained_selection(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=3) as session:
            response = session.select(3, include=[7], exclude=[0])
            assert response.seeds[0] == 7
            assert 0 not in response.seeds

    def test_select_with_larger_k_extends_incrementally(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=9) as session:
            small = session.select(2)
            large = session.select(5)
            assert large.seeds[:2] == small.seeds


class TestEnsure:
    def test_ensure_theta_grows_to_target(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=2) as session:
            session.select(2)
            before = session.num_rr_sets
            added = session.ensure(theta=before + 500)
            assert added == 500
            assert session.num_rr_sets == before + 500

    def test_ensure_epsilon_tightening_only_adds(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=2,
                              policy=ExecutionPolicy(epsilon=0.5)) as session:
            session.select(2)
            before = session.num_rr_sets
            added = session.ensure(epsilon=0.3, k=2)
            assert added >= 0
            assert session.num_rr_sets == before + added

    def test_ensure_theta_on_fresh_session_samples_exactly_theta(self, wc_graph):
        # Regression: the first sketch must be built straight to the
        # requested size, not epsilon-derived first (which could sample
        # hundreds of thousands of sets before the theta target applies).
        with InfluenceSession(wc_graph, "IC", rng=3) as session:
            added = session.ensure(theta=100)
            assert added == 100
            assert session.num_rr_sets == 100

    def test_ensure_epsilon_on_fresh_session_uses_requested_epsilon(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=3,
                              policy=ExecutionPolicy(epsilon=0.1)) as session:
            session.ensure(epsilon=0.9, k=2)
            assert session.index.meta["epsilon"] == 0.9

    def test_ensure_requires_exactly_one_target(self, wc_graph):
        session = InfluenceSession(wc_graph, rng=0)
        with pytest.raises(ValueError, match="exactly one"):
            session.ensure()
        with pytest.raises(ValueError, match="exactly one"):
            session.ensure(epsilon=0.2, theta=10)
        session.close()


class TestPolicy:
    def test_select_keeps_and_grows_one_index(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=0) as session:
            session.select(2)
            first = session.index
            session.select(3)
            assert session.index is first

    def test_policy_dict_coercion(self, wc_graph):
        session = InfluenceSession(wc_graph, policy={"epsilon": 0.5}, rng=0)
        assert session.policy.epsilon == 0.5
        session.close()

    def test_jobs_invariance_of_results(self, wc_graph):
        # The sharded path is byte-identical for every worker count >= 1
        # (jobs=None is the separate legacy single-stream RNG path).
        def seeds_for(jobs):
            policy = ExecutionPolicy(jobs=jobs, epsilon=0.4)
            with InfluenceSession(wc_graph, "IC", policy=policy, rng=7) as session:
                return session.select(3).seeds
        assert seeds_for(1) == seeds_for(2) == seeds_for(4)


class TestDynamicUpdates:
    def test_apply_update_repairs_owned_index(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=4) as session:
            session.select(2)
            theta = session.num_rr_sets
            u, v = int(wc_graph.src[0]), int(wc_graph.dst[0])
            response = session.apply_update(action="delete", u=u, v=v)
            assert response.version == 1
            assert response.num_edges == wc_graph.m - 1
            assert len(response.repaired_indexes) == 1
            assert session.num_rr_sets == theta  # repaired, not rebuilt
            assert session.graph.m == wc_graph.m - 1
            # the index now serves the new snapshot
            assert session.index.meta["graph_fingerprint"] == response.fingerprint

    def test_invalid_update_rejected_even_before_first_query(self):
        """Regression: model validation must run even when no sketch has
        been built yet, or an invalid update commits and wedges the
        session permanently."""
        import numpy as np

        from repro.graphs import gnm_random_digraph, uniform_random_lt

        graph = uniform_random_lt(gnm_random_digraph(40, 160, rng=7), rng=1)
        with InfluenceSession(graph, "LT", rng=0) as session:
            heavy = int(np.argmax(np.bincount(
                graph.dst.astype(int), weights=graph.prob, minlength=graph.n)))
            with pytest.raises(ValueError, match="LT weights"):
                session.apply_update(action="insert",
                                     u=(heavy + 1) % graph.n, v=heavy, p=1.0)
            assert session.dynamic_graph.version == 0
            session.select(2)  # the session still works

    def test_update_before_any_query_only_mutates_graph(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=4) as session:
            response = session.apply_update(action="insert", u=0, v=59, p=0.2)
            assert response.repaired_indexes == []
            assert session.index is None
            assert session.dynamic_graph.version == 1

    def test_rejected_update_leaves_everything_untouched(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=4) as session:
            session.select(2)
            with pytest.raises((ValueError, KeyError)):
                session.apply_update(action="delete", u=0, v=0)  # no self loop
            assert session.dynamic_graph.version == 0

    def test_accepts_every_update_shape(self, wc_graph):
        from repro.dynamic import EdgeUpdate

        shapes = [
            EdgeUpdate(action="insert", u=0, v=50, prob=0.1),
            UpdateRequest(action="reweight", u=0, v=50, p=0.2),
            {"action": "delete", "u": 0, "v": 50},
        ]
        with InfluenceSession(wc_graph, "IC", rng=4) as session:
            for version, update in enumerate(shapes, start=1):
                assert session.apply_update(update).version == version

    def test_adopts_existing_dynamic_graph(self, wc_graph):
        dynamic = DynamicDiGraph(wc_graph)
        with InfluenceSession(dynamic, "IC", rng=0) as session:
            session.apply_update(action="insert", u=1, v=58, p=0.3)
        assert dynamic.version == 1  # shared, not copied


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_growth(self, wc_graph):
        session = InfluenceSession(wc_graph, rng=0)
        session.select(2)
        session.close()
        session.close()
        with pytest.raises(ValueError, match="closed"):
            session.select(3)

    def test_adopted_index(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", theta=400, rng=8)
        with InfluenceSession(wc_graph, "IC", rng=0, index=index) as session:
            assert session.num_rr_sets >= 400
            assert session.select(2).seeds == index.select(2).seeds

    def test_adopted_index_model_mismatch(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", theta=50, rng=8)
        with pytest.raises(ValueError, match="model"):
            InfluenceSession(wc_graph, "LT", index=index)


class TestTypedOps:
    def test_execute_select_and_spread(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            picked = session.execute(SelectRequest(k=3, id="q1"))
            assert picked.id == "q1"
            spread = session.execute(SpreadRequest(seeds=tuple(picked.seeds)))
            assert spread.spread == pytest.approx(session.spread(picked.seeds))

    def test_spread_request_runs_the_postings_union_once(self, wc_graph, monkeypatch):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            seeds = tuple(session.select(3).seeds)
            unions = []
            covered_mask = SketchIndex._covered_mask

            def counted(index, members):
                unions.append(members)
                return covered_mask(index, members)

            monkeypatch.setattr(SketchIndex, "_covered_mask", counted)
            response = session.execute(SpreadRequest(seeds=seeds))
            assert len(unions) == 1
            monkeypatch.undo()
            assert response.spread == session.spread(seeds)
            assert response.coverage_fraction == session.index.coverage_fraction(seeds)

    def test_execute_wire_dicts(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            response = session.execute({"op": "select", "k": 2})
            assert len(response.seeds) == 2

    def test_execute_stats(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            session.select(2)
            stats = session.execute(StatsRequest()).stats
            assert stats["model"] == "IC"
            assert stats["num_rr_sets"] == session.num_rr_sets
            assert stats["policy"] == session.policy.as_dict()

    def test_stats_report_sketch_certification(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            session.select(2)
            sketch = session.execute(StatsRequest()).stats["sketch"]
            assert sketch["theta"] == session.num_rr_sets
            assert sketch["algorithm"] == "tim"
            assert sketch["epsilon"] == session.policy.epsilon
            assert sketch["theta_capped"] is False

    def test_stats_report_imm_derivation(self, wc_graph):
        policy = ExecutionPolicy(algorithm="imm", epsilon=0.5)
        with InfluenceSession(wc_graph, "IC", policy=policy, rng=6) as session:
            session.select(2)
            sketch = session.execute(StatsRequest()).stats["sketch"]
            assert sketch["algorithm"] == "imm"
            assert sketch["epsilon"] == 0.5

    def test_stats_before_any_query_have_empty_sketch(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            sketch = session.execute(StatsRequest()).stats["sketch"]
            assert sketch == {"theta": 0, "algorithm": None, "epsilon": None,
                              "theta_capped": False}

    def test_execute_raises_api_errors(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            with pytest.raises(ApiError) as info:
                session.execute({"op": "select", "k": 2, "includ": [1]})
            assert info.value.code == "unknown_field"

    def test_model_override_rejected(self, wc_graph):
        with InfluenceSession(wc_graph, "IC", rng=6) as session:
            with pytest.raises(ApiError, match="InfluenceService"):
                session.execute(SelectRequest(k=2, model="LT"))
