"""The one pricing path: every solver, build and front prices θ through price()."""

import pytest

from repro import ExecutionPolicy, InfluenceSession, imm, tim, tim_plus
from repro.core import price
from repro.dynamic import DynamicDiGraph
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.sketch import InfluenceService, SketchIndex


@pytest.fixture(scope="module")
def graph():
    return weighted_cascade(gnm_random_digraph(300, 1500, rng=1))


class TestSolverBuildParity:
    def test_tim_and_tim_build_price_the_same_sketch(self, graph):
        result = tim(graph, 5, 0.5, rng=7)
        index = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="tim")
        assert result.theta == index.num_sets
        assert result.seeds == index.select(5).seeds

    def test_imm_and_imm_build_price_the_same_sketch(self, graph):
        result = imm(graph, 5, 0.5, rng=7)
        index = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="imm")
        assert result.opt_lower_bound == index.meta["imm_lower_bound"]
        assert result.total_rr_sets == index.num_sets
        assert result.seeds == index.select(5).seeds


class TestFrontsAgree:
    POLICY = ExecutionPolicy(epsilon=0.5, algorithm="imm")

    def test_session_and_service_build_the_same_sketch(self, graph):
        service = InfluenceService(policy=self.POLICY, rng=1, default_k=3)
        service.execute(graph, {"op": "select", "k": 3})
        served, _ = service.get_index(graph, "IC")
        with InfluenceSession(graph, policy=self.POLICY, rng=1, default_k=3) as session:
            session.select(3)
            assert session.num_rr_sets == served.num_sets
            assert session.index.meta["algorithm"] == served.meta["algorithm"] == "imm"
        service.close()

    def test_session_keeps_its_rule_for_later_k(self, graph):
        by_tim = SketchIndex.build(graph, k=5, epsilon=0.5, rng=2, algorithm="tim")
        with InfluenceSession(graph, policy=self.POLICY, rng=1) as session:
            session.select(3)
            session.select(5)
            assert session.index.meta["algorithm"] == "imm"
            assert {rule for rule, _, _ in session.index.priced} == {"imm"}
            assert session.num_rr_sets < by_tim.num_sets


class TestWarmPath:
    def test_loaded_sketch_reuses_its_build_kpt(self, graph, tmp_path):
        built = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="tim")
        path = tmp_path / "priced.npz"
        built.save(path)
        loaded = SketchIndex.load(path, graph=graph)
        pricing = price(loaded, 5, 0.5, 1.0, "tim", rng=8)
        assert pricing.cached
        assert pricing.lower_bound == built.meta["kpt_star"]
        assert sum(pricing.rr_sets_per_phase.values()) == 0
        assert loaded.num_sets == built.num_sets

    def test_loaded_imm_bound_is_searched_again(self, graph, tmp_path):
        # A file may pair imm_lower_bound with a k it was not priced for.
        built = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="imm")
        built.meta["imm_lower_bound"] *= 10
        path = tmp_path / "priced.npz"
        built.save(path)
        pricing = price(SketchIndex.load(path, graph=graph), 5, 0.5, 1.0, "imm", rng=8)
        assert not pricing.cached
        assert pricing.iterations > 0
        assert pricing.lower_bound < built.meta["imm_lower_bound"]

    def test_loaded_tim_sketch_skips_algorithm_2_in_tim(self, graph, tmp_path):
        built = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="tim")
        path = tmp_path / "priced.npz"
        built.save(path)
        loaded = SketchIndex.load(path, graph=graph)
        result = tim(graph, 5, 0.5, rng=9, index=loaded)
        assert result.extras["kpt_cache_hit"]
        assert result.kpt_star == built.meta["kpt_star"]
        assert result.seeds == built.select(5).seeds

    def test_warm_imm_samples_nothing(self, graph):
        index = SketchIndex(graph=graph)
        cold = imm(graph, 4, 0.5, rng=3, index=index)
        warm = imm(graph, 4, 0.5, rng=4, index=index)
        assert warm.total_rr_sets == 0
        assert warm.opt_lower_bound == cold.opt_lower_bound
        assert warm.seeds == cold.seeds

    def test_other_ell_is_priced_afresh(self, graph):
        index = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, algorithm="tim")
        pricing = price(index, 5, 0.5, 2.0, "tim", rng=8)
        assert not pricing.cached
        assert pricing.rr_sets_per_phase["parameter_estimation"] > 0
        assert set(index.priced) == {("tim", 5, 1.0), ("tim", 5, 2.0)}

    def test_update_drops_every_pricing(self, graph):
        dynamic = DynamicDiGraph(graph)
        index = SketchIndex.build(graph, k=5, epsilon=0.5, rng=7, trace_edges=True)
        index.apply_update(dynamic.delete_edge(int(graph.src[0]), int(graph.dst[0])),
                           rng=1)
        assert index.priced == {}
        assert "kpt_star" not in index.meta
        assert not price(index, 5, 0.5, 1.0, "tim", rng=2).cached


class TestPricingRecord:
    def test_tim_plus_records_both_bounds(self, graph):
        index = SketchIndex(graph=graph)
        result = tim_plus(graph, 4, 0.5, rng=5, index=index)
        pricing = index.priced[("tim+", 4, 1.0)]
        assert pricing.lower_bound == result.kpt_plus >= pricing.kpt_star
        assert index.meta["algorithm"] == "tim+"
        assert index.meta["kpt_plus"] == result.kpt_plus
        assert index.meta["epsilon"] == 0.5

    def test_rejects_unknown_rule(self, graph):
        with pytest.raises(ValueError, match="pricing rule"):
            price(SketchIndex(graph=graph), 3, 0.5, 1.0, "greedy", rng=1)


class TestAdoptionCheck:
    """Solvers grow only an index of their own model and graph."""

    @pytest.fixture
    def index(self, graph):
        return SketchIndex.build(graph, "IC", theta=100, rng=1)

    @pytest.mark.parametrize("solver", [tim, tim_plus, imm])
    def test_other_model_rejected(self, graph, index, solver):
        with pytest.raises(ValueError, match="model"):
            solver(graph, 3, 0.5, model="LT", rng=1, index=index)
        assert index.num_sets == 100

    @pytest.mark.parametrize("solver", [tim, tim_plus, imm])
    def test_other_graph_rejected(self, index, solver):
        other = weighted_cascade(gnm_random_digraph(300, 1500, rng=2))
        with pytest.raises(ValueError, match="different graph"):
            solver(other, 3, 0.5, rng=1, index=index)
        assert index.num_sets == 100
