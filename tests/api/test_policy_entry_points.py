"""Entry points under ``policy=``: layering, forwarding, and identity.

A policy field is the default layer under an explicit argument; explicit
keywords and the equivalent policy give byte-identical sketches; wire
dicts and typed requests give identical payloads; the algorithm
registry forwards ``policy=`` only to the algorithms that take it; and
the removed legacy keywords fail loudly instead of being dropped.
"""

import json

import pytest

from repro import InfluenceService, SketchIndex, maximize_influence, ris, tim, tim_plus
from repro.algorithms import register_algorithm, supports_policy
from repro.api import ExecutionPolicy, SelectRequest
from repro.api.policy import SERVING_POLICY
from repro.core import estimate_kpt, node_selection, refine_kpt
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset import make_rr_sampler
from repro.utils.rng import resolve_rng

#: How each entry point that carried legacy keywords is called.
ENTRY_POINTS = {
    "tim": lambda graph, sampler, **kw: tim(graph, 2, **kw),
    "tim_plus": lambda graph, sampler, **kw: tim_plus(graph, 2, **kw),
    "ris": lambda graph, sampler, **kw: ris(graph, 2, **kw),
    "node_selection": lambda graph, sampler, **kw: node_selection(graph, 2, 100, sampler, **kw),
    "estimate_kpt": lambda graph, sampler, **kw: estimate_kpt(graph, 2, sampler, **kw),
    "refine_kpt": lambda graph, sampler, **kw: refine_kpt(graph, 2, 1.0, [], sampler, 0.5, **kw),
}

#: The keywords each entry point no longer takes, with a value callers used.
REMOVED_KEYWORDS = [
    (entry, keyword)
    for entry, keywords in {
        "tim": ("engine", "sketch_index", "jobs", "coverage"),
        "tim_plus": ("engine", "sketch_index", "jobs", "coverage"),
        "ris": ("engine", "sketch_index", "jobs"),
        "node_selection": ("engine", "collection", "jobs", "coverage"),
        "estimate_kpt": ("engine", "jobs"),
        "refine_kpt": ("engine", "jobs"),
    }.items()
    for keyword in keywords
]
LEGACY_VALUES = {"engine": "vectorized", "jobs": 1, "sketch_index": None, "collection": None,
                 "coverage": "lazy"}

#: The service's execution keywords that folded into ``policy=``.
FOLDED_SERVICE_KEYWORDS = {"epsilon": 0.3, "ell": 1.0, "jobs": 2, "trace_edges": True,
                           "deadline_ms": 5.0}


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(60, 240, rng=11))


class TestTimFamilyPolicy:
    def test_default_paths_do_not_warn(self, wc_graph, recwarn):
        tim(wc_graph, 2, epsilon=0.6, rng=1)
        tim_plus(wc_graph, 2, epsilon=0.6, rng=1)
        ris(wc_graph, 2, rng=1, epsilon=0.5)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_ris_honours_policy_epsilon(self, wc_graph):
        # A passed policy's epsilon governs the tau budget; without one,
        # RIS keeps its historical coarser 0.2 default.
        coarse = ris(wc_graph, 3, rng=5, policy=ExecutionPolicy(epsilon=0.5))
        tight = ris(wc_graph, 3, rng=5, policy=ExecutionPolicy(epsilon=0.2))
        default = ris(wc_graph, 3, rng=5)
        baseline = ris(wc_graph, 3, rng=5, epsilon=0.2)
        assert default.seeds == baseline.seeds  # bare call keeps 0.2
        assert tight.seeds == baseline.seeds    # policy epsilon applied
        assert coarse.extras["num_rr_sets"] <= tight.extras["num_rr_sets"]

    def test_policy_epsilon_is_the_default_layer(self, wc_graph):
        explicit = tim(wc_graph, 3, epsilon=0.5, rng=7)
        via_policy = tim(wc_graph, 3, rng=7, policy=ExecutionPolicy(epsilon=0.5))
        assert explicit.seeds == via_policy.seeds
        assert explicit.epsilon == via_policy.epsilon == 0.5
        # explicit argument beats the policy field
        override = tim(wc_graph, 3, epsilon=0.5, rng=7,
                       policy=ExecutionPolicy(epsilon=0.3))
        assert override.epsilon == 0.5
        assert override.seeds == explicit.seeds


class TestSketchBytes:
    def test_sketch_file_bytes_identical_across_paths(self, wc_graph, tmp_path):
        a = SketchIndex.build(wc_graph, "IC", theta=600, rng=31, jobs=None)
        b = SketchIndex.build(wc_graph, "IC", theta=600, rng=31,
                              policy=ExecutionPolicy())
        path_a, path_b = tmp_path / "a.npz", tmp_path / "b.npz"
        a.save(path_a)
        b.save(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestServiceWireDicts:
    def test_wire_dict_matches_typed_execute(self, wc_graph):
        # Two identically-seeded services: cold builds are deterministic, so
        # the typed request and its wire dict must agree byte for byte.
        typed = InfluenceService(theta=500, rng=0).execute(
            wc_graph, SelectRequest(k=3, id="q")).to_wire()
        wire = InfluenceService(theta=500, rng=0).execute(
            wc_graph, {"op": "select", "k": 3, "id": "q"}).to_wire()
        # identical payloads modulo wall-clock
        typed.pop("latency_ms")
        wire.pop("latency_ms")
        assert wire == typed
        assert typed["cache"] == "miss"

    def test_run_batch_does_not_warn(self, wc_graph, recwarn):
        service = InfluenceService(theta=300, rng=0)
        responses = service.run_batch(
            wc_graph, [json.dumps({"op": "select", "k": 2})])
        assert responses[0]["ok"]
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestServicePolicy:
    def test_no_policy_means_the_serving_policy(self):
        service = InfluenceService()
        assert service.policy is SERVING_POLICY
        assert SERVING_POLICY == ExecutionPolicy(epsilon=0.3)

    def test_a_given_policy_is_used_as_is(self):
        assert InfluenceService(policy=ExecutionPolicy()).policy.epsilon == 0.1
        coerced = InfluenceService(policy={"jobs": 2, "deadline_ms": 40})
        assert coerced.policy == ExecutionPolicy(jobs=2, deadline_ms=40.0)

    def test_cold_build_prices_theta_at_the_policy_epsilon(self, wc_graph):
        service = InfluenceService(default_k=2, policy=ExecutionPolicy(epsilon=0.5), rng=9)
        index, cached = service.get_index(wc_graph, "IC")
        expected = SketchIndex.build(wc_graph, "IC", k=2, epsilon=0.5,
                                     rng=resolve_rng(9).spawn())
        assert not cached
        assert index.num_sets == expected.num_sets
        assert index.meta["epsilon"] == 0.5


class TestMaximizeInfluencePolicy:
    def test_policy_forwards_to_tim_family(self, wc_graph):
        result = maximize_influence(wc_graph, 3, algorithm="tim+", rng=3,
                                    epsilon=0.5, policy=ExecutionPolicy(jobs=1))
        baseline = maximize_influence(wc_graph, 3, algorithm="tim+", rng=3,
                                      epsilon=0.5, policy=ExecutionPolicy(jobs=2))
        assert result.seeds == baseline.seeds

    def test_policy_rejected_for_heuristics(self, wc_graph):
        with pytest.raises(ValueError, match="does not accept an execution"):
            maximize_influence(wc_graph, 2, algorithm="degree",
                               policy=ExecutionPolicy())

    def test_supports_policy_probe(self):
        assert supports_policy("tim")
        assert supports_policy("tim+")
        assert supports_policy("ris")
        assert not supports_policy("degree")


class TestRegistryReload:
    def test_reregistering_same_definition_is_idempotent(self):
        register_algorithm("tim", tim)  # the reimport / reload shape
        register_algorithm("tim+", tim_plus)

    def test_different_callable_still_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("tim", lambda *a, **k: None)

    def test_replace_true_overrides_and_restores(self, wc_graph):
        shim_called = []

        def shim(graph, k, *, model="IC", rng=None, **kwargs):
            shim_called.append(k)
            return tim(graph, k, model=model, rng=rng, **kwargs)

        register_algorithm("tim", shim, replace=True)
        try:
            maximize_influence(wc_graph, 2, algorithm="tim", rng=0, epsilon=0.6)
            assert shim_called == [2]
        finally:
            register_algorithm("tim", tim, replace=True)


class TestRemovedCallShapes:
    """A caller still passing a removed keyword gets a TypeError at the call,
    not a silently ignored argument."""

    @pytest.mark.parametrize("entry,keyword", REMOVED_KEYWORDS,
                             ids=[f"{e}-{k}" for e, k in REMOVED_KEYWORDS])
    def test_legacy_keyword_rejected(self, wc_graph, entry, keyword):
        sampler = make_rr_sampler(wc_graph, "IC")
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            ENTRY_POINTS[entry](wc_graph, sampler, **{keyword: LEGACY_VALUES[keyword]})

    def test_sketch_build_rejects_engine(self, wc_graph):
        with pytest.raises(TypeError, match="unexpected keyword argument 'engine'"):
            SketchIndex.build(wc_graph, "IC", theta=100, rng=1, engine="vectorized")

    def test_sketch_select_rejects_incremental(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", theta=100, rng=1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'incremental'"):
            index.select(2, incremental=False)

    def test_service_rejects_engine(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'engine'"):
            InfluenceService(theta=100, engine="vectorized")

    @pytest.mark.parametrize("keyword", sorted(FOLDED_SERVICE_KEYWORDS))
    def test_service_execution_keyword_folded_into_policy(self, keyword):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            InfluenceService(theta=100, **{keyword: FOLDED_SERVICE_KEYWORDS[keyword]})

    def test_policy_has_no_reuse_sketch(self):
        assert "reuse_sketch" not in ExecutionPolicy.field_names()
        with pytest.raises(TypeError, match="unexpected keyword argument 'reuse_sketch'"):
            ExecutionPolicy(reuse_sketch=False)
        with pytest.raises(ValueError, match="unknown execution-policy field"):
            ExecutionPolicy.from_kwargs(reuse_sketch=True)

    def test_service_has_no_dict_query(self):
        assert not hasattr(InfluenceService, "query")
