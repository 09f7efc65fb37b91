"""One read handler: both fronts answer select/spread/marginal_gain through
``repro.api.ops.answer``, and one coercion turns every update shape into an
``EdgeUpdate``."""

import pytest

from repro.api import (
    ApiError,
    InfluenceSession,
    MarginalRequest,
    SelectRequest,
    SelectResponse,
    SpreadRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.api.ops import answer, as_edge_update
from repro.dynamic import DynamicDiGraph, EdgeUpdate
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.sketch import InfluenceService, SketchIndex

#: One request per read op, plus a constrained select (a fresh greedy).
READS = {
    "select": SelectRequest(k=3, id="a"),
    "select-constrained": SelectRequest(k=4, include=(5,), exclude=(6,)),
    "spread": SpreadRequest(seeds=(1, 2, 3)),
    "marginal_gain": MarginalRequest(seeds=(1, 2), candidate=7),
}


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(60, 240, rng=11))


@pytest.mark.parametrize("name", sorted(READS))
def test_service_reply_is_the_handlers_answer(wc_graph, name):
    request = READS[name]
    service = InfluenceService(theta=500, rng=3)
    try:
        reply = service.execute(wc_graph, request)
        assert reply.ok and reply.cache == "miss" and reply.id == request.id
        (key,) = service.cached_keys()
        index = service._indexes[key]
        assert reply.result() == answer(index, request).result()
    finally:
        service.close()


@pytest.mark.parametrize("name", sorted(READS))
def test_session_reply_is_the_handlers_answer(wc_graph, name):
    request = READS[name]
    with InfluenceSession(wc_graph, "IC", rng=3) as session:
        reply = session.execute(request)
        assert reply.ok and reply.id == request.id
        assert reply.result() == answer(session.index, request).result()


def test_session_typed_select_is_the_handlers_answer(wc_graph):
    with InfluenceSession(wc_graph, "IC", rng=3) as session:
        picked = session.select(4, include=[5], exclude=[6])
        assert isinstance(picked, SelectResponse)
        expected = answer(session.index, SelectRequest(k=4, include=(5,), exclude=(6,)))
        assert picked.result() == expected.result()


def test_spread_answer_matches_the_index_estimators(wc_graph):
    index = SketchIndex.build(wc_graph, "IC", theta=400, rng=2)
    reply = answer(index, SpreadRequest(seeds=(4, 9)))
    assert reply.spread == index.spread([4, 9])
    assert reply.coverage_fraction == index.coverage_fraction([4, 9])
    assert reply.num_rr_sets == index.num_sets == 400
    assert reply.cache is None and reply.id is None  # the envelope is the front's


@pytest.mark.parametrize("request_", [
    StatsRequest(), UpdateRequest(action="delete", u=0, v=1)], ids=["stats", "update"])
def test_answer_rejects_requests_that_are_not_reads(wc_graph, request_):
    index = SketchIndex.build(wc_graph, "IC", theta=50, rng=2)
    with pytest.raises(ApiError, match="not a read") as info:
        answer(index, request_)
    assert info.value.code == "bad_request"


class TestAsEdgeUpdate:
    def test_edge_update_passes_through(self):
        update = EdgeUpdate(action="insert", u=0, v=5, prob=0.2)
        assert as_edge_update(update) is update

    @pytest.mark.parametrize("shape", [
        UpdateRequest(action="reweight", u=0, v=5, p=0.25),
        {"action": "reweight", "u": 0, "v": 5, "p": 0.25},
        {"op": "update", "action": "reweight", "u": 0, "v": 5, "prob": 0.25},
    ], ids=["request", "dict", "envelope-dict"])
    def test_request_shapes_coerce(self, shape):
        assert as_edge_update(shape) == EdgeUpdate(action="reweight", u=0, v=5, prob=0.25)

    def test_malformed_dict_is_rejected(self):
        with pytest.raises(ValueError, match="integer 'u' and 'v'"):
            as_edge_update({"action": "delete", "u": "0", "v": 5})

    def test_service_accepts_every_update_shape(self, wc_graph):
        shapes = [
            EdgeUpdate(action="insert", u=0, v=50, prob=0.1),
            UpdateRequest(action="reweight", u=0, v=50, p=0.2),
            {"action": "delete", "u": 0, "v": 50},
        ]
        service = InfluenceService(theta=200, rng=4)
        dynamic = DynamicDiGraph(wc_graph)
        try:
            for version, update in enumerate(shapes, start=1):
                assert service.apply_update(dynamic, update)["version"] == version
        finally:
            service.close()
