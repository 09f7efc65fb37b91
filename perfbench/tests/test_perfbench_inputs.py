"""Inputs are a pure function of the seed, and valid by construction."""

from collections import Counter

from perfbench import inputs
from repro.dynamic.graph import DynamicDiGraph
from repro.dynamic.updates import parse_update


def digests(sizes, seed):
    graph = inputs.build_graph(sizes, seed)
    return (inputs.graph_digest(graph),
            inputs.digest(inputs.read_stream(sizes, seed)),
            inputs.digest(inputs.update_stream(sizes, graph, seed)))


def test_same_seed_gives_the_same_input_hashes(small):
    assert digests(small, 7) == digests(small, 7)
    assert all(a != b for a, b in zip(digests(small, 7), digests(small, 8)))


def test_every_read_block_has_the_fixed_mix(small):
    stream = inputs.read_stream(small, 3)
    for start in range(0, len(stream), inputs.READ_BLOCK):
        block = stream[start:start + inputs.READ_BLOCK]
        kinds = Counter("constrained" if "include" in r else r["op"] for r in block)
        assert kinds == {"spread": 60, "select": 25, "marginal_gain": 12, "constrained": 3}
    for request in stream:
        if "include" in request:
            assert len(request["include"]) <= request["k"]
            assert not set(request["include"]) & set(request["exclude"])


def test_the_whole_update_stream_applies_in_order(small):
    graph = inputs.build_graph(small, 5)
    rounds = inputs.update_stream(small, graph, 5)
    assert [r[0]["action"] for r in rounds[:6]] == ["delete", "reweight", "insert"] * 2
    assert all(len(r) == 21 and r[1] == {"op": "select", "k": small.k} for r in rounds)
    dynamic = DynamicDiGraph(graph)
    for requests in rounds:
        wire = {key: value for key, value in requests[0].items() if key != "op"}
        dynamic.apply(parse_update(wire))
    assert dynamic.version == len(rounds)


def test_updated_sketch_is_the_same_on_every_run_of_a_seed(small, tmp_path):
    from perfbench.workloads import Run, _update_loop, serve_setup

    run = Run(small, 4, 0.0, str(tmp_path))
    rounds = inputs.update_stream(small, inputs.build_graph(small, 4), 4)
    states = [serve_setup(run, rep) for rep in range(2)]
    for state in states:
        assert _update_loop(run, state, rounds, fixed=True).failed == 0
    first, second = (state.index.collection for state in states)
    assert (first.nodes_array == second.nodes_array).all()
    assert (first.ptr_array == second.ptr_array).all()
