"""The span reducer and the tracer that feeds it."""

import json
import os

import pytest

from perfbench.reduce_spans import reduce, self_times
from perfbench.spans import Tracer


def span(id, parent, name, start, end):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end,
            "request": "r", "pid": 1}


def test_self_time_subtracts_children_and_their_union():
    spans = [
        span(1, None, "bench.solve", 0.0, 10.0),
        span(2, 1, "core.kpt", 1.0, 4.0),
        span(3, 2, "rrset.greedy", 2.0, 3.0),
        span(4, 1, "parallel.wave", 5.0, 9.0),
        # Two pool workers side by side: their union, not their sum, is covered.
        span("w:1", 4, "rrset.sample", 5.5, 8.0),
        span("w:2", 4, "rrset.sample", 6.0, 8.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, "w:1": 2.5, "w:2": 2.5})
    out = reduce(spans)
    assert out["core.kpt_s"] == pytest.approx(2.0)
    assert out["rrset.greedy_s"] == pytest.approx(1.0)
    assert out["parallel.wave_s"] == pytest.approx(1.0)
    assert out["rrset.sample_s"] == pytest.approx(5.0)
    assert out["sketch.postings_s"] == 0.0
    assert out["trace.unattributed"] == pytest.approx(0.3)


def test_child_outside_its_parent_is_clipped():
    spans = [span(1, None, "bench.loop", 0.0, 10.0), span(2, 1, "serve.dispatch", 8.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_tracer_dump_reduces_to_the_root_duration(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.request = "req-0"
    with tracer.span("bench.loop"):
        for _ in range(3):
            with tracer.span("serve.dispatch"):
                with tracer.span("sketch.query"):
                    sum(range(1000))
    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert len(spans) == 7 and {s["request"] for s in spans} == {"req-0"}
    root = next(s for s in spans if s["parent"] is None)
    assert sum(self_times(spans).values()) == pytest.approx(root["end"] - root["start"])


def test_worker_spans_hang_under_the_wave_around_them(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.request = "solve-0"
    with tracer.span("bench.solve"):
        with tracer.span("parallel.wave"):
            pass
    wave = next(s for s in tracer.spans if s[2] == "parallel.wave")
    start, end = wave[3], wave[4]
    worker = [f"{os.getpid() + 1}:1", None, "rrset.sample", start, end, None, os.getpid() + 1]
    with open(tmp_path / "worker-1.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"span": worker}) + "\n")
        handle.write(json.dumps({"count": ["rrset.sets", 5]}) + "\n")
    tracer.collect()
    collected = next(s for s in tracer.spans if s[2] == "rrset.sample")
    assert collected[1] == wave[0] and collected[5] == "solve-0"
    assert tracer.counters["rrset.sets"] == 5
    assert not list(tmp_path.glob("worker-*"))
