"""Reduce dumped spans to per-layer self times and the unattributed share.

A span's self time is its duration minus the part of that interval its
child spans cover.  Children are clipped to the parent and their union is
taken, so overlapping children (pool workers running side by side) are not
subtracted twice.  A layer's time is the sum of its spans' self times; the
benchmark's own root spans (``bench.*``) keep as self time exactly what no
layer covers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

ROOT_PREFIX = "bench."

#: Span name → per-layer time metric (each is that layer's self time).
LAYER_TIMES = {
    "graphs.build": "graphs.build_s",
    "rrset.sample": "rrset.sample_s",
    "parallel.wave": "parallel.wave_s",
    "rrset.greedy": "rrset.greedy_s",
    "core.kpt": "core.kpt_s",
    "sketch.postings": "sketch.postings_s",
    "sketch.select": "sketch.select_s",
    "sketch.extend": "sketch.extend_s",
    "sketch.query": "sketch.query_s",
    "persist.save": "persist.save_s",
    "persist.load": "persist.load_s",
    "serve.dispatch": "serve.dispatch_s",
    "dynamic.preview": "dynamic.preview_s",
    "dynamic.repair": "dynamic.repair_s",
}


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Mapping[str, Any]]) -> dict[Any, float]:
    """Span id → duration minus the union of its children's clipped intervals."""
    by_id = {s["id"]: s for s in spans}
    children: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            start, end = max(s["start"], parent["start"]), min(s["end"], parent["end"])
            if end > start:
                children[parent["id"]].append((start, end))
    return {s["id"]: (s["end"] - s["start"]) - _union_length(children[s["id"]])
            for s in spans}


def reduce(spans: list[Mapping[str, Any]]) -> dict[str, float]:
    """Per-layer self times plus ``trace.unattributed``.

    ``trace.unattributed`` is the share of the root spans' wall time that
    falls in no layer span (0 when there are no root spans).
    """
    own = self_times(spans)
    out = {metric: 0.0 for metric in LAYER_TIMES.values()}
    root_wall = root_self = 0.0
    for s in spans:
        metric = LAYER_TIMES.get(s["name"])
        if metric is not None:
            out[metric] += own[s["id"]]
        elif s["name"].startswith(ROOT_PREFIX) and s["parent"] is None:
            root_wall += s["end"] - s["start"]
            root_self += own[s["id"]]
    out["trace.unattributed"] = root_self / root_wall if root_wall > 0 else 0.0
    return out

