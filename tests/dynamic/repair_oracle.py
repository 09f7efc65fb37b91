"""Plain per-set shrink: the test oracle for the batched traced-IC shrink.

:func:`repro.dynamic.repair._shrink_ic` shrinks every set an update kills in
one vectorised reachability pass.  This is the direct way, one set per call
over Python dicts and a stack, so the two can be compared set by set
without sharing any of that machinery: a set keeps the members still
reverse-reachable from its root over its stored live edges minus the dead
one, and the trace entries whose destination it keeps, both in stored order.
"""

import numpy as np


def shrink_ic(collection, old_graph, set_id, dead_edge):
    """``(members, trace)`` of one set after its live edge ``dead_edge`` dies.

    Both are lists in stored order; the trace keeps the old graph's edge ids.
    """
    trace_array = collection.trace_of(set_id)
    trace = trace_array.tolist()
    dst = (np.searchsorted(old_graph.in_ptr, trace_array, side="right") - 1).tolist()
    src = old_graph.in_idx[trace_array].tolist()
    pulls = {}
    for edge, d, s in zip(trace, dst, src):
        if edge != dead_edge:
            pulls.setdefault(d, []).append(s)
    root = int(collection.roots_array[set_id])
    reached = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for source_node in pulls.get(node, ()):
            if source_node not in reached:
                reached.add(source_node)
                frontier.append(source_node)
    ptr = collection.ptr_array
    members = [
        node for node in collection.nodes_array[ptr[set_id] : ptr[set_id + 1]].tolist()
        if node in reached
    ]
    kept_trace = [e for e, d in zip(trace, dst) if e != dead_edge and d in reached]
    return members, kept_trace
