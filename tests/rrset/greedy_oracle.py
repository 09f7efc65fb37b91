"""Pure-Python exact greedy maximum coverage: the test oracle.

An independent implementation of Algorithm 1's greedy (lines 3–7) with
the library's tie-break (a tied maximum goes to the smaller node id), so
the numpy solvers in :mod:`repro.rrset.coverage` can be checked against
code that shares none of their array machinery.
"""

from repro.rrset.coverage import CoverageResult


def reference_greedy(rr_sets, num_nodes, k, include=(), exclude=()):
    """``k`` rounds of a true argmax over live cover counts, in plain Python.

    ``include`` nodes are taken first, in the given order, and count toward
    ``k``; ``exclude`` nodes are never taken.
    """
    counts = [0] * num_nodes
    sets_of = [[] for _ in range(num_nodes)]
    for index, rr in enumerate(rr_sets):
        for node in rr:
            counts[node] += 1
            sets_of[node].append(index)
    covered = [False] * len(rr_sets)
    seeds, gains = [], []

    def take(node):
        seeds.append(node)
        gains.append(counts[node])
        for index in sets_of[node]:
            if not covered[index]:
                covered[index] = True
                for member in rr_sets[index]:
                    counts[member] -= 1

    for node in include:
        take(node)
    while len(seeds) < k:
        take(max((v for v in range(num_nodes) if v not in seeds and v not in exclude),
                 key=lambda v: (counts[v], -v)))
    return CoverageResult(seeds, sum(gains), len(rr_sets), tuple(gains))
