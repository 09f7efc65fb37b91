"""Stable integer grouping by one sort of packed keys.

Building a CSR layout — the graph's adjacency, an RR batch's member lists,
the sketch's node → set-ids postings — means ordering entries by a small
integer group while keeping each group's entries in input order.
``np.argsort(groups, kind="stable")`` does that with a timsort over every
entry.  :func:`group_sort` packs each (group, member) pair into one unique
int64 key and runs one plain ``np.sort`` instead.  For the postings of a
25M-entry, 500k-set sketch on a 2-core x86 host with numpy 2.4, that took
0.82 s and a 382 MB traced peak, against 5.80 s and 572 MB for the stable
argsort and its gather.

:func:`scatter_runs` builds the same layouts block by block: a long input
is grouped one bounded block at a time, and each group's run is written at
the group's running offset in the preallocated output, so the scratch stays
proportional to one block instead of to the whole input.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["group_sort", "scatter_runs"]

_KEY_MAX = int(np.iinfo(np.int64).max)


def group_sort(
    groups: NDArray[np.integer[Any]], members: NDArray[np.integer[Any]], bound: int
) -> NDArray[np.int64]:
    """``members`` ordered by ``groups``, each group's members in input order.

    Sorts the keys ``group·bound + member`` and returns ``key mod bound``.
    When ``members`` is non-decreasing within every group, as positions
    ``arange(size)`` or the set id of each entry of a CSR payload are, the
    result equals ``members[np.argsort(groups, kind="stable")]`` byte for
    byte: distinct pairs give distinct keys, and equal keys carry equal
    members.  With ``members = arange(size)`` and ``bound = size`` it is
    that stable argsort.

    ``groups`` must be non-negative and ``members`` lie in ``[0, bound)``;
    the callers hold checked ids.  Raises :class:`OverflowError` when the
    largest key would not fit in int64.
    """
    if groups.size == 0:
        return np.empty(0, dtype=np.int64)
    if int(groups.max()) > (_KEY_MAX - (bound - 1)) // bound:
        raise OverflowError("group·bound + member does not fit in int64")
    keys: NDArray[np.int64] = np.multiply(groups, bound, dtype=np.int64)
    keys += members
    keys.sort()
    np.remainder(keys, bound, out=keys)
    return keys


def scatter_runs(
    out: NDArray[Any], cursor: NDArray[np.int64], groups: NDArray[np.integer[Any]],
    values: NDArray[Any],
) -> None:
    """Write each run of ``values`` at its group's cursor and advance it.

    ``groups`` is sorted, and ``values[i]`` belongs to group ``groups[i]``.
    The run of group ``g`` lands at ``out[cursor[g] : cursor[g] + len(run)]``
    in the given order, and ``cursor[g]`` moves past it.  Start from
    ``cursor = ptr[:-1]`` of the final CSR layout and feed the blocks of a
    long input in input order, each block stably grouped: every group's
    entries then end up in input order, where one stable sort of the whole
    input would place them.
    """
    size = groups.size
    if size == 0:
        return
    heads = np.flatnonzero(groups[1:] != groups[:-1])
    heads += 1
    heads = np.concatenate((np.zeros(1, dtype=heads.dtype), heads))
    lengths = np.diff(heads, append=size)
    run_groups = groups[heads]
    # Entry j of a run starting at heads[r] goes to cursor[group] + j - heads[r].
    dest = np.repeat(cursor[run_groups] - heads, lengths)
    dest += np.arange(size, dtype=np.int64)
    out[dest] = values
    cursor[run_groups] += lengths
