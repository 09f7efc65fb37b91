"""The one batch commit of the IC and LT samplers.

Both batch samplers discover RR-set members wave by wave, as parallel
lists of per-wave sample ids and node ids (and, when tracing, of sample ids
and live in-CSR edge ids).  :func:`commit_batch` lays them out as the
packed arrays of a :class:`~repro.rrset.flat_collection.FlatRRCollection`
and appends them: each set lists its members in discovery order, root
first, and its trace in coin order, which is the stable grouping of the
lists by sample id.

Set sizes and widths are tallied, and the stable grouping done, over
blocks of about :data:`COMMIT_BLOCK_ENTRIES` entries: runs of consecutive
pieces, or slices of a longer piece.  Each block is sorted on its own and
its runs are written at every set's running offset
(:func:`~repro.utils.sorting.scatter_runs`), and each piece is released once
its block is written.  So beyond the pieces it is handed, a commit holds its
output and one block's scratch, not int64 copies, sort keys and a
permutation of the whole batch.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.rrset.flat_collection import FlatRRCollection
from repro.utils.sorting import group_sort, scatter_runs

__all__ = ["COMMIT_BLOCK_ENTRIES", "commit_batch"]

#: Entries per block of the tally and grouping passes.  A block's scratch
#: (int64 sort keys and write positions, int32 gathers) is about 32 bytes an
#: entry, 8 MiB at this size.
COMMIT_BLOCK_ENTRIES = 1 << 18


def commit_batch(
    out: FlatRRCollection,
    roots: np.ndarray,
    member_samples: list[np.ndarray],
    member_nodes: list[np.ndarray],
    in_degrees: np.ndarray,
    *,
    widths: np.ndarray | None = None,
    walk: bool = False,
    trace_samples: list[np.ndarray] | None = None,
    trace_edge_ids: list[np.ndarray] | None = None,
) -> None:
    """Group one batch's (sample, member) pairs by sample and append it to ``out``.

    ``member_samples[i]`` holds the sample ids (``0 ≤ id < len(roots)``) of
    the members ``member_nodes[i]``; the traces pair up the same way.  The
    lists are consumed: each piece leaves its list once it is grouped.
    ``widths`` defaults to Σ in-degree over each set's members, w(R) of
    Equation 1.  A set's cost is its size plus its width, the in-edges its
    reverse BFS examines as the paper prices it (the IC sampler draws one
    random number per success plus one for a node whose in-edges share one
    probability, not one per edge), or twice its size with ``walk`` (an LT
    walk draws once per member, the last draw being the one that stops it).
    """
    batch = int(roots.size)
    sizes = np.zeros(batch, dtype=np.int64)
    tally_widths = widths is None
    if tally_widths:
        widths = np.zeros(batch, dtype=np.int64)
    for samples, nodes in _blocks(member_samples, member_nodes, release=False):
        sizes += np.bincount(samples, minlength=batch)
        if tally_widths:
            widths += np.bincount(samples, weights=in_degrees[nodes],
                                  minlength=batch).astype(np.int64)
    ptr = _offsets(sizes)
    members = _group(member_samples, member_nodes, ptr)
    trace_ptr = trace_edges = None
    if trace_samples is not None and trace_edge_ids is not None:
        trace_sizes = np.zeros(batch, dtype=np.int64)
        for owners, _ in _blocks(trace_samples, trace_edge_ids, release=False):
            trace_sizes += np.bincount(owners, minlength=batch)
        trace_ptr = _offsets(trace_sizes)
        trace_edges = _group(trace_samples, trace_edge_ids, trace_ptr)
    out.extend_arrays(
        roots=roots,
        ptr=ptr,
        nodes=members,
        widths=widths,
        costs=sizes + (sizes if walk else widths),
        trace_ptr=trace_ptr,
        trace_edges=trace_edges,
    )


def _blocks(samples: list[Any], values: list[Any],
            release: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The paired pieces in order, about :data:`COMMIT_BLOCK_ENTRIES` at a time.

    A block is a run of consecutive pieces, or one slice of a piece longer
    than a block.  With ``release`` each piece leaves its list as it joins
    a block, so it is freed once that block is used.
    """
    limit = COMMIT_BLOCK_ENTRIES
    run_samples: list[np.ndarray] = []
    run_values: list[np.ndarray] = []
    run_size = 0
    for position in range(len(samples)):
        piece_samples, piece_values = samples[position], values[position]
        if release:
            samples[position] = values[position] = None
        if run_samples and run_size + piece_samples.size > limit:
            yield np.concatenate(run_samples), np.concatenate(run_values)
            run_samples, run_values, run_size = [], [], 0
        if piece_samples.size > limit:
            for lo in range(0, piece_samples.size, limit):
                yield piece_samples[lo : lo + limit], piece_values[lo : lo + limit]
            continue
        run_samples.append(piece_samples)
        run_values.append(piece_values)
        run_size += piece_samples.size
    if run_samples:
        yield np.concatenate(run_samples), np.concatenate(run_values)
    if release:
        samples.clear()
        values.clear()


def _offsets(sizes: np.ndarray) -> np.ndarray:
    ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _group(samples: list[Any], values: list[Any], ptr: np.ndarray) -> np.ndarray:
    """``values`` stably grouped by sample id into the layout ``ptr``, blockwise."""
    grouped = np.empty(int(ptr[-1]), dtype=np.int32)
    cursor = ptr[:-1].copy()
    for block_samples, block_values in _blocks(samples, values, release=True):
        order = group_sort(block_samples, np.arange(block_samples.size, dtype=np.int64),
                           block_samples.size)
        scatter_runs(grouped, cursor, block_samples[order], block_values[order])
    return grouped
