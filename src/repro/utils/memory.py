"""Memory accounting for the Figure 12 reproduction.

The paper attributes TIM+'s memory footprint to the RR-set collection
(|R| = λ/KPT+, Section 7.4).  The collection's own bytes come from
:meth:`~repro.rrset.flat_collection.FlatRRCollection.nbytes`;
:class:`PeakTracker` adds the process-level quantity — the ``tracemalloc``
peak over a code region, closest to the paper's resident-set measurements.

:func:`release_free_heap` hands the C heap's free pages back to the kernel.
glibc keeps freed blocks below its mmap threshold resident, and that
threshold rises as large numpy arrays are freed, so after a solve the
process can hold a hundred megabytes nothing reads.  A forked worker maps
every page its parent holds, so the parallel engine releases them before it
forks a pool; and arrays above the threshold are mapped fresh on top of
them, so a sketch index releases them before it builds its postings.
"""

from __future__ import annotations

import ctypes
import functools
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["PeakTracker", "release_free_heap", "track_peak"]


@dataclass
class PeakTracker:
    """Result of :func:`track_peak`: peak incremental bytes over the region."""

    peak_bytes: int = 0

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


@contextmanager
def track_peak():
    """Track the tracemalloc peak over a ``with`` block.

    Nesting is supported: if tracemalloc is already tracing we snapshot and
    restore rather than stopping the outer trace.
    """
    tracker = PeakTracker()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        yield tracker
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracker.peak_bytes = max(0, peak - baseline)
        if not was_tracing:
            tracemalloc.stop()


@functools.lru_cache(maxsize=1)
def _malloc_trim() -> Callable[[int], Any] | None:
    """glibc's ``malloc_trim``, or ``None`` on a C library without it."""
    try:
        return getattr(ctypes.CDLL(None), "malloc_trim", None)
    except OSError:
        return None


def release_free_heap() -> bool:
    """Return the C heap's free pages to the kernel; ``False`` where unsupported.

    Calls glibc's ``malloc_trim(0)``, which releases the free top of the
    main heap and the free pages inside every arena; the free top of a
    thread's arena stays resident.  Live allocations are not touched.
    """
    trim = _malloc_trim()
    if trim is None:
        return False
    trim(0)
    return True
