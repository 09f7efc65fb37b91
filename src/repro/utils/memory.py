"""Memory accounting for the Figure 12 reproduction.

The paper attributes TIM+'s memory footprint to the RR-set collection
(|R| = λ/KPT+, Section 7.4).  The collection's own bytes come from
:meth:`~repro.rrset.flat_collection.FlatRRCollection.nbytes`;
:class:`PeakTracker` adds the process-level quantity — the ``tracemalloc``
peak over a code region, closest to the paper's resident-set measurements.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["PeakTracker", "track_peak"]


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
