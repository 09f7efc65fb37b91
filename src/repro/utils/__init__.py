"""Shared utilities: RNG management, timing, memory accounting, validation, sorting."""

from repro.utils.lazy_heap import LazyMaxHeap, lazy_greedy_maximize
from repro.utils.memory import PeakTracker, release_free_heap, track_peak
from repro.utils.rng import RandomSource, resolve_rng, spawn_children, spawn_seed_streams
from repro.utils.sorting import group_sort, scatter_runs
from repro.utils.timer import PhaseTimer, Timer, timed
from repro.utils.validation import (
    check_ell,
    check_epsilon,
    check_k,
    check_node,
    check_positive_int,
    check_probability,
    require,
)

__all__ = [
    "LazyMaxHeap",
    "lazy_greedy_maximize",
    "PeakTracker",
    "release_free_heap",
    "track_peak",
    "RandomSource",
    "resolve_rng",
    "spawn_children",
    "spawn_seed_streams",
    "group_sort",
    "scatter_runs",
    "PhaseTimer",
    "Timer",
    "timed",
    "check_ell",
    "check_epsilon",
    "check_k",
    "check_node",
    "check_positive_int",
    "check_probability",
    "require",
]
