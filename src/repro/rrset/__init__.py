"""Reverse-reachable set machinery: samplers, storage, max coverage.

Sampled RR sets live in one storage layer, :class:`FlatRRCollection`: the
whole collection packed into CSR-style ``ptr``/``nodes`` numpy arrays (see
:mod:`repro.rrset.flat_collection` for the layout).
"""

from repro.rrset.base import RRSampler, RRSet, make_rr_sampler
from repro.rrset.coverage import (
    CoverageResult,
    brute_force_max_coverage,
    coverage_of,
    greedy_max_coverage,
)
from repro.rrset.flat_collection import FlatRRCollection
from repro.rrset.ic_sampler import ICRRSampler
from repro.rrset.lt_sampler import LTRRSampler
from repro.rrset.triggering_sampler import TriggeringRRSampler

__all__ = [
    "RRSampler",
    "RRSet",
    "make_rr_sampler",
    "FlatRRCollection",
    "CoverageResult",
    "brute_force_max_coverage",
    "coverage_of",
    "greedy_max_coverage",
    "ICRRSampler",
    "LTRRSampler",
    "TriggeringRRSampler",
]
