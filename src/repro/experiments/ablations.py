"""Ablations of this implementation's own design choices.

Not paper figures — these justify the two performance-relevant decisions we
made on top of the paper's algorithms:

* the Binomial fast path in the IC RR sampler (vs literal per-edge coins);
* the numpy-batched RR sampler (vs the scalar one-set-per-call sampler).

Each ablation reports both wall-clock and an output-equivalence check, so a
speed-up can never silently change semantics.
"""

from __future__ import annotations

from functools import lru_cache

from repro.datasets.registry import build_dataset
from repro.experiments.reporting import ExperimentResult
from repro.obs import runtime as obs
from repro.rrset.ic_sampler import ICRRSampler
from repro.utils.rng import RandomSource

__all__ = ["ablation_ic_fast_path", "ablation_engine"]


@lru_cache(maxsize=8)
def _ic_graph(dataset: str, scale: float):
    return build_dataset(dataset, scale).weighted_for("IC")


def ablation_ic_fast_path(
    datasets: tuple[str, ...] = ("nethept", "livejournal", "twitter"),
    scale: float = 0.5,
    num_sets: int = 20_000,
    seed: int = 37,
) -> ExperimentResult:
    """Per-edge coins vs Binomial subsampling in the IC RR sampler.

    The two are distributionally identical; the mean width column pair is
    the embedded equivalence check (they must agree within MC noise).
    """
    result = ExperimentResult(
        name="ablation-ic-fast-path",
        title=f"IC sampler fast path: time for {num_sets} RR sets (scale={scale})",
        headers=["dataset", "slow_s", "fast_s", "speedup", "mean_w_slow", "mean_w_fast"],
        notes=["fast path pays off as average in-degree grows (binomial + sample)"],
    )
    for dataset in datasets:
        graph = _ic_graph(dataset, scale)
        timings: dict[bool, float] = {}
        widths: dict[bool, float] = {}
        for fast in (False, True):
            sampler = ICRRSampler(graph, use_fast_path=fast)
            rng = RandomSource(seed)  # same stream for both variants
            started = obs.now()
            total_width = 0
            for _ in range(num_sets):
                total_width += sampler.sample(rng).width
            timings[fast] = obs.now() - started
            widths[fast] = total_width / num_sets
        result.add_row(
            dataset,
            timings[False],
            timings[True],
            timings[False] / timings[True] if timings[True] else None,
            widths[False],
            widths[True],
        )
    return result


def ablation_engine(
    datasets: tuple[str, ...] = ("nethept", "livejournal"),
    scale: float = 0.5,
    num_sets: int = 20_000,
    seed: int = 53,
) -> ExperimentResult:
    """Scalar per-set sampling loop vs the numpy-batched sampler.

    Both draw from the same RR-set distribution; the mean-width column pair
    is the embedded equivalence check.
    """
    result = ExperimentResult(
        name="ablation-engine",
        title=f"RR engine: time for {num_sets} RR sets (scale={scale})",
        headers=["dataset", "python_s", "vectorized_s", "speedup", "mean_w_py", "mean_w_vec"],
        notes=["same distribution either way; widths must agree within MC noise"],
    )
    for dataset in datasets:
        graph = _ic_graph(dataset, scale)
        sampler = ICRRSampler(graph)
        sampler.sample_random_batch(min(num_sets, 500), RandomSource(0))  # warm-up

        rng = RandomSource(seed)
        started = obs.now()
        python_width = 0
        for _ in range(num_sets):
            python_width += sampler.sample(rng).width
        python_elapsed = obs.now() - started

        started = obs.now()
        batch = sampler.sample_random_batch(num_sets, RandomSource(seed + 1))
        vectorized_elapsed = obs.now() - started
        result.add_row(
            dataset,
            python_elapsed,
            vectorized_elapsed,
            python_elapsed / max(vectorized_elapsed, 1e-12),
            python_width / num_sets,
            float(batch.widths_array.mean()),
        )
    return result
