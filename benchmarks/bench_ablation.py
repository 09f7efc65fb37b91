"""Ablations of this implementation's design choices.

Not paper figures: these justify (a) the Binomial fast path in the IC RR
sampler and (b) the numpy-batched RR sampler over the scalar one.
Each ablation embeds its own semantics check so a speed-up can never hide a
behaviour change.
"""

from conftest import run_once

from repro.experiments import ablation_engine, ablation_ic_fast_path


def test_ic_sampler_fast_path(benchmark, record_experiment):
    result = run_once(benchmark, ablation_ic_fast_path)
    record_experiment(result)

    for row in result.rows:
        dataset, slow_s, fast_s, speedup, mean_w_slow, mean_w_fast = row
        # Semantics: mean widths agree within MC noise.
        assert abs(mean_w_fast - mean_w_slow) / max(mean_w_slow, 1.0) < 0.1, dataset
    # The fast path pays off on the high-degree stand-in (twitter, avg ~70).
    by_dataset = {row[0]: row for row in result.rows}
    assert by_dataset["twitter"][3] > 1.0


def test_engine_vectorized_vs_python(benchmark, record_experiment):
    result = run_once(benchmark, ablation_engine)
    record_experiment(result)

    for row in result.rows:
        dataset, python_s, vectorized_s, speedup, mean_w_py, mean_w_vec = row
        # Semantics: both engines sample the same distribution.
        assert abs(mean_w_vec - mean_w_py) / max(mean_w_py, 1.0) < 0.1, dataset
        # The vectorized engine must win on every stand-in dataset.
        assert speedup > 1.0, dataset

