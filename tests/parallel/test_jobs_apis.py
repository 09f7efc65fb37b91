"""Worker counts through the core algorithms, sketch subsystem, and CLI.

The contract under test everywhere: an explicit ``jobs`` (on the
:class:`~repro.api.policy.ExecutionPolicy`, or ``jobs=`` on the sketch
classes and ``--jobs`` on the CLI) engages the
sharded deterministic engine, and every worker count produces byte-identical
RR collections — hence identical KPT estimates, seed sets, and sketch
files.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.ris import ris
from repro.api import ExecutionPolicy
from repro.core import estimate_kpt, node_selection, tim, tim_plus
from repro.graphs import gnm_random_digraph, weighted_cascade
from repro.rrset import make_rr_sampler
from repro.sketch import InfluenceService, SketchIndex


@pytest.fixture(scope="module")
def wc_graph():
    return weighted_cascade(gnm_random_digraph(900, 5500, rng=23))


class TestCoreAlgorithms:
    def test_estimate_kpt_identical_across_jobs(self, wc_graph):
        results = [
            estimate_kpt(wc_graph, 5, make_rr_sampler(wc_graph, "IC"), rng=3,
                         policy=ExecutionPolicy(jobs=jobs))
            for jobs in (1, 2, 4)
        ]
        assert results[0].kpt_star == results[1].kpt_star == results[2].kpt_star
        assert results[0].num_rr_sets == results[1].num_rr_sets == results[2].num_rr_sets
        assert results[0].total_cost == results[1].total_cost == results[2].total_cost

    def test_tim_identical_across_jobs(self, wc_graph):
        results = [tim(wc_graph, 4, epsilon=0.5, rng=11, policy=ExecutionPolicy(jobs=jobs))
                   for jobs in (1, 2, 4)]
        assert results[0].seeds == results[1].seeds == results[2].seeds
        assert results[0].theta == results[1].theta == results[2].theta
        assert results[0].kpt_star == results[1].kpt_star == results[2].kpt_star
        assert (
            results[0].estimated_spread
            == results[1].estimated_spread
            == results[2].estimated_spread
        )

    def test_tim_plus_identical_across_jobs(self, wc_graph):
        a = tim_plus(wc_graph, 4, epsilon=0.5, rng=13, policy=ExecutionPolicy(jobs=1))
        b = tim_plus(wc_graph, 4, epsilon=0.5, rng=13, policy=ExecutionPolicy(jobs=2))
        assert a.seeds == b.seeds
        assert a.kpt_plus == b.kpt_plus
        assert a.extras["interim_seeds"] == b.extras["interim_seeds"]

    def test_node_selection_identical_across_jobs(self, wc_graph):
        picks = [
            node_selection(
                wc_graph, 3, 2500, make_rr_sampler(wc_graph, "IC"), rng=7,
                policy=ExecutionPolicy(jobs=jobs),
            )
            for jobs in (1, 2)
        ]
        assert picks[0].seeds == picks[1].seeds
        assert picks[0].coverage_fraction == picks[1].coverage_fraction
        assert np.array_equal(
            picks[0].collection.nodes_array, picks[1].collection.nodes_array
        )

    def test_ris_identical_across_jobs(self, wc_graph):
        a = ris(wc_graph, 3, rng=5, epsilon=0.4, policy=ExecutionPolicy(jobs=1))
        b = ris(wc_graph, 3, rng=5, epsilon=0.4, policy=ExecutionPolicy(jobs=2))
        assert a.seeds == b.seeds
        assert a.extras["num_rr_sets"] == b.extras["num_rr_sets"]
        assert a.extras["total_cost"] == b.extras["total_cost"]

    def test_jobs_zero_resolves_to_cpu_count(self, wc_graph):
        baseline = tim(wc_graph, 3, epsilon=0.5, rng=17, policy=ExecutionPolicy(jobs=1))
        all_cores = tim(wc_graph, 3, epsilon=0.5, rng=17, policy=ExecutionPolicy(jobs=0))
        assert all_cores.seeds == baseline.seeds

    def test_legacy_default_path_unchanged(self, wc_graph):
        # jobs=None must keep consuming the caller's RNG exactly as before
        # the parallel engine existed: two calls agree with each other.
        a = tim(wc_graph, 3, epsilon=0.6, rng=29)
        b = tim(wc_graph, 3, epsilon=0.6, rng=29)
        assert a.seeds == b.seeds


class TestSketchSubsystem:
    def test_sketch_files_bit_identical_across_jobs(self, wc_graph, tmp_path):
        digests = []
        for jobs in (1, 2, 4):
            path = tmp_path / f"sketch-j{jobs}.npz"
            index = SketchIndex.build(wc_graph, "IC", theta=3000, rng=41, jobs=jobs)
            index.close()
            index.save(path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1] == digests[2]

    def test_ensure_theta_jobs_invariant(self, wc_graph):
        grown = []
        for jobs in (1, 2):
            index = SketchIndex.build(wc_graph, "IC", theta=1500, rng=43, jobs=1)
            added = index.ensure_theta(3500, rng=44, jobs=jobs)
            assert added == 2000
            index.close()
            grown.append(index)
        assert np.array_equal(
            grown[0].collection.nodes_array, grown[1].collection.nodes_array
        )
        assert grown[0].select(4).seeds == grown[1].select(4).seeds

    def test_tim_through_index_matches_cold_tim(self, wc_graph):
        cold = tim(wc_graph, 4, epsilon=0.6, rng=47, policy=ExecutionPolicy(jobs=2))
        index = SketchIndex(graph=wc_graph)
        warm = tim(wc_graph, 4, epsilon=0.6, rng=47, policy=ExecutionPolicy(jobs=2),
                   index=index)
        assert warm.seeds == cold.seeds

    def test_index_close_allows_further_growth(self, wc_graph):
        index = SketchIndex.build(wc_graph, "IC", theta=1200, rng=51, jobs=2)
        index.close()
        # The pool respawns lazily; growth after close still works.
        assert index.ensure_theta(1800, rng=52) == 600
        index.close()

    def test_service_builds_with_jobs(self, wc_graph):
        service = InfluenceService(theta=800, policy=ExecutionPolicy(jobs=2), rng=53)
        first = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()
        assert first["ok"] and first["cache"] == "miss"
        second = service.execute(wc_graph, {"op": "select", "k": 3}).to_wire()
        assert second["ok"] and second["cache"] == "hit"
        assert first["result"]["seeds"] == second["result"]["seeds"]
        service.close()


class TestCLI:
    def test_run_accepts_jobs(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--algorithm", "tim", "--dataset", "nethept", "--scale", "0.1",
            "-k", "2", "--epsilon", "0.6", "--seed", "3", "--jobs", "2",
        ]) == 0
        assert "seeds" in capsys.readouterr().out

    def test_run_rejects_jobs_for_non_engine_algorithms(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--jobs applies to"):
            main([
                "run", "--algorithm", "greedy", "--dataset", "nethept",
                "--scale", "0.05", "-k", "2", "--jobs", "2",
            ])

    def test_sketch_jobs_matches_serial_file(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for jobs, name in ((None, "serial.npz"), (2, "sharded.npz")):
            path = tmp_path / name
            argv = [
                "sketch", "--dataset", "nethept", "--scale", "0.1", "-k", "2",
                "--theta", "1500", "--seed", "5", "--out", str(path),
            ]
            if jobs is not None:
                argv += ["--jobs", str(jobs)]
            assert main(argv) == 0
            paths.append(path)
        capsys.readouterr()
        # jobs=None (legacy stream) and jobs=2 (sharded) are different but
        # both deterministic; re-running the sharded build reproduces it.
        rerun = tmp_path / "sharded-again.npz"
        assert main([
            "sketch", "--dataset", "nethept", "--scale", "0.1", "-k", "2",
            "--theta", "1500", "--seed", "5", "--jobs", "1", "--out", str(rerun),
        ]) == 0
        capsys.readouterr()
        assert rerun.read_bytes() == paths[1].read_bytes()
