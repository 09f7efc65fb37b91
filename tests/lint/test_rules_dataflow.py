"""RL701/RL702/RL703 — good/bad fixtures, lines, interprocedural cases.

Each rule has at least one *true interprocedural* bad fixture: the tainted
fact is created in one module and the violation sits in another, so a
per-file analysis of the flagged file alone could never see the fact (the
flagged file never mentions numpy.random / np.memmap / a worker entry
point).
"""

from repro.lint.framework import lint_paths


def run(root, select):
    return lint_paths([root / "src"], root=root, select=[select])


def locations(findings):
    return [(f.path, f.line, f.code) for f in findings]


class TestRL701SeedProvenance:
    def test_bad_adhoc_generator_at_sampler_same_file(self, project):
        root = project({"repro/run.py": """\
            import numpy as np

            def run(sampler):
                gen = np.random.default_rng(1234)
                return sampler.sample(gen)
        """})
        assert locations(run(root, "RL701")) == [("src/repro/run.py", 5, "RL701")]

    def test_bad_adhoc_generator_at_random_batch_entry_point(self, project):
        # sample_random_batch is the entry point every library caller uses.
        root = project({"repro/run.py": """\
            import numpy as np

            def run(sampler):
                return sampler.sample_random_batch(10, np.random.default_rng(1234))
        """})
        assert locations(run(root, "RL701")) == [("src/repro/run.py", 4, "RL701")]

    def test_bad_interprocedural_adhoc_built_in_another_module(self, project):
        # The flagged file never imports numpy: the ad-hoc generator is
        # manufactured in seeds.py and only its *value* crosses the module
        # boundary.  Per-file analysis of run.py cannot catch this.
        root = project({
            "repro/seeds.py": """\
                import numpy as np

                def make_gen():
                    return np.random.default_rng(1234)
            """,
            "repro/run.py": """\
                from repro.seeds import make_gen

                def run(sampler):
                    gen = make_gen()
                    return sampler.sample(gen)
            """,
        })
        assert locations(run(root, "RL701")) == [("src/repro/run.py", 5, "RL701")]

    def test_bad_interprocedural_param_flow_names_the_witness(self, project):
        root = project({
            "repro/sink.py": """\
                def draw(sampler, gen):
                    return sampler.sample(gen)
            """,
            "repro/caller.py": """\
                import numpy as np
                from repro.sink import draw

                def run(sampler):
                    return draw(sampler, np.random.default_rng(7))
            """,
        })
        [finding] = run(root, "RL701")
        assert (finding.path, finding.line) == ("src/repro/sink.py", 2)
        assert "repro.caller.run" in finding.message

    def test_good_sanctioned_seed_material(self, project):
        root = project({"repro/run.py": """\
            from repro.utils.rng import RandomSource, spawn_seed_streams

            def run(sampler):
                source = RandomSource(spawn_seed_streams(42, 1)[0])
                return sampler.sample(source)
        """})
        assert run(root, "RL701") == []

    def test_good_generator_never_reaches_a_sampler(self, project):
        root = project({"repro/stats.py": """\
            import numpy as np

            def jitter():
                gen = np.random.default_rng(0)
                return gen.normal()
        """})
        assert run(root, "RL701") == []

    def test_inline_suppression(self, project):
        root = project({"repro/run.py": """\
            import numpy as np

            def run(sampler):
                gen = np.random.default_rng(1234)
                return sampler.sample(gen)  # repro-lint: disable=RL701
        """})
        assert run(root, "RL701") == []


class TestRL702SharedStateRaces:
    def test_bad_interprocedural_write_reachable_from_worker(self, project):
        # state.py itself has no concurrency marker at all — only the call
        # graph connects it to the worker entry point in worker.py.
        root = project({
            "repro/parallel/state.py": """\
                _CACHE = {}

                def remember(key, value):
                    _CACHE[key] = value
            """,
            "repro/parallel/worker.py": """\
                from repro.parallel.state import remember

                def run_shard(shard):
                    remember(shard.key, shard)
                    return shard
            """,
        })
        [finding] = run(root, "RL702")
        assert (finding.path, finding.line) == ("src/repro/parallel/state.py", 4)
        assert "repro.parallel.worker.run_shard" in finding.message

    def test_bad_async_entry_point_counts(self, project):
        root = project({"repro/server.py": """\
            _SESSIONS = {}

            async def handle(request):
                _SESSIONS[request.id] = request
        """})
        [finding] = run(root, "RL702")
        assert (finding.path, finding.line) == ("src/repro/server.py", 4)

    def test_bad_mutator_method_write(self, project):
        root = project({"repro/parallel/worker.py": """\
            _LOG = []

            def run_shard(shard):
                _LOG.append(shard)
                return shard
        """})
        [finding] = run(root, "RL702")
        assert finding.line == 4

    def test_good_write_not_reachable_from_concurrent_entry(self, project):
        root = project({"repro/setup.py": """\
            _CONFIG = {}

            def configure(key, value):
                _CONFIG[key] = value
        """})
        assert run(root, "RL702") == []

    def test_good_sanctioned_installer_module_is_exempt(self, project):
        root = project({
            "repro/obs/runtime.py": """\
                _METRICS = {}

                def install(name, value):
                    _METRICS[name] = value
            """,
            "repro/parallel/worker.py": """\
                from repro.obs.runtime import install

                def run_shard(shard):
                    install("shards", shard)
                    return shard
            """,
        })
        assert run(root, "RL702") == []

    def test_good_module_level_initialization_is_not_a_write(self, project):
        root = project({"repro/parallel/worker.py": """\
            _STATE = {}
            _STATE["ready"] = False

            def run_shard(shard):
                return _STATE.get("ready")
        """})
        assert run(root, "RL702") == []


class TestRL703MemmapMaterialization:
    def test_bad_tolist_same_file(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr.tolist()
        """})
        assert locations(run(root, "RL703")) == [("src/repro/reader.py", 5, "RL703")]

    def test_bad_full_slice(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr[:]
        """})
        assert locations(run(root, "RL703")) == [("src/repro/reader.py", 5, "RL703")]

    def test_bad_interprocedural_memmap_loaded_in_another_module(self, project):
        # reader.py never touches np.memmap/load_sketch; the provenance
        # arrives purely through store.open_pack's return value.
        root = project({
            "repro/store.py": """\
                import numpy as np

                def open_pack(path):
                    return np.memmap(path, dtype="f4")
            """,
            "repro/reader.py": """\
                from repro.store import open_pack

                def read(path):
                    arr = open_pack(path)
                    return arr.tolist()
            """,
        })
        assert locations(run(root, "RL703")) == [("src/repro/reader.py", 5, "RL703")]

    def test_bad_param_flow_asarray_names_the_witness(self, project):
        root = project({
            "repro/compute.py": """\
                import numpy as np

                def densify(arr):
                    return np.asarray(arr)
            """,
            "repro/driver.py": """\
                import numpy as np
                from repro.compute import densify

                def load(path):
                    return densify(np.memmap(path, dtype="f4"))
            """,
        })
        [finding] = run(root, "RL703")
        assert (finding.path, finding.line) == ("src/repro/compute.py", 4)
        assert "repro.driver.load" in finding.message

    def test_good_windowed_access(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr[0:64]
        """})
        assert run(root, "RL703") == []

    def test_good_copy_of_ordinary_array(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(n):
                arr = np.zeros(n)
                return arr.copy()
        """})
        assert run(root, "RL703") == []

    def test_inline_suppression(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr.tolist()  # repro-lint: disable=RL703
        """})
        assert run(root, "RL703") == []
