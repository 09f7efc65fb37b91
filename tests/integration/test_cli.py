"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "tim+"
        assert args.k == 10

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "nethept" in out
        assert "twitter" in out

    def test_run_tim_plus(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "nethept",
                "--scale",
                "0.05",
                "-k",
                "3",
                "--epsilon",
                "0.5",
                "--seed",
                "1",
                "--score-samples",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TIM+" in out
        assert "seeds" in out
        assert "MC spread" in out

    def test_run_heuristic(self, capsys):
        code = main(
            ["run", "--algorithm", "degree", "--dataset", "nethept", "--scale", "0.05", "-k", "2"]
        )
        assert code == 0
        assert "MaxDegree" in capsys.readouterr().out

    def test_run_from_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 3\n0 2\n")
        code = main(
            ["run", "--dataset", f"@{path}", "-k", "1", "--epsilon", "0.5", "--seed", "2"]
        )
        assert code == 0
        assert "seeds" in capsys.readouterr().out

    def test_run_with_horizon(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "nethept",
                "--scale",
                "0.05",
                "-k",
                "2",
                "--epsilon",
                "0.5",
                "--horizon",
                "2",
            ]
        )
        assert code == 0
        assert "bounded-IC" in capsys.readouterr().out

    def test_horizon_requires_ic(self):
        import pytest

        with pytest.raises(SystemExit, match="IC model"):
            main(
                [
                    "run",
                    "--dataset",
                    "nethept",
                    "--scale",
                    "0.05",
                    "--model",
                    "LT",
                    "-k",
                    "2",
                    "--horizon",
                    "2",
                ]
            )

    def test_spread(self, capsys):
        code = main(
            [
                "spread",
                "--dataset",
                "nethept",
                "--scale",
                "0.05",
                "--seeds",
                "0,1,2",
                "--samples",
                "200",
            ]
        )
        assert code == 0
        assert "E[I(S)]" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "[table-2]" in out
        assert "livejournal" in out

    def test_experiment_section5(self, capsys):
        assert main(["experiment", "section5"]) == 0
        out = capsys.readouterr().out
        assert "[section-5]" in out
        assert "greedy/tim" in out


class TestSharedExecutionFlags:
    """--jobs/--trace-edges come from one parent parser, so the flag set
    (names, choices, defaults) is identical on every subcommand that
    samples RR sets."""

    SUBCOMMANDS = {
        "run": [],
        "sketch": ["--out", "x.npz"],
        "serve": [],
        "update": ["--sketch", "s.npz", "--updates", "u.jsonl", "--out", "x.npz"],
    }

    def test_every_sampling_subcommand_has_the_flags(self):
        parser = build_parser()
        for command, extra in self.SUBCOMMANDS.items():
            args = parser.parse_args(
                [command, *extra, "--jobs", "2", "--trace-edges"]
            )
            assert args.jobs == 2
            assert args.trace_edges is True

    def test_unset_flags_default_to_none_for_env_layering(self):
        for command, extra in self.SUBCOMMANDS.items():
            args = build_parser().parse_args([command, *extra])
            assert args.jobs is None
            assert args.trace_edges is None

    def test_engine_flag_is_gone(self):
        import pytest

        for command, extra in self.SUBCOMMANDS.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, *extra, "--engine", "vectorized"])

    def test_no_trace_edges_is_an_explicit_false(self):
        args = build_parser().parse_args(["sketch", "--out", "x.npz",
                                          "--no-trace-edges"])
        assert args.trace_edges is False

    def test_env_layer_feeds_run(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "1")
        code = main(
            ["run", "--dataset", "nethept", "--scale", "0.05", "-k", "2",
             "--epsilon", "0.5", "--seed", "3"]
        )
        assert code == 0
        assert "seeds" in capsys.readouterr().out

    def test_cli_flag_beats_env(self, monkeypatch):
        from repro.api import ExecutionPolicy

        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.setenv("REPRO_EPSILON", "0.5")
        args = build_parser().parse_args(
            ["run", "--jobs", "2", "--epsilon", "0.2"])
        policy = ExecutionPolicy.from_args(args)
        assert policy.jobs == 2
        assert policy.epsilon == 0.2

    def test_env_epsilon_reaches_sketch_and_serve(self, monkeypatch):
        from repro.api.policy import SERVING_POLICY
        from repro.cli import _resolve_policy

        monkeypatch.setenv("REPRO_EPSILON", "0.05")
        args = build_parser().parse_args(["sketch", "--out", "x.npz"])
        assert _resolve_policy(args, base=SERVING_POLICY).epsilon == 0.05
        # the explicit flag still wins over the environment
        args = build_parser().parse_args(
            ["serve", "--epsilon", "0.4"])
        assert _resolve_policy(args, base=SERVING_POLICY).epsilon == 0.4
        # and without either, the serving default holds
        monkeypatch.delenv("REPRO_EPSILON")
        args = build_parser().parse_args(["sketch", "--out", "x.npz"])
        assert _resolve_policy(args, base=SERVING_POLICY).epsilon == 0.3

    def test_trace_edges_rejected_on_run(self):
        import pytest

        # run never persists a sketch: the flag would be a silent no-op,
        # so it is rejected for every algorithm, TIM family included.
        for algorithm in ("degree", "tim+"):
            with pytest.raises(SystemExit, match="--trace-edges"):
                main(
                    ["run", "--algorithm", algorithm, "--dataset", "nethept",
                     "--scale", "0.05", "-k", "2", "--trace-edges"]
                )

    def test_ris_keeps_its_historical_epsilon_default(self, monkeypatch, capsys):
        # No flags/env: the run policy for ris is based at epsilon 0.2, so
        # the CLI default matches the bare ris() library call.
        from repro.cli import _RIS_DEFAULTS, _resolve_policy

        assert _RIS_DEFAULTS.epsilon == 0.2
        args = build_parser().parse_args(["run", "--algorithm", "ris"])
        assert _resolve_policy(args, base=_RIS_DEFAULTS).epsilon == 0.2
        monkeypatch.setenv("REPRO_EPSILON", "0.45")
        assert _resolve_policy(args, base=_RIS_DEFAULTS).epsilon == 0.45

    def test_run_seeds_identical_with_and_without_flags(self, capsys):
        """The policy path resolves to the same execution as the old
        per-flag path: equal seeds for equal CLI seeds."""
        argv = ["run", "--dataset", "nethept", "--scale", "0.05", "-k", "2",
                "--epsilon", "0.5", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--ell", "1.0"]) == 0
        flagged = capsys.readouterr().out
        seeds = [line for line in plain.splitlines() if "seeds" in line]
        assert seeds == [line for line in flagged.splitlines() if "seeds" in line]


class TestSketchAndServe:
    def _build_sketch(self, tmp_path, capsys):
        out = tmp_path / "nh.npz"
        code = main(
            [
                "sketch", "--dataset", "nethept", "--scale", "0.05",
                "--model", "IC", "--theta", "500", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "rr sets" in capsys.readouterr().out
        assert out.exists()
        return out

    def test_sketch_build_and_serve_batch(self, tmp_path, capsys):
        import json

        sketch = self._build_sketch(tmp_path, capsys)
        batch = tmp_path / "queries.jsonl"
        lines = [json.dumps({"op": "select", "k": k}) for k in (1, 2, 3)]
        lines.append(json.dumps({"op": "spread", "seeds": [0, 1]}))
        lines.append(json.dumps({"op": "stats"}))
        batch.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "serve", "--dataset", "nethept", "--scale", "0.05",
                "--model", "IC", "--sketch", str(sketch), "--mmap",
                "--batch", str(batch), "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        responses = [json.loads(line) for line in out.strip().splitlines()]
        assert len(responses) == 5
        assert all(response["ok"] for response in responses)
        # The preloaded sketch serves every query: no cold builds.
        assert all(r["cache"] == "hit" for r in responses if r["cache"] != "n/a")

    def test_serve_reports_errors_in_exit_code(self, tmp_path, capsys):
        batch = tmp_path / "bad.jsonl"
        batch.write_text('{"op": "unknown"}\n')
        code = main(
            [
                "serve", "--dataset", "nethept", "--scale", "0.05",
                "--theta", "200", "--batch", str(batch), "--seed", "1",
            ]
        )
        assert code == 1
        capsys.readouterr()

    def test_serve_save_sketch_roundtrip(self, tmp_path, capsys):
        import json

        batch = tmp_path / "queries.jsonl"
        batch.write_text(json.dumps({"op": "select", "k": 2}) + "\n")
        saved = tmp_path / "grown.npz"
        code = main(
            [
                "serve", "--dataset", "nethept", "--scale", "0.05",
                "--theta", "300", "--batch", str(batch), "--seed", "1",
                "--save-sketch", str(saved),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert saved.exists()

    def test_stale_sketch_rejected(self, tmp_path, capsys):
        sketch = self._build_sketch(tmp_path, capsys)
        import pytest

        from repro.sketch import SketchGraphMismatchError

        with pytest.raises(SketchGraphMismatchError):
            main(
                [
                    "serve", "--dataset", "nethept", "--scale", "0.1",
                    "--sketch", str(sketch), "--batch", str(tmp_path / "none.jsonl"),
                ]
            )
