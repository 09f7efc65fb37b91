"""The ``python -m repro.lint`` front end: exit codes, formats, baselines.

Ends with the self-check the CI gate runs: the linter over the real
``src/`` tree (and this test package) must come back clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.findings import Baseline, Finding

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def mini_project(tmp_path):
    """A tiny repo with one RL101 violation and one clean module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import numpy as np\nVALUES = np.random.rand(3)\n")
    (pkg / "good.py").write_text("ANSWER = 42\n")
    return tmp_path


def run_cli(*argv):
    return main([str(part) for part in argv])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, mini_project, capsys):
        (mini_project / "src" / "repro" / "bad.py").unlink()
        assert run_cli(mini_project / "src") == EXIT_CLEAN
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, mini_project, capsys):
        assert run_cli(mini_project / "src") == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "src/repro/bad.py:2:" in out
        assert "RL101" in out
        assert "1 finding(s)" in out

    def test_unknown_path_exits_two(self, mini_project, capsys):
        assert run_cli(mini_project / "nowhere") == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_code_exits_two(self, mini_project, capsys):
        assert run_cli(mini_project / "src", "--select", "RL999") == EXIT_USAGE
        assert "RL999" in capsys.readouterr().err


class TestSelection:
    def test_select_other_rule_sees_nothing(self, mini_project):
        assert run_cli(mini_project / "src", "--select", "RL301") == EXIT_CLEAN

    def test_ignore_suppresses_the_finding(self, mini_project):
        assert run_cli(mini_project / "src", "--ignore", "RL101") == EXIT_CLEAN

    def test_list_rules(self, mini_project, capsys):
        assert run_cli("--list-rules") == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RL101", "RL201", "RL301", "RL401", "RL501"):
            assert code in out
        assert "RL402" not in out


class TestJsonFormat:
    def test_findings_as_json(self, mini_project, capsys):
        assert run_cli(mini_project / "src", "--format", "json") == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        [finding] = payload["findings"]
        assert finding["code"] == "RL101"
        assert finding["path"] == "src/repro/bad.py"
        assert finding["line"] == 2


class TestBaseline:
    def test_write_then_apply_round_trip(self, mini_project, capsys):
        baseline = mini_project / "lint-baseline.json"
        assert run_cli(mini_project / "src", "--write-baseline", baseline) == EXIT_CLEAN
        assert "1 fingerprint(s)" in capsys.readouterr().out
        assert run_cli(mini_project / "src", "--baseline", baseline) == EXIT_CLEAN

    def test_new_violation_still_fails_under_baseline(self, mini_project):
        baseline = mini_project / "lint-baseline.json"
        run_cli(mini_project / "src", "--write-baseline", baseline)
        extra = mini_project / "src" / "repro" / "worse.py"
        extra.write_text("import random\nV = random.random()\n")
        assert run_cli(mini_project / "src", "--baseline", baseline) == EXIT_FINDINGS

    def test_malformed_baseline_exits_two(self, mini_project, capsys):
        baseline = mini_project / "broken.json"
        baseline.write_text("not json at all")
        assert run_cli(mini_project / "src", "--baseline", baseline) == EXIT_USAGE
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_version_exits_two(self, mini_project):
        baseline = mini_project / "old.json"
        baseline.write_text(json.dumps({"version": 99, "fingerprints": []}))
        assert run_cli(mini_project / "src", "--baseline", baseline) == EXIT_USAGE

    def test_baseline_survives_line_shifts(self, tmp_path):
        a = Finding(path="src/repro/x.py", line=3, col=1, code="RL101", message="m")
        moved = Finding(path="src/repro/x.py", line=99, col=5, code="RL101", message="m")
        baseline = Baseline.from_findings([a])
        path = tmp_path / "b.json"
        baseline.save(path)
        assert moved in Baseline.load(path)


class TestPruneBaseline:
    def test_prune_drops_stale_fingerprints(self, mini_project, capsys):
        baseline = mini_project / "lint-baseline.json"
        run_cli(mini_project / "src", "--write-baseline", baseline)
        capsys.readouterr()
        # The recorded violation is fixed: its fingerprint is now stale.
        (mini_project / "src" / "repro" / "bad.py").write_text("ANSWER = 1\n")
        assert run_cli(mini_project / "src", "--baseline", baseline,
                       "--prune-baseline") == EXIT_CLEAN
        assert "pruned 1 stale fingerprint(s)" in capsys.readouterr().err
        assert Baseline.load(baseline).fingerprints == frozenset()

    def test_prune_keeps_fingerprints_still_found(self, mini_project, capsys):
        baseline = mini_project / "lint-baseline.json"
        run_cli(mini_project / "src", "--write-baseline", baseline)
        capsys.readouterr()
        assert run_cli(mini_project / "src", "--baseline", baseline,
                       "--prune-baseline") == EXIT_CLEAN
        assert "pruned 0 stale fingerprint(s)" in capsys.readouterr().err
        assert len(Baseline.load(baseline)) == 1

    def test_prune_without_baseline_is_usage_error(self, mini_project, capsys):
        assert run_cli(mini_project / "src", "--prune-baseline") == EXIT_USAGE
        assert "--prune-baseline requires --baseline" in capsys.readouterr().err


class TestStatsAndJobs:
    def test_stats_go_to_stderr(self, mini_project, capsys):
        run_cli(mini_project / "src", "--stats", "--no-cache")
        err = capsys.readouterr().err
        assert "lint stats:" in err and "from cache" in err

    def test_json_format_includes_stats(self, mini_project, capsys):
        run_cli(mini_project / "src", "--format", "json", "--no-cache")
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["files_analyzed"] >= 1
        assert payload["stats"]["files_from_cache"] == 0

    def test_warm_cli_run_reports_full_cache_hits(self, mini_project, capsys):
        run_cli(mini_project / "src")
        capsys.readouterr()
        run_cli(mini_project / "src", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["files_from_cache"] == 2
        assert payload["stats"]["files_analyzed"] == 0

    def test_jobs_flag_matches_serial_output(self, mini_project, capsys):
        run_cli(mini_project / "src", "--no-cache", "--format", "json")
        serial = json.loads(capsys.readouterr().out)
        run_cli(mini_project / "src", "--no-cache", "--format", "json",
                "--jobs", "2")
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["findings"] == serial["findings"]


class TestSelfCheck:
    def test_library_and_test_tree_are_clean(self):
        """The CI gate: `python -m repro.lint src tests --baseline
        lint_baseline.json` exits 0 against an *empty* baseline."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "tests",
             "--baseline", "lint_baseline.json", "--no-cache"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr

    def test_baseline_is_empty(self):
        """The ratchet carries no debt: the RL601 legacy sites were migrated
        onto repro.obs and nothing new was grandfathered in."""
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        assert baseline.fingerprints == frozenset()
