"""Framework mechanics: parsing, scoping, suppression, rule selection."""

import pytest

from repro.lint.findings import Finding, LintUsageError
from repro.lint.framework import (
    PARSE_ERROR_CODE,
    ParsedModule,
    collect_files,
    find_project_root,
    lint_paths,
    lint_source,
    registered_rules,
    select_rules,
)

BAD_RNG = "import numpy as np\nVALUES = np.random.rand(3)\n"


def codes(findings):
    return [finding.code for finding in findings]


class TestRegistry:
    def test_all_nine_rules_registered(self):
        assert sorted(registered_rules()) == [
            "RL101", "RL201", "RL301", "RL401", "RL501", "RL601",
            "RL701", "RL702", "RL703",
        ]

    def test_select_subset(self):
        rules = select_rules(select=["RL101", "RL301"])
        assert sorted(rule.code for rule in rules) == ["RL101", "RL301"]

    def test_ignore_subset(self):
        rules = select_rules(ignore=["RL501"])
        assert "RL501" not in [rule.code for rule in rules]

    def test_unknown_code_is_usage_error(self):
        with pytest.raises(LintUsageError, match="RL999"):
            select_rules(select=["RL999"])
        with pytest.raises(LintUsageError, match="RL000"):
            select_rules(ignore=["RL000"])


class TestLintSource:
    def test_clean_snippet_has_no_findings(self):
        assert lint_source("x = 1\n") == []

    def test_syntax_error_yields_rl000(self):
        findings = lint_source("def broken(:\n    pass\n")
        assert codes(findings) == [PARSE_ERROR_CODE]
        assert findings[0].line == 1

    def test_virtual_path_scopes_repo_rules(self):
        # The same snippet fires inside src/repro and stays silent outside.
        assert codes(lint_source(BAD_RNG)) == ["RL101"]
        assert lint_source(BAD_RNG, path="scripts/tool.py") == []

    def test_inline_suppression_comment(self):
        suppressed = (
            "import numpy as np\n"
            "VALUES = np.random.rand(3)  # repro-lint: disable=RL101\n"
        )
        assert lint_source(suppressed) == []

    def test_suppression_is_per_code(self):
        wrong_code = (
            "import numpy as np\n"
            "VALUES = np.random.rand(3)  # repro-lint: disable=RL201\n"
        )
        assert codes(lint_source(wrong_code)) == ["RL101"]

    def test_findings_sorted_by_location(self):
        source = (
            "import numpy as np\n"
            "B = np.random.rand(2)\n"
            "A = np.random.default_rng()\n"
        )
        findings = lint_source(source)
        assert [finding.line for finding in findings] == [2, 3]


class TestFindings:
    def test_fingerprint_ignores_line(self):
        a = Finding(path="src/repro/x.py", line=3, col=1, code="RL101", message="m")
        b = Finding(path="src/repro/x.py", line=30, col=9, code="RL101", message="m")
        assert a.fingerprint() == b.fingerprint()
        assert a != b

    def test_render_is_path_line_col_code(self):
        finding = Finding(path="src/repro/x.py", line=3, col=7,
                          code="RL101", message="boom")
        assert finding.render() == "src/repro/x.py:3:7: RL101 boom"


class TestPaths:
    def test_find_project_root_walks_to_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_collect_skips_pycache(self, tmp_path):
        pkg = tmp_path / "src"
        (pkg / "__pycache__").mkdir(parents=True)
        (pkg / "mod.py").write_text("x = 1\n")
        (pkg / "__pycache__" / "junk.py").write_text("x = 1\n")
        files = collect_files([pkg], tmp_path)
        assert [f.name for f in files] == ["mod.py"]

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError, match="no such file"):
            collect_files([tmp_path / "nope"], tmp_path)

    def test_lint_paths_relativizes_against_root(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(BAD_RNG)
        findings = lint_paths([pkg], root=tmp_path)
        assert codes(findings) == ["RL101"]
        assert findings[0].path == "src/repro/bad.py"
        assert findings[0].line == 2

    def test_lint_paths_reports_unparsable_file(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def broken(:\n")
        findings = lint_paths([pkg], root=tmp_path)
        assert codes(findings) == [PARSE_ERROR_CODE]

    def test_empty_paths_is_usage_error(self):
        with pytest.raises(LintUsageError, match="no paths"):
            lint_paths([])


class TestFingerprintStability:
    """The baseline ratchet must survive edits that don't touch the finding."""

    @staticmethod
    def fingerprints(root, select):
        return {f.fingerprint()
                for f in lint_paths([root / "src"], root=root, select=[select])}

    def test_moving_a_flagged_function_keeps_its_fingerprint(self, project):
        before_src = """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr.tolist()
        """
        after_src = """\
            import numpy as np

            def helper():
                return 0


            def another():
                return 1


            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr.tolist()
        """
        root = project({"repro/reader.py": before_src})
        before = self.fingerprints(root, "RL703")
        root = project({"repro/reader.py": after_src})
        after = self.fingerprints(root, "RL703")
        assert before == after and before

    def test_renaming_an_unrelated_sibling_keeps_the_fingerprint(self, project):
        def source(sibling):
            return f"""\
                import numpy as np

                def {sibling}():
                    return 0

                def read(path):
                    arr = np.memmap(path, dtype="f4")
                    return arr.tolist()
            """

        root = project({"repro/reader.py": source("old_name")})
        before = self.fingerprints(root, "RL703")
        root = project({"repro/reader.py": source("completely_new_name")})
        after = self.fingerprints(root, "RL703")
        assert before == after and before

    def test_file_rule_fingerprints_survive_line_shifts_too(self, project):
        root = project({"repro/bad.py": BAD_RNG})
        before = self.fingerprints(root, "RL101")
        root = project({"repro/bad.py": "# a new leading comment\n" + BAD_RNG})
        after = self.fingerprints(root, "RL101")
        assert before == after and before

    def test_dataflow_messages_carry_no_line_numbers(self, project):
        root = project({"repro/reader.py": """\
            import numpy as np

            def read(path):
                arr = np.memmap(path, dtype="f4")
                return arr.tolist()
        """})
        [finding] = lint_paths([root / "src"], root=root, select=["RL703"])
        assert str(finding.line) not in finding.message


class TestShortCircuitParsing:
    """Files no selected rule applies to are never read or parsed."""

    def test_out_of_scope_files_are_skipped(self, project):
        from repro.lint.framework import run_lint

        root = project({"repro/mod.py": "x = 1\n"})
        scripts = root / "scripts"
        scripts.mkdir()
        (scripts / "tool.py").write_text("def broken(:\n")  # would be RL000
        run = run_lint([root / "src", scripts], root=root)
        assert run.findings == []
        assert run.stats.files_skipped == 1
        assert run.stats.files_analyzed == 1

    def test_select_narrowing_skips_files_the_rule_ignores(self, project):
        from repro.lint.framework import run_lint

        root = project({"repro/mod.py": "x = 1\n"})
        # RL501 is a project rule with no index needs: nothing gets parsed.
        run = run_lint([root / "src"], root=root, select=["RL501"])
        assert run.stats.files_skipped == 1
        assert run.stats.files_analyzed == 0


class TestParsedModule:
    def test_parent_and_ancestors(self):
        module = ParsedModule.from_source("def f():\n    return 1\n", "src/repro/m.py")
        ret = module.tree.body[0].body[0]
        assert module.parent(ret) is module.tree.body[0]
        assert list(module.ancestors(ret))[-1] is module.tree

    def test_in_repro_src(self):
        inside = ParsedModule.from_source("x = 1\n", "src/repro/m.py")
        outside = ParsedModule.from_source("x = 1\n", "benchmarks/m.py")
        assert inside.in_repro_src and not outside.in_repro_src
