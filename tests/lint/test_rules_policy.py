"""RL401 policy-kwarg drift."""

from repro.lint.framework import lint_source


def rl(source, code, path="src/repro/core/_fixture.py"):
    return [f for f in lint_source(source, path=path) if f.code == code]


class TestPolicyKwargDrift:
    def test_bare_engine_keyword_on_public_function(self):
        source = (
            "def run(graph, k, engine='vectorized'):\n"
            "    return graph, k, engine\n"
        )
        findings = rl(source, "RL401")
        assert len(findings) == 1
        assert (findings[0].line, findings[0].code) == (1, "RL401")
        assert "engine=" in findings[0].message

    def test_bare_kwonly_jobs_keyword(self):
        source = (
            "def run(graph, *, jobs=None):\n"
            "    return graph, jobs\n"
        )
        findings = rl(source, "RL401")
        assert len(findings) == 1
        assert "jobs=" in findings[0].message

    def test_sentinel_default_is_no_longer_exempt(self):
        source = (
            "def run(graph, k, engine=DEPRECATED, *, policy=None):\n"
            "    return graph, k, policy\n"
        )
        findings = rl(source, "RL401")
        assert [(f.line, f.code) for f in findings] == [(1, "RL401")]
        assert "engine=" in findings[0].message

    def test_policy_keyword_alone_is_clean(self):
        source = (
            "def run(graph, k, *, policy=None, index=None):\n"
            "    return graph, k, policy, index\n"
        )
        assert rl(source, "RL401") == []

    def test_required_positional_param_exempt(self):
        source = (
            "def shard(sampler, jobs):\n"
            "    return sampler, jobs\n"
        )
        assert rl(source, "RL401") == []

    def test_private_helper_exempt(self):
        source = (
            "def _inner(graph, engine='vectorized'):\n"
            "    return graph, engine\n"
        )
        assert rl(source, "RL401") == []

    def test_method_exempt(self):
        source = (
            "class Runner:\n"
            "    def run(self, engine='vectorized'):\n"
            "        return engine\n"
        )
        assert rl(source, "RL401") == []

    def test_implementation_layers_exempt(self):
        source = (
            "def make_rr_sampler(graph, model, trace_edges=False):\n"
            "    return graph, model, trace_edges\n"
        )
        assert rl(source, "RL401", path="src/repro/rrset/base.py") == []
        assert rl(source, "RL401", path="src/repro/parallel/engine.py") == []
        assert len(rl(source, "RL401", path="src/repro/core/base.py")) == 1
