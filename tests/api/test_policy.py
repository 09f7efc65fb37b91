"""ExecutionPolicy: validation, merging, and env/CLI resolution."""

import argparse

import pytest

from repro.api import ExecutionPolicy


class TestValidation:
    def test_defaults_match_legacy_call_defaults(self):
        policy = ExecutionPolicy()
        assert policy.jobs is None
        assert policy.trace_edges is False
        assert policy.epsilon == 0.1
        assert policy.ell == 1.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionPolicy().jobs = 2

    def test_has_no_engine_field(self):
        assert "engine" not in ExecutionPolicy.field_names()
        with pytest.raises(TypeError):
            ExecutionPolicy(engine="python")

    @pytest.mark.parametrize("bad", [
        {"deadline_ms": 0},
        {"jobs": -1},
        {"jobs": 1.5},
        {"jobs": True},
        {"trace_edges": 1},
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"ell": 0.0},
    ])
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises((ValueError, TypeError)):
            ExecutionPolicy(**bad)

    def test_jobs_zero_means_all_cores_and_is_valid(self):
        assert ExecutionPolicy(jobs=0).jobs == 0

    def test_numeric_coercion(self):
        policy = ExecutionPolicy(epsilon="0.2", ell=2)
        assert policy.epsilon == 0.2 and isinstance(policy.epsilon, float)
        assert policy.ell == 2.0 and isinstance(policy.ell, float)

    def test_epsilon_one_is_the_paper_boundary(self):
        assert ExecutionPolicy(epsilon=1).epsilon == 1.0

    def test_algorithm_defaults_to_tim(self):
        assert ExecutionPolicy().algorithm == "tim"

    def test_algorithm_normalizes_case(self):
        assert ExecutionPolicy(algorithm="IMM").algorithm == "imm"

    @pytest.mark.parametrize("bad", [{"algorithm": ""}, {"algorithm": 3}])
    def test_rejects_invalid_algorithm(self, bad):
        with pytest.raises((ValueError, TypeError)):
            ExecutionPolicy(**bad)


class TestMerge:
    def test_merge_skips_none(self):
        base = ExecutionPolicy(algorithm="imm", jobs=4)
        merged = base.merge(algorithm=None, jobs=None, epsilon=0.2)
        assert merged.algorithm == "imm"
        assert merged.jobs == 4
        assert merged.epsilon == 0.2

    def test_merge_applies_explicit_false(self):
        base = ExecutionPolicy(trace_edges=True)
        assert base.merge(trace_edges=False).trace_edges is False

    def test_merge_no_overrides_returns_self(self):
        base = ExecutionPolicy()
        assert base.merge() is base
        assert base.merge(algorithm=None) is base

    def test_merge_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown execution-policy field"):
            ExecutionPolicy().merge(engine="python")

    def test_from_kwargs_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown execution-policy field"):
            ExecutionPolicy.from_kwargs(threads=4)

    def test_from_kwargs_layers_over_base(self):
        base = ExecutionPolicy(algorithm="imm")
        policy = ExecutionPolicy.from_kwargs(base=base, jobs=2)
        assert (policy.algorithm, policy.jobs) == ("imm", 2)

    def test_coerce(self):
        assert ExecutionPolicy.coerce(None) == ExecutionPolicy()
        policy = ExecutionPolicy(jobs=3)
        assert ExecutionPolicy.coerce(policy) is policy
        assert ExecutionPolicy.coerce({"algorithm": "imm"}).algorithm == "imm"
        with pytest.raises(ValueError, match="policy must be"):
            ExecutionPolicy.coerce("vectorized")

    def test_as_dict_roundtrip(self):
        policy = ExecutionPolicy(algorithm="imm", jobs=2, trace_edges=True,
                                 epsilon=0.25, ell=1.5, metrics=True)
        assert ExecutionPolicy(**policy.as_dict()) == policy


class TestEnvResolution:
    def test_reads_all_variables(self):
        env = {"REPRO_JOBS": "4", "REPRO_TRACE_EDGES": "yes",
               "REPRO_EPSILON": "0.2", "REPRO_ELL": "2.0",
               "REPRO_METRICS": "1", "REPRO_DEADLINE_MS": "250",
               "REPRO_ALGORITHM": "imm"}
        policy = ExecutionPolicy.from_env(env)
        assert policy == ExecutionPolicy(jobs=4, trace_edges=True, epsilon=0.2,
                                         ell=2.0, metrics=True, deadline_ms=250.0,
                                         algorithm="imm")

    def test_empty_and_missing_are_unset(self):
        assert ExecutionPolicy.from_env({"REPRO_JOBS": ""}) == ExecutionPolicy()
        assert ExecutionPolicy.from_env({}) == ExecutionPolicy()

    def test_engine_variable_is_not_read(self):
        assert ExecutionPolicy.from_env({"REPRO_ENGINE": "python"}) == ExecutionPolicy()

    @pytest.mark.parametrize("env, message", [
        ({"REPRO_JOBS": "many"}, "REPRO_JOBS"),
        ({"REPRO_TRACE_EDGES": "maybe"}, "REPRO_TRACE_EDGES"),
        ({"REPRO_EPSILON": "tight"}, "REPRO_EPSILON"),
        ({"REPRO_DEADLINE_MS": "-5"}, "deadline_ms must be"),
    ])
    def test_invalid_values_fail_loudly(self, env, message):
        with pytest.raises(ValueError, match=message):
            ExecutionPolicy.from_env(env)

    def test_bool_spellings(self):
        for text, expected in [("1", True), ("true", True), ("ON", True),
                               ("0", False), ("no", False), ("Off", False)]:
            assert ExecutionPolicy.from_env(
                {"REPRO_TRACE_EDGES": text}).trace_edges is expected

    def test_real_environ_is_the_default_source(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert ExecutionPolicy.from_env().jobs == 3


class TestArgsResolution:
    def _args(self, **kwargs):
        namespace = argparse.Namespace(jobs=None, trace_edges=None,
                                       epsilon=None, ell=None)
        for key, value in kwargs.items():
            setattr(namespace, key, value)
        return namespace

    def test_cli_flags_override_env(self):
        policy = ExecutionPolicy.from_args(
            self._args(epsilon=0.2, jobs=2),
            env={"REPRO_EPSILON": "0.5", "REPRO_JOBS": "8"},
        )
        assert (policy.epsilon, policy.jobs) == (0.2, 2)

    def test_algorithm_flag_layers_over_env(self):
        policy = ExecutionPolicy.from_args(
            self._args(algorithm="imm"), env={"REPRO_ALGORITHM": "tim"})
        assert policy.algorithm == "imm"
        env_only = ExecutionPolicy.from_args(
            self._args(), env={"REPRO_ALGORITHM": "imm"})
        assert env_only.algorithm == "imm"

    def test_absent_flags_keep_env_layer(self):
        policy = ExecutionPolicy.from_args(
            self._args(), env={"REPRO_TRACE_EDGES": "1", "REPRO_JOBS": "8"}
        )
        assert policy.trace_edges is True
        assert policy.jobs == 8

    def test_namespace_without_policy_attributes(self):
        policy = ExecutionPolicy.from_args(argparse.Namespace(), env={})
        assert policy == ExecutionPolicy()
