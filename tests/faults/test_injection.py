"""FaultPlan / checkpoint / deadline_scope mechanics."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

import repro

from repro.faults import (
    DeadlineExceeded,
    FatalError,
    FaultPlan,
    FaultRule,
    TransientError,
    injection,
)


class TestFaultRule:
    def test_defaults_rejected_without_action(self):
        with pytest.raises(ValueError, match="no action"):
            FaultRule(site="parallel.wave")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(site="", error="transient"), "non-empty site"),
            (dict(site="x", error="nope"), "unknown fault error kind"),
            (dict(site="x", delay_ms=-1.0), "delay_ms"),
            (dict(site="x", error="fatal", truncate_at=-5), "truncate_at"),
            (dict(site="x", error="fatal", after=-1), "after"),
            (dict(site="x", error="fatal", times=0), "times"),
            (dict(site="x", error="fatal", probability=0.0), "probability"),
            (dict(site="x", error="fatal", probability=1.5), "probability"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultRule(**kwargs)

    def test_make_error_kinds(self):
        assert isinstance(
            FaultRule(site="s", error="transient").make_error("s", 0), TransientError
        )
        assert isinstance(
            FaultRule(site="s", error="fatal").make_error("s", 0), FatalError
        )
        assert isinstance(
            FaultRule(site="s", error="memory").make_error("s", 3), MemoryError
        )
        message = str(FaultRule(site="s", error="oserror").make_error("s", 7))
        assert "hit #7" in message


class TestFaultPlan:
    def test_from_json_list(self):
        plan = FaultPlan.from_json('[{"site": "parallel.wave", "error": "transient"}]')
        assert len(plan.rules) == 1
        assert plan.rules[0].site == "parallel.wave"
        assert plan.seed == 0

    def test_from_json_object_with_seed(self):
        plan = FaultPlan.from_json(
            '{"seed": 9, "rules": [{"site": "sketch.save", "truncate_at": 64}]}'
        )
        assert plan.seed == 9
        assert plan.rules[0].truncate_at == 64

    @pytest.mark.parametrize(
        "text", ['"just a string"', '{"rules": 3}', "[{\"site\": \"x\"}]"]
    )
    def test_from_json_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_json(text)

    def test_fire_window_after_times(self):
        plan = FaultPlan([FaultRule(site="s", error="transient", after=1, times=2)])
        fired = [plan.fire("s") is not None for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert plan.hits("s") == 5
        assert plan.hits("other") == 0

    def test_fire_counts_per_site(self):
        plan = FaultPlan([FaultRule(site="a", error="fatal", after=1)])
        assert plan.fire("b") is None  # does not advance site "a"
        assert plan.fire("a") is None
        assert plan.fire("a") is not None

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultRule(site="s", error="transient", times=50, probability=0.5)],
                seed=seed,
            )
            return tuple(plan.fire("s") is not None for _ in range(50))

        first = pattern(11)
        assert pattern(11) == first
        assert any(first) and not all(first)


class TestGlobalState:
    def test_disarmed_checkpoint_is_noop(self):
        assert not injection.enabled()
        assert injection.checkpoint("parallel.wave") is None

    def test_install_and_clear(self):
        plan = FaultPlan([FaultRule(site="s", error="transient")])
        injection.install(plan)
        assert injection.enabled()
        assert injection.active_plan() is plan
        injection.clear()
        assert not injection.enabled()
        assert injection.active_plan() is None

    def test_plan_scope_restores_previous(self):
        outer = FaultPlan([FaultRule(site="s", delay_ms=1.0)])
        injection.install(outer)
        inner = FaultPlan([FaultRule(site="s", error="fatal")])
        with injection.plan_scope(inner):
            assert injection.active_plan() is inner
        assert injection.active_plan() is outer

    def test_checkpoint_raises_planned_error(self):
        plan = FaultPlan([FaultRule(site="s", error="transient", after=1)])
        with injection.plan_scope(plan):
            assert injection.checkpoint("s") is None
            with pytest.raises(TransientError, match="injected"):
                injection.checkpoint("s")

    def test_checkpoint_returns_rule_for_rich_actions(self):
        plan = FaultPlan([FaultRule(site="sketch.save", truncate_at=16)])
        with injection.plan_scope(plan):
            rule = injection.checkpoint("sketch.save")
        assert rule is not None and rule.truncate_at == 16


class TestInstallFromEnv:
    def test_unset_is_noop(self):
        assert injection.install_from_env(env={}) is None
        assert not injection.enabled()

    def test_inline_json(self):
        raw = json.dumps([{"site": "serve.dispatch", "error": "transient"}])
        plan = injection.install_from_env(env={injection.ENV_VAR: raw})
        assert plan is not None and injection.active_plan() is plan

    def test_at_path(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps({"seed": 3, "rules": [{"site": "s", "delay_ms": 1}]})
        )
        plan = injection.install_from_env(env={injection.ENV_VAR: f"@{plan_file}"})
        assert plan is not None and plan.seed == 3

    @pytest.mark.parametrize(
        "raw", ["not json", '{"rules": "x"}", ', "@/nonexistent/plan.json"]
    )
    def test_bad_plan_raises_value_error(self, raw):
        with pytest.raises(ValueError, match="invalid REPRO_FAULTS"):
            injection.install_from_env(env={injection.ENV_VAR: raw})


class TestDeadlines:
    def test_none_budget_is_noop(self):
        with injection.deadline_scope(None):
            assert injection.remaining_ms() is None
            assert not injection.enabled()

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            with injection.deadline_scope(0):
                pass  # pragma: no cover - never entered

    def test_checkpoint_past_budget_raises(self):
        plan = FaultPlan([FaultRule(site="slow", delay_ms=30.0)])
        with injection.plan_scope(plan):
            with injection.deadline_scope(10.0):
                with pytest.raises(DeadlineExceeded, match="slow"):
                    injection.checkpoint("slow")  # delay spends the budget
        assert injection.remaining_ms() is None

    def test_nested_scopes_tightest_wins(self):
        with injection.deadline_scope(60_000.0):
            outer = injection.remaining_ms()
            with injection.deadline_scope(5_000.0):
                inner = injection.remaining_ms()
                assert inner is not None and outer is not None
                assert inner < outer
            restored = injection.remaining_ms()
            assert restored is not None and restored > 10_000.0

    def test_deadline_arms_checkpoints_without_plan(self):
        assert injection.active_plan() is None
        with injection.deadline_scope(60_000.0):
            assert injection.enabled()
            assert injection.checkpoint("anything") is None  # within budget
        assert not injection.enabled()


class TestSiteRegistry:
    def test_every_checkpoint_site_is_registered(self):
        """The module docstring's site table lists every checkpoint in src/."""
        registered = set(re.findall(r"^``([a-z_.]+)``", injection.__doc__, re.MULTILINE))
        used = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            used.update(re.findall(r"\bcheckpoint\(\s*\"([^\"]+)\"", text))
        assert used, "no checkpoint literals found"
        assert used <= registered, f"unregistered sites: {sorted(used - registered)}"
