"""RL401 — ExecutionPolicy discipline.

Every execution knob lives on :class:`~repro.api.policy.ExecutionPolicy`;
public entry points take ``policy=`` instead of spelling the knobs out.

* **RL401 (policy-kwarg drift)** — a *public module-level function* under
  ``src/repro`` must not grow an ``engine=`` / ``jobs=`` / ``trace_edges=``
  / ``sketch_index=`` keyword (one with a default).  Take ``policy=``
  instead.  Required positional parameters are exempt, as are private
  helpers and methods (classes own their configuration objects), and the
  ``repro.parallel`` / ``repro.rrset`` engine layers are out of scope
  entirely: they are the implementation those knobs configure, so their
  factories (``maybe_parallel``, ``make_rr_sampler``) legitimately spell
  the knobs out.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.framework import FileRule, ParsedModule, register_rule

#: Execution knobs that must flow through ExecutionPolicy on public entry points.
LEGACY_POLICY_KWARGS = frozenset({"engine", "jobs", "trace_edges", "sketch_index"})

#: Engine-implementation packages where the knobs *are* the interface.
_IMPLEMENTATION_LAYERS = ("src/repro/parallel/", "src/repro/rrset/")


def _defaulted_params(func: ast.FunctionDef | ast.AsyncFunctionDef
                      ) -> list[tuple[ast.arg, ast.expr | None]]:
    """Every (parameter, default) pair; required params carry ``None``."""
    positional = list(func.args.posonlyargs) + list(func.args.args)
    defaults: list[ast.expr | None] = [None] * (len(positional) - len(func.args.defaults))
    defaults.extend(func.args.defaults)
    pairs = list(zip(positional, defaults))
    pairs.extend(zip(func.args.kwonlyargs, func.args.kw_defaults))
    return pairs


@register_rule
class PolicyKwargDriftRule(FileRule):
    code = "RL401"
    name = "policy-kwarg-drift"
    description = ("Public module-level entry points must not grow "
                   "engine=/jobs=/trace_edges=/sketch_index= keywords; take "
                   "policy=ExecutionPolicy(...).")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if module.rel_path.startswith(_IMPLEMENTATION_LAYERS):
            return
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            for param, default in _defaulted_params(stmt):
                if default is None:
                    continue  # required positional: plumbing, not a knob
                if param.arg in LEGACY_POLICY_KWARGS:
                    yield module.finding(
                        param, self.code,
                        f"public entry point {stmt.name}() grows a bare "
                        f"{param.arg}= keyword — execution knobs belong on "
                        f"policy=ExecutionPolicy(...)",
                    )
