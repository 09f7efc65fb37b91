"""repro.lint — AST-based determinism & resource-safety analysis.

A small, project-specific static analyzer enforcing the invariants the rest
of the library established by convention:

=======  ====================  =================================================
code     rule                  invariant
=======  ====================  =================================================
RL000    parse-error           files must parse (reserved; not a rule class)
RL101    rng-discipline        entropy flows through repro.utils.rng or an
                               explicit SeedSequence — no global-stream draws
RL201    resource-lifecycle    pool/shared-memory owners are closed or returned
RL301    exception-policy      broad excepts re-raise, translate, or use the
                               caught exception
RL401    policy-kwarg-drift    public entry points take policy=, not bare
                               engine=/jobs=/trace_edges= keywords
RL501    wire-schema-sync      ops.py ↔ golden_requests.jsonl ↔ api_surface.txt
RL601    timing-discipline     phase timing flows through repro.obs
                               (trace()/now()) — no raw perf_counter outside it
RL701    seed-provenance       Generators/SeedSequences reaching sampler calls
                               derive from spawn_seed_streams()/ExecutionPolicy
                               seed material (interprocedural)
RL702    shared-state-race     module globals are not written from paths
                               reachable from worker/ParallelSampler/async
                               entry points (interprocedural)
RL703    memmap-discipline     no full-copy ops (asarray/.copy()/[:]/.tolist())
                               on load_sketch()/np.memmap-backed values
                               (interprocedural)
=======  ====================  =================================================

Run it with ``python -m repro.lint [paths...]`` (exit 0 clean / 1 findings /
2 usage error), or programmatically via :func:`lint_paths` /
:func:`lint_source`.  ``--baseline`` suppresses recorded pre-existing
findings; a trailing ``# repro-lint: disable=RLxxx`` comment suppresses a
single line.  The RL7xx family runs on a cross-module call graph built by
:mod:`repro.lint.project` and the fact lattice in :mod:`repro.lint.dataflow`;
per-file results (including the serialized module index) are cached under
``.repro-lint-cache/`` so warm runs only re-analyze changed files, and
``--format sarif`` emits SARIF 2.1.0 for CI annotations.
"""

from repro.lint.findings import Baseline, Finding, LintUsageError
from repro.lint.framework import (
    PARSE_ERROR_CODE,
    FileRule,
    ParsedModule,
    ProjectContext,
    ProjectRule,
    Rule,
    lint_paths,
    lint_source,
    register_rule,
    registered_rules,
    select_rules,
)

# Importing the rule modules registers every rule with the framework.
from repro.lint import rules_dataflow as _rules_dataflow
from repro.lint import rules_exceptions as _rules_exceptions
from repro.lint import rules_policy as _rules_policy
from repro.lint import rules_resources as _rules_resources
from repro.lint import rules_rng as _rules_rng
from repro.lint import rules_schema as _rules_schema
from repro.lint import rules_timing as _rules_timing

__all__ = [
    "PARSE_ERROR_CODE",
    "Baseline",
    "FileRule",
    "Finding",
    "LintUsageError",
    "ParsedModule",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "registered_rules",
    "select_rules",
]

del (_rules_dataflow, _rules_exceptions, _rules_policy, _rules_resources,
     _rules_rng, _rules_schema, _rules_timing)
