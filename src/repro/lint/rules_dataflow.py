"""RL7xx — interprocedural dataflow rules over the project call graph.

These rules consume the :class:`~repro.lint.dataflow.DataflowEngine` built
from every indexed module under ``src/repro``.  Unlike the per-file RL1xx–
RL6xx families, a fact here is typically *created* in one function (often
one file) and *violated* in another: an ad-hoc ``default_rng`` built in a
helper and handed to a sampler three call frames later, a module global
mutated by a utility that a worker entry point happens to reach, a memmap
loaded in ``repro.sketch.persistence`` and materialized by a caller.

* **RL701** — seed provenance: ``Generator``/``SeedSequence`` values reaching
  a sampler call must trace to the sanctioned derivation entry points
  (``spawn_seed_streams`` / ``resolve_rng`` / ``RandomSource`` /
  ``spawn_children``), the invariant that keeps RR-set draws byte-identical
  for any worker count (Tang et al. §5's estimator assumes exchangeable,
  reproducible draws).
* **RL702** — shared-state races: module-level mutable state written from a
  function reachable from a worker / ``ParallelSampler`` / async entry
  point, unless the write goes through the sanctioned process-global
  installers in ``repro.obs.runtime`` / ``repro.faults.injection``.
* **RL703** — memmap discipline: full-copy operations (``np.asarray``,
  ``.copy()``, ``.tolist()``, ``.astype()``, ``x[:]``) applied to values
  whose provenance includes ``load_sketch`` / ``np.memmap`` — each one
  silently pages an out-of-core sketch into RAM.

Finding messages carry qualified names, never line numbers, so baseline
fingerprints survive unrelated edits that shift lines.  Suppress a
legitimate site with ``# repro-lint: disable=RL70x`` on the flagged line;
suppressions are honoured even on cache-warm runs (they travel inside the
module index).
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from repro.lint.dataflow import (
    TAG_MEMMAP,
    TAG_SEED_ADHOC,
    CallRecord,
    DataflowEngine,
)
from repro.lint.findings import Finding
from repro.lint.framework import ProjectContext, ProjectRule, register_rule

#: Method/function basenames treated as sampler sinks for RL701; ``sample``
#: is ``TriggeringDistribution.sample(node, rng)``, which takes an RNG too.
SAMPLER_SINKS = frozenset({"sample", "sample_batch", "sample_random_batch"})

#: Modules whose functions are the sanctioned process-global installers.
SANCTIONED_WRITER_MODULES = frozenset({
    "repro.obs.runtime",
    "repro.faults.injection",
})

#: Individual functions allowed to write process-global state: pool
#: initializers run once per worker before any task executes.
SANCTIONED_WRITER_FUNCS = frozenset({
    "repro.parallel.worker.init_worker",
})

#: Call targets that materialize their array argument (RL703).
MATERIALIZING_QUALS = frozenset({
    "numpy.asarray", "numpy.array", "numpy.ascontiguousarray", "numpy.copy",
    "list",
})

#: Methods that materialize their receiver (RL703).
MATERIALIZING_METHODS = frozenset({"copy", "tolist", "astype"})


class _DataflowRule(ProjectRule):
    """Shared plumbing: library scope + finding construction."""

    index_paths: ClassVar[tuple[str, ...]] = ("src/repro/",)

    @staticmethod
    def _in_scope(engine: DataflowEngine, qualname: str) -> bool:
        path = engine.function_paths.get(qualname, "")
        return path.startswith("src/repro/")

    @staticmethod
    def _finding(engine: DataflowEngine, owner: str, line: int,
                 code: str, message: str) -> Finding:
        return Finding(path=engine.function_paths[owner], line=line, col=1,
                       code=code, message=message)


def _sink_label(record: CallRecord) -> str:
    if record.method_attr is not None:
        return f".{record.method_attr}()"
    if record.qual is not None:
        return f"{record.qual.split('.')[-1]}()"
    return "call"


@register_rule
class AdHocSeedReachesSampler(_DataflowRule):
    """RL701: sampler inputs must carry sanctioned seed provenance."""

    code = "RL701"
    name = "seed-provenance"
    description = ("Generator/SeedSequence values reaching a sampler call "
                   "must derive from spawn_seed_streams()/ExecutionPolicy "
                   "seed material")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = project.dataflow()
        for owner, summary in sorted(engine.summaries.items()):
            if not self._in_scope(engine, owner):
                continue
            for record in summary.calls:
                name = (record.method_attr
                        or (record.qual or "").split(".")[-1])
                if name not in SAMPLER_SINKS:
                    continue
                symbolic = record.all_arg_facts()
                if TAG_SEED_ADHOC not in engine.concrete(owner, symbolic):
                    continue
                message = (
                    f"sampler call `{_sink_label(record)}` in `{owner}` "
                    "receives ad-hoc numpy seed material "
                    "(default_rng/SeedSequence built from raw entropy); "
                    "derive generators via spawn_seed_streams()/"
                    "ExecutionPolicy so RR-set draws stay byte-identical "
                    "across worker counts"
                )
                witness = engine.tag_witness(owner, symbolic, TAG_SEED_ADHOC)
                if witness is not None:
                    message += f"; the ad-hoc value flows in from `{witness}`"
                yield self._finding(engine, owner, record.line, self.code, message)


@register_rule
class SharedStateWriteFromConcurrentPath(_DataflowRule):
    """RL702: globals written on paths reachable from concurrent entry points."""

    code = "RL702"
    name = "shared-state-race"
    description = ("module-level mutable state must not be written from "
                   "functions reachable from worker/ParallelSampler/async "
                   "entry points except via the sanctioned installers in "
                   "repro.obs.runtime / repro.faults.injection")

    @staticmethod
    def _module_of(project: ProjectContext, engine: DataflowEngine,
                   qualname: str) -> str:
        rel_path = engine.function_paths.get(qualname, "")
        module_index = project.indexes.get(rel_path)
        return module_index.module if module_index is not None else ""

    def _roots(self, project: ProjectContext,
               engine: DataflowEngine) -> list[str]:
        roots: list[str] = []
        for qualname, function in engine.functions.items():
            if function.name == "<module>" or not self._in_scope(engine, qualname):
                continue
            module = self._module_of(project, engine, qualname)
            if (module.endswith(".worker")
                    or ".ParallelSampler." in f"{qualname}."
                    or function.is_async):
                roots.append(qualname)
        return sorted(roots)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = project.dataflow()
        reachable = engine.reachable_from(self._roots(project, engine))
        for qualname in sorted(reachable):
            if not self._in_scope(engine, qualname):
                continue
            if qualname in SANCTIONED_WRITER_FUNCS:
                continue
            if self._module_of(project, engine, qualname) in SANCTIONED_WRITER_MODULES:
                continue
            function = engine.functions[qualname]
            if function.name == "<module>":
                continue
            for op in function.ops:
                if op.get("o") != "gwrite":
                    continue
                root = reachable[qualname]
                via = "" if root == qualname else (
                    f", which is reachable from concurrent entry point `{root}`")
                message = (
                    f"module-level mutable `{op['name']}` is written in "
                    f"`{qualname}`{via}; process-global mutation must go "
                    "through the sanctioned installers in repro.obs.runtime "
                    "/ repro.faults.injection"
                )
                yield self._finding(engine, qualname, int(op["line"]),
                                    self.code, message)


@register_rule
class MemmapMaterialization(_DataflowRule):
    """RL703: full-copy operations on memmap-backed values."""

    code = "RL703"
    name = "memmap-materialization"
    description = ("np.asarray/.copy()/.tolist()/.astype()/x[:] applied to a "
                   "value whose provenance includes load_sketch()/np.memmap "
                   "silently pages the whole sketch into RAM")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        engine = project.dataflow()
        for owner, summary in sorted(engine.summaries.items()):
            if not self._in_scope(engine, owner):
                continue
            for record in summary.calls:
                label: str | None = None
                symbolic = None
                if (record.qual is not None
                        and record.qual in MATERIALIZING_QUALS):
                    label = f"{record.qual.split('.')[-1]}()"
                    if record.qual != "list":
                        label = f"np.{label}"
                    symbolic = record.all_arg_facts()
                elif (record.method_attr in MATERIALIZING_METHODS
                        and record.callee is None):
                    label = f".{record.method_attr}()"
                    symbolic = record.obj_facts
                if label is None or symbolic is None:
                    continue
                if TAG_MEMMAP not in engine.concrete(owner, symbolic):
                    continue
                yield self._memmap_finding(engine, owner, record.line,
                                           label, symbolic)
            for event in summary.slices:
                if TAG_MEMMAP in engine.concrete(owner, event.facts):
                    yield self._memmap_finding(engine, owner, event.line,
                                               "full slice `[:]`", event.facts)

    def _memmap_finding(self, engine: DataflowEngine, owner: str, line: int,
                        label: str, symbolic: frozenset[str]) -> Finding:
        message = (
            f"{label} materializes a memmap-backed value in `{owner}` "
            "(provenance includes load_sketch()/np.memmap); keep "
            "file-backed sketch data lazy or window it explicitly"
        )
        witness = engine.tag_witness(owner, symbolic, TAG_MEMMAP)
        if witness is not None:
            message += f"; the memmap flows in from `{witness}`"
        return self._finding(engine, owner, line, self.code, message)
