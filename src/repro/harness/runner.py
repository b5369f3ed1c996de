"""Experiment runner: engines × instances with per-run resource limits.

This is the equivalent of the paper's batch infrastructure: every engine is
run on every suite instance under a resource budget (the paper used a
1800 s wall clock; here either a scaled-down time limit or the
machine-independent ``max_clauses`` budget), and the BDD baseline adds the
exact diameters when it completes within its own budget.  Answers are
cross-checked against the instance's expected verdict, so a regression in
any engine trips the harness rather than silently skewing a table.

Multi-core runs
---------------
``HarnessConfig(jobs=N)`` fans the individual engine × instance cells (and
the BDD baseline cells) out over a ``multiprocessing`` pool.  Each worker
receives only the *name* of a suite instance plus the pure-data config —
never a solver or an engine — rebuilds the model locally and sends back a
pickle-safe :class:`EngineRecord`.  The merge is order-preserving
(:func:`repro.parallel.parallel_map` returns results index-aligned with
its inputs), so a run at any job count assembles exactly the same records
in exactly the same order as the serial reference path (``jobs=1``), and
the Table I / Fig. 6 artefacts come out identical.  The only fields that
vary between runs are the measured wall-clock times, which is why the
committed artefacts render without them (see ``records.DETERMINISTIC``
and the deterministic render modes).
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..bdd.checker import BddVerdict, check_with_bdds
from ..circuits.suite import SuiteInstance, full_suite, get_instance
from ..core.options import EngineOptions
from ..core.portfolio import ENGINES, run_engine
from ..parallel import parallel_map
from .records import EngineRecord, InstanceRecord

__all__ = ["HarnessConfig", "ExperimentRunner", "ProgressCallback"]

_log = logging.getLogger("repro.harness")

#: Per-instance progress callback: ``(instance_name, elapsed_seconds,
#: record)``, fired once per instance in suite order.
ProgressCallback = Callable[[str, float, InstanceRecord], None]


@dataclass
class HarnessConfig:
    """Batch-run configuration.

    ``options`` are the :class:`EngineOptions` every engine cell runs
    with; the default is the engine defaults under a 60 s wall clock per
    engine per instance.  Artefact-producing configs set the deterministic
    budgets ``max_clauses`` (total clause additions per run) and
    ``max_propagations`` (total unit propagations per run) there *instead
    of* ``time_limit``, so regenerated tables are machine- and
    job-count-independent.  The two budgets are complementary: clause
    additions bind on the encoding-heavy failure mode (the ITPSEQ family
    re-unrolling a deep circuit), propagations on the search-heavy one
    (exact-k checks whose formulas stay small but hard).  The BDD baseline
    ignores ``options`` and always sees the raw circuit: its exact
    diameters are part of the tables.

    ``jobs`` selects how many worker processes run the engine × instance
    cells (1 = the serial reference path, 0 = all cores).
    """

    engines: Sequence[str] = ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr")
    options: EngineOptions = field(
        default_factory=lambda: EngineOptions(time_limit=60.0))
    run_bdds: bool = True
    bdd_node_limit: int = 200_000
    bdd_time_limit: Optional[float] = 30.0
    jobs: int = 1
    #: Directory for span-trace event streams (``None`` = tracing off).
    #: Every engine cell writes ``<events_dir>/<instance>__<engine>.jsonl``
    #: and ``run_suite`` merges them into ``<events_dir>/suite.jsonl`` in
    #: suite × engine order, so the merged stream is identical at any job
    #: count.  The BDD baseline cells are never traced (no SAT counters).
    events_dir: Optional[str] = None


# --------------------------------------------------------------------- #
# Worker-side cell execution
# --------------------------------------------------------------------- #
# One *cell* is the atom of parallel work: either one engine on one
# instance, or the BDD baseline on one instance.  Cells ship the instance
# *name* (suite factories are lambdas and deliberately never cross the
# process boundary); the worker rebuilds the model from the registry spec.

_BDD_CELL = "__bdd__"


def _cell_events_path(events_dir: str, instance_name: str,
                      engine_name: str) -> str:
    return os.path.join(events_dir, f"{instance_name}__{engine_name}.jsonl")


def _cell_tracer(config: HarnessConfig, instance_name: str, kind: str):
    """Build the per-cell tracer, or ``None`` when tracing is off.

    Tracers are always constructed cell-locally (worker side under a pool)
    — they hold open file handles and never cross a process boundary.
    """
    if config.events_dir is None or kind == _BDD_CELL:
        return None
    from ..obs.sinks import JsonlSink
    from ..obs.tracer import Tracer

    return Tracer(JsonlSink(
        _cell_events_path(config.events_dir, instance_name, kind)))


def _run_cell(spec: Tuple[str, str, HarnessConfig]):
    """Execute one (instance, engine-or-BDD) cell; module-level for pickling."""
    instance_name, kind, config = spec
    instance = get_instance(instance_name)
    model = instance.build()
    if kind == _BDD_CELL:
        return check_with_bdds(model, max_nodes=config.bdd_node_limit,
                               time_limit=config.bdd_time_limit)
    tracer = _cell_tracer(config, instance_name, kind)
    try:
        result = run_engine(kind, model, config.options, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    return EngineRecord.from_result(result)


class ExperimentRunner:
    """Runs engines over suite instances and collects records."""

    def __init__(self, config: Optional[HarnessConfig] = None) -> None:
        self.config = config or HarnessConfig()
        unknown = [e for e in self.config.engines if e not in ENGINES]
        if unknown:
            raise KeyError(f"unknown engines in config: {unknown}")

    # ------------------------------------------------------------------ #
    # Single instance (the serial reference path)
    # ------------------------------------------------------------------ #
    def run_instance(self, instance: SuiteInstance,
                     engines: Optional[Sequence[str]] = None) -> InstanceRecord:
        """Run the configured engines (and optionally BDDs) on one instance.

        The model is built exactly once and shared by the BDD baseline and
        every engine: each :class:`~repro.core.base.UmcEngine` copies the
        AIG at construction (interpolants are materialised into the copy),
        so every engine still operates on a fresh private ``Model`` — what
        is shared here is only the immutable source circuit, and rebuilding
        it per engine was pure duplicated work.
        """
        model = instance.build()
        record = self._blank_record(instance, model)
        if self.config.run_bdds and not instance.skip_bdd:
            record.bdd = check_with_bdds(model,
                                         max_nodes=self.config.bdd_node_limit,
                                         time_limit=self.config.bdd_time_limit)
        for engine_name in engines or self.config.engines:
            tracer = _cell_tracer(self.config, instance.name, engine_name)
            try:
                result = run_engine(engine_name, model, self.config.options,
                                    tracer=tracer)
            finally:
                if tracer is not None:
                    tracer.close()
            record.engines[engine_name] = EngineRecord.from_result(result)
        self._check_record(record)
        return record

    def _blank_record(self, instance: SuiteInstance, model) -> InstanceRecord:
        return InstanceRecord(
            name=instance.name,
            category=instance.category,
            expected=instance.expected,
            num_inputs=model.num_inputs,
            num_latches=model.num_latches,
        )

    def _check_record(self, record: InstanceRecord) -> None:
        if not record.verdict_consistent():
            raise RuntimeError(
                f"verdict mismatch on {record.name}: expected {record.expected}, "
                f"got { {e: r.verdict for e, r in record.engines.items()} } "
                f"(bdd={record.bdd.status if record.bdd else 'n/a'})")

    # ------------------------------------------------------------------ #
    # Batches
    # ------------------------------------------------------------------ #
    def run_suite(self, instances: Optional[Iterable[SuiteInstance]] = None,
                  progress: Optional[ProgressCallback] = None,
                  jobs: Optional[int] = None) -> List[InstanceRecord]:
        """Run the whole suite; returns one record per instance.

        ``jobs`` overrides ``config.jobs`` for this call (``None`` defers
        to the config; 0 means all cores).  ``jobs=1`` is the serial
        reference loop; anything else fans the cells out over a worker
        pool and merges deterministically (identical records modulo
        measured times).  The ``progress`` callback fires once per instance
        in suite order in both modes; under a pool it reports the
        instance's *aggregate* cell time (the cells ran concurrently, so
        there is no meaningful per-instance wall-clock to report).
        """
        instances = list(instances) if instances is not None else full_suite()
        effective_jobs = self.config.jobs if jobs is None else jobs
        _log.info("suite run: %d instances x %d engines (jobs=%s)",
                  len(instances), len(self.config.engines), effective_jobs)
        if effective_jobs == 1:
            records: List[InstanceRecord] = []
            for instance in instances:
                started = time.monotonic()
                record = self.run_instance(instance)
                records.append(record)
                _log.info("instance %s done (%.2fs)", instance.name,
                          time.monotonic() - started)
                if progress is not None:
                    progress(instance.name, time.monotonic() - started, record)
        else:
            records = self._run_suite_pooled(instances, progress,
                                             effective_jobs)
        self._merge_suite_events(instances)
        return records

    def _merge_suite_events(self, instances: List[SuiteInstance]) -> None:
        """Merge per-cell event files into ``suite.jsonl``, suite order.

        Concatenation order is suite × engines — never worker completion
        order — so the merged stream at ``--jobs N`` is identical to the
        ``--jobs 1`` one.  Missing cell files (BDD cells, or engines that
        crashed before their first event) are skipped.
        """
        events_dir = self.config.events_dir
        if events_dir is None:
            return
        from ..obs.sinks import merge_segments

        paths = [_cell_events_path(events_dir, instance.name, engine_name)
                 for instance in instances
                 for engine_name in self.config.engines]
        merged = merge_segments(paths, os.path.join(events_dir, "suite.jsonl"))
        _log.info("merged %d trace events into %s", merged,
                  os.path.join(events_dir, "suite.jsonl"))

    def _run_suite_pooled(self, instances: List[SuiteInstance],
                          progress: Optional[ProgressCallback],
                          jobs: Optional[int]) -> List[InstanceRecord]:
        """Fan engine × instance cells over a pool; merge in suite order."""
        for instance in instances:
            # Workers rebuild models from the registry; fail fast (and
            # helpfully) on ad-hoc instances rather than inside the pool.
            # The registry returns fresh SuiteInstance objects, so the match
            # is by name plus the spec fields that drive the run.
            try:
                registered = get_instance(instance.name)
            except KeyError:
                registered = None
            if registered is None or (
                    registered.expected, registered.category,
                    registered.skip_bdd) != (
                    instance.expected, instance.category, instance.skip_bdd):
                raise ValueError(
                    f"parallel runs require registry suite instances "
                    f"(workers rebuild models by name); {instance.name!r} "
                    f"is not from circuits.suite — use jobs=1 for it")
        specs = []
        for instance in instances:
            if self.config.run_bdds and not instance.skip_bdd:
                specs.append((instance.name, _BDD_CELL, self.config))
            for engine_name in self.config.engines:
                specs.append((instance.name, engine_name, self.config))
        cell_results = parallel_map(_run_cell, specs, jobs=jobs)

        records: List[InstanceRecord] = []
        cursor = 0
        for instance in instances:
            # instance.build() here only feeds the PI/FF metadata columns;
            # the synthetic generators build in microseconds, so the extra
            # parent-side construction is noise next to one engine cell.
            record = self._blank_record(instance, instance.build())
            if self.config.run_bdds and not instance.skip_bdd:
                bdd = cell_results[cursor]
                assert isinstance(bdd, BddVerdict)
                record.bdd = bdd
                cursor += 1
            for engine_name in self.config.engines:
                engine_record = cell_results[cursor]
                assert isinstance(engine_record, EngineRecord)
                record.engines[engine_name] = engine_record
                cursor += 1
            self._check_record(record)
            records.append(record)
            if progress is not None:
                elapsed = sum(r.time_seconds for r in record.engines.values())
                if record.bdd is not None:
                    elapsed += record.bdd.time_forward + record.bdd.time_backward
                progress(instance.name, elapsed, record)
        return records

