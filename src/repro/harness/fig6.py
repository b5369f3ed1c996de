"""Fig. 6: sorted per-engine runtime curves over the whole suite.

The paper plots, for each of the four engines, the CPU time of every
instance sorted in ascending order (independently per engine, so the curves
are monotonic).  Instances an engine fails to solve within the budget are
plotted at the time limit, which is what produces the flat plateau at the
top of the figure.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..circuits.suite import SuiteInstance, full_suite
from .records import InstanceRecord
from .render import ascii_curves, drop_time_columns, format_csv, format_table
from .runner import ExperimentRunner, HarnessConfig
from .table1 import TABLE1_ENGINES

__all__ = ["fig6_series", "fig6_clause_series", "fig6_summary", "render_fig6",
           "run_fig6"]


def fig6_series(records: Iterable[InstanceRecord],
                engines: Sequence[str] = TABLE1_ENGINES,
                time_limit: Optional[float] = None) -> Dict[str, List[float]]:
    """Per-engine sorted runtimes (unsolved instances count at the limit)."""
    records = list(records)
    series: Dict[str, List[float]] = {}
    for engine in engines:
        times: List[float] = []
        for record in records:
            engine_record = record.engine_record(engine)
            if engine_record is None:
                continue
            if engine_record.solved:
                times.append(engine_record.time_seconds)
            else:
                times.append(time_limit if time_limit is not None
                             else engine_record.time_seconds)
        series[engine] = sorted(times)
    return series


def fig6_clause_series(records: Iterable[InstanceRecord],
                       engines: Sequence[str] = TABLE1_ENGINES) -> Dict[str, List[int]]:
    """Per-engine sorted clause-addition totals — the deterministic Fig. 6.

    Same presentation as the runtime curves (each engine sorted
    independently), but over the cumulative clause counter instead of the
    wall clock, so the curve is identical on every machine and at every
    ``jobs`` count.  Runtime and clause additions track each other closely
    on this substrate (encoding dominates), which is what makes this a
    faithful stand-in for the committed artefact.
    """
    records = list(records)
    series: Dict[str, List[int]] = {}
    for engine in engines:
        counts = [record.engine_record(engine).stats.clauses_added
                  for record in records
                  if record.engine_record(engine) is not None]
        series[engine] = sorted(counts)
    return series


def fig6_summary(records: Iterable[InstanceRecord],
                 engines: Sequence[str] = TABLE1_ENGINES) -> List[List[object]]:
    """Solved counts, aggregate times and solver work per engine.

    Besides the figure's take-away (solved counts and times) the summary
    reports the cumulative clause additions and the per-call conflict peak,
    relating runtimes to the incremental-vs-monolithic encoding effort,
    plus the total AND gates preprocessing removed across the population
    (0 on preprocessing-off runs), the nodes the SAT-sweeping pass merged,
    the cone-gate encodings the persistent fixpoint checker served from
    its cache, the clause groups it shed as superseded (0 for engines
    without containment checks or with the lifecycle off), the checks its
    witness filter answered without solving, and the fresh
    per-bound refutation solves group-aware proof logging deleted (0 for
    engines that never reuse the searcher's refutation).
    """
    records = list(records)
    rows: List[List[object]] = []
    for engine in engines:
        engine_records = [r.engine_record(engine) for r in records
                          if r.engine_record(engine) is not None]
        solved = [r for r in engine_records if r.solved]
        total_time = sum(r.time_seconds for r in engine_records)
        solved_time = sum(r.time_seconds for r in solved)
        rows.append([engine, len(engine_records), len(solved),
                     round(solved_time, 3), round(total_time, 3),
                     sum(r.stats.clauses_added for r in engine_records),
                     max((r.stats.max_call_conflicts for r in engine_records),
                         default=0),
                     sum(r.stats.pre_ands_removed for r in engine_records),
                     sum(r.stats.fraig_merges for r in engine_records),
                     sum(r.stats.fixpoint_encodings_reused for r in engine_records),
                     sum(r.stats.fixpoint_groups_shed for r in engine_records),
                     sum(r.stats.fixpoint_witness_hits for r in engine_records),
                     sum(r.stats.proof_group_solves_saved for r in engine_records)])
    return rows


def render_fig6(records: Iterable[InstanceRecord],
                engines: Sequence[str] = TABLE1_ENGINES,
                time_limit: Optional[float] = None,
                as_csv: bool = False, deterministic: bool = False) -> str:
    """Render the sorted per-engine curves plus the per-engine summary.

    The default plots runtimes (the paper's presentation).
    ``deterministic=True`` plots the clause-addition counter instead and
    strips the time columns from the summary — the committed-artefact form
    that regenerates byte-identically on any machine at any job count.
    """
    records = list(records)
    if deterministic:
        series: Dict[str, List] = fig6_clause_series(records, engines)
        value_title = "sorted clause additions"
        curve_label = "clauses added"
        heading = ("Fig. 6 (deterministic form) — clause additions per "
                   "instance, sorted independently per engine")
    else:
        series = fig6_series(records, engines, time_limit)
        value_title = "sorted runtimes [s]"
        curve_label = "time [s]"
        heading = "Fig. 6 — run time per instance, sorted independently per engine"
    longest = max((len(v) for v in series.values()), default=0)
    headers = ["rank"] + list(engines)
    rows = []
    for rank in range(longest):
        row: List[object] = [rank + 1]
        for engine in engines:
            values = series[engine]
            if rank >= len(values):
                row.append(None)
            else:
                value = values[rank]
                row.append(round(value, 3) if isinstance(value, float) else value)
        rows.append(row)
    if as_csv:
        return format_csv(headers, rows)
    summary_headers = ["engine", "instances", "solved", "time(solved)",
                       "time(total)", "clauses_added", "max_call_conflicts",
                       "pre_ands_removed", "fraig_merges",
                       "fixpoint_reused", "fixpoint_shed",
                       "witness_hits", "group_solves_saved"]
    summary_rows = fig6_summary(records, engines)
    if deterministic:
        summary_headers, summary_rows = drop_time_columns(summary_headers,
                                                          summary_rows)
    parts = [
        heading,
        ascii_curves({k: [float(v) for v in vals] for k, vals in series.items()},
                     y_label=curve_label),
        format_table(headers, rows, title=value_title),
        format_table(summary_headers, summary_rows, title="summary"),
    ]
    return "\n\n".join(parts)


def run_fig6(instances: Optional[Iterable[SuiteInstance]] = None,
             config: Optional[HarnessConfig] = None,
             progress: Optional[Callable[[str, float, InstanceRecord], None]] = None
             ) -> List[InstanceRecord]:
    """Run the Fig. 6 experiment (same batch as Table I, BDDs optional)."""
    config = config or HarnessConfig(engines=TABLE1_ENGINES, run_bdds=False)
    runner = ExperimentRunner(config)
    return runner.run_suite(instances if instances is not None else full_suite(),
                            progress=progress)
