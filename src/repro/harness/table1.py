"""Table I: per-instance comparison of BDDs, ITP, ITPSEQ, SITPSEQ, ITPSEQCBA, PDR.

For every suite instance the table reports the circuit size (#PI, #FF), the
BDD baseline (forward/backward diameters and times, or overflow), and for
each engine the runtime together with the (k_fp, j_fp) depth pair of
Section IV-B — the columns of the paper's Table I, extended with a fifth
engine column group for the IC3/PDR engine (its k_fp is the number of
frames built, its j_fp the fixpoint frame index).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..circuits.suite import SuiteInstance, full_suite
from .records import InstanceRecord
from .render import format_csv, format_table
from .runner import ExperimentRunner, HarnessConfig

__all__ = ["TABLE1_ENGINES", "table1_headers", "table1_rows",
           "table1_deterministic_headers", "table1_deterministic_rows",
           "render_table1", "run_table1"]

TABLE1_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr")


def table1_headers(engines: Sequence[str] = TABLE1_ENGINES) -> List[str]:
    headers = ["Name", "#PI", "#FF", "d_F", "Time_F", "d_B", "Time_B"]
    for engine in engines:
        headers += [f"{engine}.Time", f"{engine}.k_fp", f"{engine}.j_fp"]
    return headers


def _engine_cells(record: InstanceRecord, engine: str) -> List[object]:
    engine_record = record.engine_record(engine)
    if engine_record is None:
        return ["-", "-", "-"]
    if not engine_record.solved:
        bound = f"({engine_record.k_fp})" if engine_record.k_fp is not None else "(-)"
        return ["ovf", bound, "-"]
    return [round(engine_record.time_seconds, 3), engine_record.k_fp,
            engine_record.j_fp]


def table1_rows(records: Iterable[InstanceRecord],
                engines: Sequence[str] = TABLE1_ENGINES) -> List[List[object]]:
    rows: List[List[object]] = []
    for record in records:
        row: List[object] = [record.name, record.num_inputs, record.num_latches]
        if record.bdd is None or record.bdd.status == "overflow":
            row += [None, "ovf", None, "ovf"]
        else:
            row += [record.bdd.d_f, round(record.bdd.time_forward, 3),
                    record.bdd.d_b, round(record.bdd.time_backward, 3)]
        for engine in engines:
            row += _engine_cells(record, engine)
        rows.append(row)
    return rows


def table1_deterministic_headers(engines: Sequence[str] = TABLE1_ENGINES) -> List[str]:
    """Headers of the machine-independent Table I variant.

    No wall-clock columns; instead each engine reports its verdict and the
    cumulative clause additions (the deterministic effort measure this repo
    judges performance by).  The overflow bound ``k_fp`` stays meaningful
    because artefact runs budget on ``max_clauses``, which trips at the
    same query everywhere.  ``preFF`` / ``preAND`` / ``preFRAIG`` report
    what the preprocessing pipeline removed from the instance before the
    engines encoded it — latches swept, AND gates dropped overall, and the
    subset of nodes the SAT-sweeping pass merged (identical for every
    engine of a row, since they share one configuration); all 0 when the
    run had preprocessing off.
    """
    headers = ["Name", "#PI", "#FF", "preFF", "preAND", "preFRAIG",
               "bdd", "d_F", "d_B"]
    for engine in engines:
        headers += [f"{engine}.verdict", f"{engine}.k_fp", f"{engine}.j_fp",
                    f"{engine}.clauses"]
    return headers


def _preprocess_cells(record: InstanceRecord) -> List[object]:
    """Latch / AND / fraig reduction of the instance (engine-independent)."""
    engine_records = list(record.engines.values())
    if not engine_records:
        return [None, None, None]
    return [max(r.stats.pre_latches_removed for r in engine_records),
            max(r.stats.pre_ands_removed for r in engine_records),
            max(r.stats.fraig_merges for r in engine_records)]


def table1_deterministic_rows(records: Iterable[InstanceRecord],
                              engines: Sequence[str] = TABLE1_ENGINES) -> List[List[object]]:
    rows: List[List[object]] = []
    for record in records:
        row: List[object] = [record.name, record.num_inputs, record.num_latches]
        row += _preprocess_cells(record)
        if record.bdd is None or record.bdd.status == "overflow":
            row += ["ovf", None, None]
        else:
            row += [record.bdd.status, record.bdd.d_f, record.bdd.d_b]
        for engine in engines:
            engine_record = record.engine_record(engine)
            if engine_record is None:
                row += ["-", None, None, None]
            elif not engine_record.solved:
                bound = (f"({engine_record.k_fp})"
                         if engine_record.k_fp is not None else "(-)")
                row += [engine_record.verdict, bound, None,
                        engine_record.stats.clauses_added]
            else:
                row += [engine_record.verdict, engine_record.k_fp,
                        engine_record.j_fp, engine_record.stats.clauses_added]
        rows.append(row)
    return rows


def render_table1(records: Iterable[InstanceRecord],
                  engines: Sequence[str] = TABLE1_ENGINES,
                  as_csv: bool = False, deterministic: bool = False) -> str:
    """Render Table I as text (or CSV).

    ``deterministic=True`` renders the machine-independent variant (the
    committed-artefact / CI-staleness-gate form: verdicts, depth pairs and
    clause counters, no wall clock — identical across machines and ``jobs``
    counts); the default keeps the paper's full layout with times.
    """
    records = list(records)
    if deterministic:
        headers = table1_deterministic_headers(engines)
        rows = table1_deterministic_rows(records, engines)
        title = ("Table I (deterministic columns) — verdicts, depth pairs, "
                 "clause additions; ovf bound in brackets")
    else:
        headers = table1_headers(engines)
        rows = table1_rows(records, engines)
        title = ("Table I — performance comparison "
                 "(times in seconds; ovf = budget exceeded)")
    if as_csv:
        return format_csv(headers, rows)
    return format_table(headers, rows, title=title)


def run_table1(instances: Optional[Iterable[SuiteInstance]] = None,
               config: Optional[HarnessConfig] = None,
               progress: Optional[Callable[[str, float, InstanceRecord], None]] = None
               ) -> List[InstanceRecord]:
    """Run the Table I experiment and return the per-instance records."""
    runner = ExperimentRunner(config or HarnessConfig(engines=TABLE1_ENGINES))
    return runner.run_suite(instances if instances is not None else full_suite(),
                            progress=progress)
