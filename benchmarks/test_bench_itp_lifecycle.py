"""Benchmark: the interpolant lifecycle's counter win over the all-off run.

Two committed, CI-diff-gated artefacts, both regenerated by the push-CI
smoke:

* ``itp_lifecycle_quick.txt`` — every interpolation engine on the quick
  suite (verdicts asserted against the registry's expectations) plus the
  reduction row for the smallest genuinely interpolant-heavy ring.  The
  smoke claim asserted here: **at least 20%** fewer cumulative clause
  additions than the all-off run.
* ``itp_lifecycle_ring12.txt`` — the ring12-class cells the overhaul
  exists for.  On itpseq the persistent fixpoint checker plus trimming
  and compaction must cut cumulative clause additions **at least 2x**
  (measured: 9666 against 19474 off).  On sitpseq the gate is no-harm
  only, on <= off (measured: 48174 against 53044 off): its off baseline
  used to be inflated by irregular level-0 refutation chains that
  trimming undid, and with the solver's chains now regular there is
  little left for trimming to remove.

The "off" side is no longer run: the one-shot containment path and the
compaction toggle it needed are gone, so the off counts are the last
measured ones (:data:`_OFF_CLAUSES`).  The on side still runs here, and
every gate keeps its bound.

All rows budget on solver counters, never wall clock, so the committed
bytes regenerate identically on any machine.

Why ``token_ring(9)`` and not a registry instance for the quick row: the
win is structural — it needs enough fixpoint iterations that the
accumulated R cone dwarfs each new interpolant cone.  Nine stages is
where the one-shot path's quadratic re-encoding showed up undamped.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import get_instance, quick_suite, token_ring
from repro.core import EngineOptions, Verdict, run_engine
from repro.harness import format_table

pytestmark = pytest.mark.benchmark(group="itp_lifecycle")

_ITP_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")

#: The all-off runs (proof trimming, cone compaction and the persistent
#: fixpoint checker all off, so every containment check ran one-shot with
#: its size-gated CNF elimination), as last measured into the committed
#: artefacts before that path was removed: cumulative clause additions,
#: then the (k_fp, j_fp) of their PASS verdict.
_OFF_RUNS = {
    ("ring09(adhoc)", "itpseq"): (5997, 9, 9),
    ("indA1_ring12", "itpseq"): (19474, 12, 12),
    ("indA1_ring12", "sitpseq"): (53044, 12, 12),
}


def _run(engine, model):
    return run_engine(engine, model,
                      EngineOptions(max_bound=30, time_limit=None,
                                    max_clauses=CLAUSE_BUDGET,
                                    max_propagations=PROP_BUDGET))


def _off_clauses(instance, engine, on):
    """The all-off clause count of a cell, once ``on`` answered as it did."""
    clauses, k_fp, j_fp = _OFF_RUNS[instance, engine]
    assert (on.verdict, on.k_fp, on.j_fp) == (Verdict.PASS, k_fp, j_fp), \
        (instance, engine)
    return clauses


def _counters(on):
    return [on.stats.proof_nodes_trimmed, on.stats.itp_ands_compacted,
            on.stats.fixpoint_encodings_reused]


def test_itp_lifecycle_quick_artifact(benchmark, save_artifact):
    """The quick suite + the >=20% reduction smoke claim."""
    def measure():
        suite_rows = []
        for instance in quick_suite():
            for engine in _ITP_ENGINES:
                on = _run(engine, instance.build())
                assert on.verdict.value == instance.expected, (
                    instance.name, engine)
                suite_rows.append(
                    [instance.name, engine, on.verdict.value, on.k_fp,
                     on.j_fp, on.stats.clauses_added, "-"] + _counters(on))
        on = _run("itpseq", token_ring(9))
        reduction_row = ["ring09(adhoc)", "itpseq", on.verdict.value,
                         on.k_fp, on.j_fp, on.stats.clauses_added,
                         _off_clauses("ring09(adhoc)", "itpseq", on)
                         ] + _counters(on)
        return suite_rows, reduction_row

    suite_rows, reduction_row = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
    headers = ["instance", "engine", "verdict", "k_fp", "j_fp",
               "clauses(on)", "clauses(off)", "trimmed", "compacted",
               "fp_reused"]
    table = format_table(
        headers, suite_rows + [reduction_row],
        title="Interpolant lifecycle: the quick suite (verdicts as expected, "
              "by assertion) + the interpolant-heavy quick cell against its "
              "last measured all-off count")
    save_artifact("itp_lifecycle_quick.txt", table)

    # The smoke claim: >=20% fewer cumulative clause additions on the
    # interpolant-heavy quick cell.
    on_clauses, off_clauses = reduction_row[5], reduction_row[6]
    assert on_clauses <= 0.8 * off_clauses, (on_clauses, off_clauses)


def test_itp_lifecycle_ring12_artifact(benchmark, save_artifact):
    """The ring12-class cells: >=2x on itpseq, no harm on sitpseq."""
    def measure():
        rows = []
        for engine in ("itpseq", "sitpseq"):
            on = _run(engine, get_instance("indA1_ring12").build())
            off_clauses = _off_clauses("indA1_ring12", engine, on)
            rows.append(["indA1_ring12", engine, on.verdict.value, on.k_fp,
                         on.j_fp, on.stats.clauses_added, off_clauses,
                         f"{off_clauses / max(on.stats.clauses_added, 1):.1f}x"]
                        + _counters(on))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["instance", "engine", "verdict", "k_fp", "j_fp", "clauses(on)",
         "clauses(off)", "ratio", "trimmed", "compacted", "fp_reused"],
        rows,
        title="Interpolant lifecycle on the ring12-class cells "
              "(cumulative clause additions, deterministic; off = last "
              "measured all-off count)")
    save_artifact("itp_lifecycle_ring12.txt", table)

    for row in rows:
        on_clauses, off_clauses = row[5], row[6]
        factor = 2 if row[1] == "itpseq" else 1
        assert factor * on_clauses <= off_clauses, \
            (row[1], on_clauses, off_clauses)
