"""Benchmark: the interpolant lifecycle's counter win, and its identity.

Two committed, CI-diff-gated artefacts:

* ``itp_lifecycle_quick.txt`` (regenerated by the push-CI smoke) — the
  quick-suite identity table (verdict and (k_fp, j_fp) bit-identical with
  the lifecycle on vs. off, for every interpolation engine) plus the
  reduction row for the smallest genuinely interpolant-heavy ring.  The
  smoke claim asserted here: **at least 20%** fewer cumulative clause
  additions with the lifecycle on.
* ``itp_lifecycle_ring12.txt`` — the ring12-class cells the overhaul
  exists for.  Without the lifecycle every containment check re-encodes
  the whole accumulated reachable-set cone (past the 20k-gate CNF
  elimination cut-off it streams raw).  On itpseq the persistent
  fixpoint checker plus trimming and compaction must cut cumulative
  clause additions **at least 2x** (measured: 9666 on vs 19474 off).
  On sitpseq the gate is no-harm only, on <= off (measured: 48174 on
  vs 53044 off): its off baseline used to be inflated by irregular
  level-0 refutation chains that trimming undid, and with the solver's
  chains now regular there is little left for trimming to remove.

All rows budget on solver counters, never wall clock, so the committed
bytes regenerate identically on any machine.

Why ``token_ring(9)`` and not a registry instance for the quick row: the
win is structural — it needs enough fixpoint iterations that the
accumulated R cone dwarfs each new interpolant cone, and on the smaller
registry rings the one-shot path's CNF elimination still keeps the
*counter* low (while losing the wall clock; that trade is the
``max_clause_count`` size gate).  Nine stages is where the R cones cross
the gate and the quadratic re-encoding shows up undamped.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import get_instance, quick_suite, token_ring
from repro.core import EngineOptions, run_engine
from repro.harness import format_table

pytestmark = pytest.mark.benchmark(group="itp_lifecycle")

_ITP_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")

_ON = dict(proof_reduce=True, itp_compact=True, fixpoint_incremental=True)
_OFF = dict(proof_reduce=False, itp_compact=False, fixpoint_incremental=False)


def _options(toggles):
    return EngineOptions(max_bound=30, time_limit=None,
                         max_clauses=CLAUSE_BUDGET,
                         max_propagations=PROP_BUDGET, **toggles)


def _pair(engine, build):
    on = run_engine(engine, build(), _options(_ON))
    off = run_engine(engine, build(), _options(_OFF))
    return on, off


def test_itp_lifecycle_quick_artifact(benchmark, save_artifact):
    """Identity on the quick suite + the >=20% reduction smoke claim."""
    def measure():
        identity_rows = []
        for instance in quick_suite():
            for engine in _ITP_ENGINES:
                on, off = _pair(engine, instance.build)
                assert (on.verdict, on.k_fp, on.j_fp) == \
                    (off.verdict, off.k_fp, off.j_fp), (instance.name, engine)
                assert on.verdict.value == instance.expected, (
                    instance.name, engine)
                identity_rows.append(
                    [instance.name, engine, on.verdict.value, on.k_fp,
                     on.j_fp, on.stats.clauses_added, off.stats.clauses_added,
                     on.stats.proof_nodes_trimmed,
                     on.stats.itp_ands_compacted,
                     on.stats.fixpoint_encodings_reused])
        on, off = _pair("itpseq", lambda: token_ring(9))
        assert (on.verdict, on.k_fp, on.j_fp) == \
            (off.verdict, off.k_fp, off.j_fp)
        reduction_row = ["ring09(adhoc)", "itpseq", on.verdict.value,
                         on.k_fp, on.j_fp, on.stats.clauses_added,
                         off.stats.clauses_added,
                         on.stats.proof_nodes_trimmed,
                         on.stats.itp_ands_compacted,
                         on.stats.fixpoint_encodings_reused]
        return identity_rows, reduction_row

    identity_rows, reduction_row = benchmark.pedantic(measure, rounds=1,
                                                      iterations=1)
    headers = ["instance", "engine", "verdict", "k_fp", "j_fp",
               "clauses(on)", "clauses(off)", "trimmed", "compacted",
               "fp_reused"]
    table = format_table(
        headers, identity_rows + [reduction_row],
        title="Interpolant lifecycle: quick-suite identity (verdict/k/j "
              "equal by assertion) + the interpolant-heavy quick cell")
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
            on, off = _pair(engine,
                            lambda: get_instance("indA1_ring12").build())
            assert (on.verdict, on.k_fp, on.j_fp) == \
                (off.verdict, off.k_fp, off.j_fp), engine
            rows.append(["indA1_ring12", engine, on.verdict.value, on.k_fp,
                         on.j_fp, on.stats.clauses_added,
                         off.stats.clauses_added,
                         f"{off.stats.clauses_added / max(on.stats.clauses_added, 1):.1f}x",
                         on.stats.proof_nodes_trimmed,
                         on.stats.itp_ands_compacted,
                         on.stats.fixpoint_encodings_reused])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["instance", "engine", "verdict", "k_fp", "j_fp", "clauses(on)",
         "clauses(off)", "ratio", "trimmed", "compacted", "fp_reused"],
        rows,
        title="Interpolant lifecycle on the ring12-class cells "
              "(cumulative clause additions, deterministic)")
    save_artifact("itp_lifecycle_ring12.txt", table)

    for row in rows:
        on_clauses, off_clauses = row[5], row[6]
        factor = 2 if row[1] == "itpseq" else 1
        assert factor * on_clauses <= off_clauses, \
            (row[1], on_clauses, off_clauses)
