"""Benchmark: the preprocessing pipeline's reduction, and verdict identity.

Two artefacts/claims:

* ``preprocess_reduction.txt`` (committed, CI-diff-gated) — for the
  redundant-logic family plus representative standard instances, the
  per-pass latch/gate account of the pipeline and the end-to-end effect on
  the deterministic engine counters (ITPSEQ clause additions with
  preprocessing on vs off).  The acceptance claim is asserted here: on
  every redundant-family instance the pipeline removes **at least 30%** of
  the clause additions.
* the *identity* smoke (runs in the push CI): the full quick suite under
  every engine produces the same verdicts (and failure depths) with
  preprocessing on and off — preprocessing changes what a run costs, never
  what it answers.

Both budget on solver counters, never wall clock, so the committed bytes
regenerate identically on any machine at any ``--jobs`` fan-out.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import get_instance, quick_suite, redundant_suite
from repro.core import EngineOptions, run_engine
from repro.harness import ExperimentRunner, HarnessConfig, format_table
from repro.preprocess import build_pipeline

pytestmark = pytest.mark.benchmark(group="preprocess")

#: The redundant family (the scenario preprocessing exists for) plus
#: standard instances across the suite's regimes for context.
REDUCTION_CASES = [inst.name for inst in redundant_suite()] + [
    "ctrldp-proxy", "parity05", "ring06", "mutex"]

_OPTIONS = dict(max_bound=25, time_limit=None, max_clauses=CLAUSE_BUDGET,
                max_propagations=PROP_BUDGET)


def _reduction_case(name):
    if name == "ctrldp-proxy":
        # indF1_ctrldp08 under its table alias; the wide-datapath regime.
        return get_instance("indF1_ctrldp08")
    return get_instance(name)


def _pass_account(model):
    result = build_pipeline().run(model)
    per_pass = ", ".join(
        f"{s.name}:-{s.latches_removed}FF/-{s.ands_removed}AND"
        for s in result.passes if s.latches_removed or s.ands_removed)
    return result, per_pass or "-"


def test_preprocess_reduction_artifact(benchmark, save_artifact):
    def measure():
        rows = []
        for case in REDUCTION_CASES:
            instance = _reduction_case(case)
            model = instance.build()
            pipeline_result, per_pass = _pass_account(model)
            on = run_engine("itpseq", instance.build(),
                            EngineOptions(preprocess=True, **_OPTIONS))
            off = run_engine("itpseq", instance.build(),
                             EngineOptions(preprocess=False, **_OPTIONS))
            assert on.verdict.value == off.verdict.value == instance.expected, (
                instance.name, on.verdict, off.verdict)
            saved = 1 - on.stats.clauses_added / max(off.stats.clauses_added, 1)
            rows.append([instance.name, model.num_latches,
                         pipeline_result.model.num_latches,
                         model.aig.num_ands,
                         pipeline_result.model.aig.num_ands,
                         off.stats.clauses_added, on.stats.clauses_added,
                         f"{100 * saved:.0f}%", per_pass])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["instance", "FF", "FF'", "AND", "AND'", "itpseq clauses (raw)",
         "itpseq clauses (pre)", "saved", "per-pass"],
        rows,
        title="Preprocessing pipeline reduction (ITPSEQ clause additions, "
              "deterministic)")
    save_artifact("preprocess_reduction.txt", table)

    redundant_names = {inst.name for inst in redundant_suite()}
    for row in rows:
        name, raw, pre = row[0], row[5], row[6]
        if name in redundant_names:
            assert pre <= 0.7 * raw, (name, raw, pre)


def test_preprocess_identity_on_quick_suite(benchmark, save_artifact, jobs):
    """Every engine, full quick suite: preprocessing changes no answer."""
    def run_both():
        records = {}
        for preprocess in (True, False):
            config = HarnessConfig(
                options=EngineOptions(preprocess=preprocess, **_OPTIONS),
                run_bdds=False)
            records[preprocess] = ExperimentRunner(config).run_suite(
                quick_suite(), jobs=jobs)
        return records

    records = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for with_pre, without_pre in zip(records[True], records[False]):
        assert with_pre.name == without_pre.name
        for engine, on_record in with_pre.engines.items():
            off_record = without_pre.engines[engine]
            assert on_record.verdict == off_record.verdict, (
                with_pre.name, engine, on_record.verdict, off_record.verdict)
            if on_record.verdict == "fail":
                assert on_record.k_fp == off_record.k_fp, (with_pre.name, engine)
            rows.append([with_pre.name, engine, on_record.verdict,
                         on_record.k_fp, off_record.k_fp,
                         on_record.stats.clauses_added,
                         off_record.stats.clauses_added])
    save_artifact("preprocess_identity_quick.txt", format_table(
        ["instance", "engine", "verdict", "k(pre)", "k(raw)",
         "clauses(pre)", "clauses(raw)"],
        rows, title="Preprocessing identity: quick suite, all engines "
                    "(verdicts equal by assertion)"))
