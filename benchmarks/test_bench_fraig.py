"""Benchmark: what SAT sweeping buys, instance by instance.

One committed, CI-diff-gated artefact, ``fraig_reduction.txt``: for the
redundant-logic family plus representative standard instances, the fraig
pass's own account (candidate classes, SAT confirmations, merges) and the
end-to-end effect on the deterministic ITPSEQ clause-addition counter with
the pass in vs. out of the default pipeline (everything else identical).

Two acceptance claims are asserted here:

* on ``red_dup10`` — three duplicated matchers too wide for the rewriter's
  flattening window, the instance the pass exists for — fraiging removes
  **at least 25%** of the clause additions (originally >= 40%, measured
  when every bound paid a monolithic proof-logged re-encode; group-aware
  proof logging deleted that re-solve, so a large share of fraig's former
  savings no longer exists to be saved — the measured reduction on the
  remaining encoding work is ~34%);
* on *no* instance does enabling fraig cost more than **5%** extra clause
  additions (the sweep is allowed to be useless, never harmful).

Budgets are solver counters, never wall clock, so the committed bytes
regenerate identically on any machine and at any ``--jobs`` fan-out.

A second, untracked table (``timing/preprocess_passes.txt``) times each
default-pipeline pass per model and lists the fraig stage's SAT refutes
and the pairs its counterexamples answered by resimulation.
"""

import time

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import fuzz_instance, get_instance, redundant_suite
from repro.core import EngineOptions, run_engine
from repro.harness import format_table
from repro.preprocess import (DEFAULT_PASSES, FraigPass, build_pipeline,
                              find_equivalences)

pytestmark = pytest.mark.benchmark(group="fraig")

#: The redundant family (the scenario fraiging exists for) plus standard
#: instances where it finds little or nothing — the no-regression row set.
CASES = [inst.name for inst in redundant_suite()] + [
    "ring06", "mutex", "parity05", "queue02"]

_NO_FRAIG = tuple(name for name in DEFAULT_PASSES if name != "fraig")

_OPTIONS = dict(max_bound=25, time_limit=None, max_clauses=CLAUSE_BUDGET,
                max_propagations=PROP_BUDGET)


def test_fraig_reduction_artifact(benchmark, save_artifact):
    def measure():
        rows = []
        for case in CASES:
            instance = get_instance(case)
            model = instance.build()
            # The pass's own account, on the raw model (no other passes).
            swept = FraigPass().apply(model)
            extra = swept.stats.extra
            on = run_engine("itpseq", instance.build(),
                            EngineOptions(**_OPTIONS))
            off = run_engine("itpseq", instance.build(),
                             EngineOptions(preprocess_passes=_NO_FRAIG,
                                           **_OPTIONS))
            assert on.verdict.value == off.verdict.value == instance.expected, (
                instance.name, on.verdict, off.verdict)
            saved = 1 - on.stats.clauses_added / max(off.stats.clauses_added, 1)
            rows.append([instance.name, model.aig.num_ands,
                         swept.model.aig.num_ands, extra["fraig_classes"],
                         extra["fraig_sat_confirms"], extra["fraig_merges"],
                         off.stats.clauses_added, on.stats.clauses_added,
                         f"{100 * saved:.0f}%"])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["instance", "AND", "AND'", "classes", "confirms", "merges",
         "itpseq clauses (no fraig)", "itpseq clauses (fraig)", "saved"],
        rows,
        title="SAT sweeping (fraig): standalone merge account and ITPSEQ "
              "clause additions with the pass in vs. out of the pipeline "
              "(deterministic)")
    save_artifact("fraig_reduction.txt", table)

    by_name = {row[0]: row for row in rows}
    # The headline claim: the wide duplicated matchers only fraig can merge.
    dup10 = by_name["red_dup10"]
    assert dup10[7] <= 0.75 * dup10[6], (dup10[6], dup10[7])
    assert dup10[5] >= 6                       # all three copies collapse
    # The no-harm claim: nowhere does the sweep cost >5% extra clauses.
    for name, row in by_name.items():
        no_fraig, with_fraig = row[6], row[7]
        assert with_fraig <= 1.05 * no_fraig, (name, no_fraig, with_fraig)


#: The timing table adds the deep itp_deep circuits and a few fuzz models.
TIMED_CASES = CASES + ["indA1_ring12", "indB1_arb08", "modcnt12", "traffic2"]
TIMED_FUZZ_SEEDS = range(5)
#: Each pass time is the fastest of this many pipeline runs.
TIMING_REPEATS = 3


def _timed_pipeline(build):
    """Per-pass milliseconds (fastest of the repeats), and the model the
    fraig pass receives."""
    best = None
    fraig_input = None
    for _ in range(TIMING_REPEATS):
        current = build()
        times = []
        for stage in build_pipeline().passes:
            if stage.name == "fraig":
                fraig_input = current
            started = time.perf_counter()
            current = stage.apply(current).model
            times.append(1000 * (time.perf_counter() - started))
        best = times if best is None else [min(a, b)
                                           for a, b in zip(best, times)]
    return best, fraig_input


def test_preprocess_pass_timing(save_timing):
    builds = ([(name, get_instance(name).build) for name in TIMED_CASES]
              + [(f"fuzz_s{seed}", fuzz_instance(seed).build)
                 for seed in TIMED_FUZZ_SEEDS])
    rows = []
    for name, build in builds:
        times, fraig_input = _timed_pipeline(build)
        found = find_equivalences(fraig_input)
        rows.append([name] + [f"{ms:.2f}" for ms in times]
                    + [f"{sum(times):.2f}", found.sat_refutes,
                       found.resim_answered])
    headers = (["instance"] + [f"{name} ms" for name in DEFAULT_PASSES]
               + ["total ms", "fraig SAT refutes", "resimulated pairs"])
    save_timing("preprocess_passes.txt", format_table(
        headers, rows,
        title="Default preprocessing pipeline: per-pass wall clock "
              f"(fastest of {TIMING_REPEATS} runs) and the fraig stage's "
              "SAT refutes and resimulation-answered pairs"))
