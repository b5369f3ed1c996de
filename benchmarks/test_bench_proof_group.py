"""Benchmark: group-aware proof logging — one solve per refuted bound.

One committed, CI-diff-gated artefact, ``proof_group.txt`` (regenerated
by the push-CI smoke): the quick-suite on-vs-off table for the three
sequence engines, whose per-bound refutation re-solve the overhaul
deletes (``EngineOptions.group_proof``; the itp engine shares the same
path, and CBA refutes each abstract bound on its abstract searcher).
With the toggle on, the serial steps and the parallel remainder also
solve on the searcher, seeded with their predicate; off, each solves on
a fresh suffix check.

Gates, all on solver counters (never wall clock, so the committed bytes
regenerate identically on any machine):

* on every PASS cell the **refutation solves eliminated** — saved /
  (saved + fallbacks) over the bounds the engine refuted — is at least
  30% (measured: 100%; every refuted bound's fresh solve disappears and
  the fallback path never fires on these suites);
* cumulative clause additions with group proof on are never more than 5%
  above the fresh-solver path anywhere (measured: 51–90% *below* on the
  PASS cells — the monolithic re-encode per bound and the fresh check
  per serial step are gone);
* total SAT calls never increase.

Verdicts are identical across the toggle on the whole quick suite, and
so are convergence depths except on the cells pinned to their exact on
and off pairs in ``PINNED`` (``tests/core/test_group_proof_identity.py``,
the one table for both files): with the toggle off, every serial step
solves on a fresh check instead of the searcher, and itpseq's stripped
refutations are stronger proofs, so the interpolants differ.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import quick_suite
from repro.core import EngineOptions, run_engine
from repro.harness import format_table
from tests.core.test_group_proof_identity import PINNED

pytestmark = pytest.mark.benchmark(group="proof_group")

_SEQ_ENGINES = ("itpseq", "sitpseq", "itpseqcba")

def _options(group_proof):
    return EngineOptions(max_bound=30, time_limit=None,
                         max_clauses=CLAUSE_BUDGET,
                         max_propagations=PROP_BUDGET,
                         group_proof=group_proof)


def test_proof_group_quick_artifact(benchmark, save_artifact):
    """Quick-suite identity + the refutation-solve elimination claims."""
    def measure():
        rows = []
        for instance in quick_suite():
            for engine in _SEQ_ENGINES:
                on = run_engine(engine, instance.build(), _options(True))
                off = run_engine(engine, instance.build(), _options(False))
                assert on.verdict == off.verdict, (instance.name, engine)
                depths = ((on.k_fp, on.j_fp), (off.k_fp, off.j_fp))
                pinned = PINNED.get((instance.name, engine))
                if pinned is None:
                    assert depths[0] == depths[1], (instance.name, engine)
                else:
                    assert depths == pinned, (instance.name, engine)
                assert on.verdict.value == instance.expected, (
                    instance.name, engine)
                rows.append(
                    [instance.name, engine, on.verdict.value, on.k_fp,
                     on.j_fp, on.stats.sat_calls, off.stats.sat_calls,
                     on.stats.clauses_added, off.stats.clauses_added,
                     on.stats.proof_group_solves_saved,
                     on.stats.proof_chains_stripped,
                     on.stats.proof_group_fallbacks])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["instance", "engine", "verdict", "k_fp", "j_fp", "calls(on)",
         "calls(off)", "clauses(on)", "clauses(off)", "solves_saved",
         "chains_stripped", "fallbacks"],
        rows,
        title="Group-aware proof logging: quick-suite on-vs-off "
              "(verdict equal and k/j equal or pinned by assertion; "
              "k/j of the on run; deterministic counters)")
    save_artifact("proof_group.txt", table)

    for row in rows:
        (name, engine, verdict, _k, _j, calls_on, calls_off,
         clauses_on, clauses_off, saved, _stripped, fallbacks) = row
        # SAT calls never increase; clause additions stay within +5%
        # everywhere (in practice far below the fresh path on PASS cells).
        assert calls_on <= calls_off, (name, engine)
        assert clauses_on <= 1.05 * clauses_off, (name, engine)
        if verdict == "pass":
            # Every refuted bound ate a fresh proof-logged re-solve before
            # the overhaul; >=30% of them must now be served by the
            # searcher's stripped refutation (measured: all of them).
            assert saved + fallbacks > 0, (name, engine)
            eliminated = saved / (saved + fallbacks)
            assert eliminated >= 0.30, (name, engine, eliminated)
