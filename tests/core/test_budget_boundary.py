"""The deterministic SAT budgets trip exactly at their boundary.

Every SAT path of a run — the engines' own solvers and the persistent
fixpoint checker — folds its counters into one account and checks
``max_clauses`` / ``max_propagations`` after each completed call.  So a
budget equal to a solo run's final total reproduces that run, and one
unit less overflows it.
"""

import pytest

from repro.circuits import get_instance
from repro.core import EngineOptions, Verdict, run_engine

_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr")
_INSTANCES = ("ring06", "modcnt06")


def _summary(result):
    return (result.verdict.value, result.k_fp, result.j_fp,
            result.stats.clauses_added, result.stats.propagations)


@pytest.mark.parametrize("instance", _INSTANCES)
@pytest.mark.parametrize("engine", _ENGINES)
def test_counter_budgets_trip_exactly_at_the_solo_total(engine, instance):
    options = EngineOptions(max_bound=20, time_limit=None)

    def run(**budget):
        return run_engine(engine, get_instance(instance).build(),
                          options.with_changes(**budget))

    solo = run()
    assert solo.verdict is Verdict.PASS, solo.message
    clauses = solo.stats.clauses_added
    propagations = solo.stats.propagations

    assert _summary(run(max_clauses=clauses)) == _summary(solo)
    assert run(max_clauses=clauses - 1).verdict is Verdict.OVERFLOW
    assert run(max_propagations=propagations - 1).verdict is Verdict.OVERFLOW
