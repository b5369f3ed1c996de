"""The incremental counterexample search against the fresh-solver reference.

Every interpolation engine answers "is there a counterexample at bound k?"
on one persistent incremental searcher; there is no other path.  Its
answers are checked here against the independent fresh-solver BMC
(``BmcEngine(incremental=False)``, a new monolithic solver per depth):

* on a failing model the engine reports the reference's shortest depth,
  with a trace that replays on the model;
* on a passing model the reference finds no counterexample up to the
  bound at which the engine closed its fixpoint.
"""

import pytest

from repro.bmc.engine import BmcEngine
from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine

MAX_BOUND = 12

CASES = [
    ("ring04", "pass"),
    ("mutexbug", "fail"),
    ("cnt08", "fail"),
    ("modcnt06", "pass"),
]


@pytest.mark.parametrize("engine", ["itp", "itpseq", "sitpseq", "itpseqcba"])
@pytest.mark.parametrize("name,expected", CASES)
def test_incremental_search_agrees_with_fresh_solver_reference(engine, name,
                                                               expected):
    instance = get_instance(name)
    result = run_engine(engine, instance.build(),
                        EngineOptions(max_bound=MAX_BOUND))
    assert result.verdict.value == expected, result.message
    if expected == "fail":
        reference = BmcEngine(instance.build(),
                              incremental=False).run(max_depth=MAX_BOUND)
        assert reference.status == "fail"
        assert result.k_fp == reference.depth == instance.expected_depth
        assert result.trace is not None
        assert result.trace.check(instance.build())
    else:
        reference = BmcEngine(instance.build(),
                              incremental=False).run(max_depth=result.k_fp)
        assert reference.status == "no_cex"
        assert reference.checked_depth == result.k_fp
