"""Every containment answer the engines use agrees with the one-shot oracle.

The interpolation engines decide every fixpoint containment check on one
persistent :class:`~repro.core.fixpoint.FixpointChecker` per run (cached
encodings, clause groups, shedding).  Here each of those queries is also
decided by the plain one-shot :func:`repro.core.implies` on the same AIG,
a fresh solver per query, and the two answers must agree.
"""

import pytest

from repro.circuits import quick_suite
from repro.core import EngineOptions, implies, run_engine
from repro.core.fixpoint import FixpointChecker
from repro.sat.types import SatResult


@pytest.mark.parametrize("instance", quick_suite(), ids=lambda i: i.name)
@pytest.mark.parametrize("engine_name", ("itp", "itpseq", "sitpseq",
                                         "itpseqcba"))
def test_fixpoint_checker_agrees_with_one_shot_implies(engine_name, instance,
                                                       monkeypatch):
    checker_implies = FixpointChecker.implies
    answers = []

    def implies_against_oracle(self, antecedent, consequent, budget=None):
        result = checker_implies(self, antecedent, consequent, budget=budget)
        assert result is not SatResult.UNKNOWN
        holds = result is SatResult.UNSAT
        assert holds == implies(self.aig, antecedent, consequent), \
            (antecedent, consequent)
        answers.append(holds)
        return result

    monkeypatch.setattr(FixpointChecker, "implies", implies_against_oracle)
    result = run_engine(engine_name, instance.build(),
                        EngineOptions(max_bound=20, time_limit=120.0))
    assert result.verdict.value == instance.expected
    # Every PASS ends on a containment that holds.
    if instance.expected == "pass":
        assert answers and answers[-1]
