"""Every witness-filter hit is a real counterexample to the containment.

The fixpoint checker answers a containment check "not contained" without
solving when one of its pooled SAT models satisfies ``antecedent ∧
¬consequent``.  Over the quick suite and a stream of fuzz circuits, every
such hit is re-evaluated here by :func:`repro.aig.simulate.simulate_comb`
(the library's simulator, not the filter's own cone evaluator) on the
pooled leaf words, and the one-shot :func:`repro.core.implies` on a fresh
solver must also answer "not contained".
"""

import pytest

from repro.aig.simulate import lit_value, simulate_comb
from repro.circuits import fuzz_instance, quick_suite
from repro.core import EngineOptions, implies, run_engine
from repro.core.fixpoint import WITNESS_POOL, FixpointChecker

ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")
FUZZ_SEEDS = range(60)


def _pool_refutes(checker, antecedent, consequent):
    """Whether a pooled witness satisfies antecedent ∧ ¬consequent, by
    simulating the whole AIG on the pool's leaf words."""
    aig = checker.aig
    width = min(checker._recorded, WITNESS_POOL)
    words = checker._leaf_words
    values = simulate_comb(
        aig, {var: words.get(var, 0) for var in aig.input_vars()},
        {var: words.get(var, 0) for var in aig.latch_vars()}, width=width)
    return bool(lit_value(values, antecedent, width)
                & ~lit_value(values, consequent, width))


def _run_with_oracle(engine_name, instance, monkeypatch):
    checker_implies = FixpointChecker.implies
    hits = []

    def implies_with_oracle(self, antecedent, consequent, budget=None):
        hits_before = self.witness_hits
        refuted = self._recorded and _pool_refutes(self, antecedent,
                                                   consequent)
        result = checker_implies(self, antecedent, consequent, budget=budget)
        if self.witness_hits > hits_before:
            assert refuted, (antecedent, consequent)
            assert not implies(self.aig, antecedent, consequent), \
                (antecedent, consequent)
            hits.append((antecedent, consequent))
        else:
            # The filter missed exactly when no pooled witness refutes.
            assert not refuted, (antecedent, consequent)
        return result

    monkeypatch.setattr(FixpointChecker, "implies", implies_with_oracle)
    result = run_engine(engine_name, instance.build(),
                        EngineOptions(max_bound=20, time_limit=120.0))
    assert result.verdict.value == instance.expected
    assert result.stats.fixpoint_witness_hits == len(hits)
    return len(hits)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_quick_suite_hits_are_counterexamples(engine_name, monkeypatch):
    hits = sum(_run_with_oracle(engine_name, instance, monkeypatch)
               for instance in quick_suite())
    assert hits > 0


@pytest.mark.parametrize("engine_name", ENGINES)
def test_fuzz_stream_hits_are_counterexamples(engine_name, monkeypatch):
    hits = sum(_run_with_oracle(engine_name, fuzz_instance(seed), monkeypatch)
               for seed in FUZZ_SEEDS)
    assert hits > 0
