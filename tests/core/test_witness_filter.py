"""The fixpoint checker's witness filter: hits, misses, pool and accounting.

Before encoding anything, :meth:`FixpointChecker.implies` evaluates both
cones on its last SAT models and answers SAT when one of them satisfies
``antecedent ∧ ¬consequent``.  The hand-built sequences below pin which
checks that answers (hits) and which go to the solver (misses); the
engine test pins that a hit adds no solver work to the run's counters.
"""

from repro.aig import Aig
from repro.circuits import get_instance
from repro.core import EngineOptions, ItpSeqEngine
from repro.core.fixpoint import WITNESS_POOL, FixpointChecker
from repro.obs.events import POINT
from repro.obs.sinks import ListSink
from repro.obs.tracer import Tracer
from repro.sat.types import SatResult

SAT, UNSAT = SatResult.SAT, SatResult.UNSAT


def _check(checker, antecedent, consequent):
    """(answer, hit) of one check."""
    hits = checker.witness_hits
    result = checker.implies(antecedent, consequent)
    return result, checker.witness_hits > hits


def test_hand_built_sequence_pins_hits_and_misses():
    aig = Aig()
    x0, x1, x2, x3 = (aig.add_input(f"x{i}") for i in range(4))
    both = aig.op_and(x0, x1)
    checker = FixpointChecker(aig)
    sequence = [
        # An empty pool answers nothing.
        ((both, x0), (UNSAT, False)),
        # The first SAT answer records witness 0 (x0 = 1, x1 = 0) ...
        ((x0, x1), (SAT, False)),
        # ... which answers the same question again.
        ((x0, x1), (SAT, True)),
        # x0 ∧ x1 is false in witness 0: solved, witness 1 (x0 = x1 = 1,
        # x2 = 0) recorded, and then it answers the repeat.
        ((both, x2), (SAT, False)),
        ((both, x2), (SAT, True)),
        # Every witness has x0 = 1, so x1 ⇒ x0 holds on the pool: solved.
        ((x1, x0), (SAT, False)),
        # A contained check is never answered by the pool.
        ((both, aig.op_or(x0, x1)), (UNSAT, False)),
        # x3 was never encoded, so it reads 0 in every witness: ¬x3 ∧ ¬x3'
        # is a hit, x3 ⇒ x0 a miss.
        ((x3 ^ 1, x3), (SAT, True)),
        ((x3, x0), (SAT, False)),
    ]
    for (antecedent, consequent), expected in sequence:
        assert _check(checker, antecedent, consequent) == expected, \
            (antecedent, consequent)
    assert checker.checks == len(sequence)
    assert checker.witness_hits == 3


def test_a_hit_encodes_nothing_and_runs_no_solve():
    aig = Aig()
    x0, x1 = aig.add_input("x0"), aig.add_input("x1")
    checker = FixpointChecker(aig)
    assert checker.implies(x0, x1) is SAT
    solves = checker.solver.stats.solve_calls
    num_vars = checker.solver.num_vars
    # A fresh cone over known leaves: evaluated, but never encoded.
    wide = aig.op_and(x0, aig.op_or(x0, x1))
    assert _check(checker, wide, x1) == (SAT, True)
    assert checker.solver.stats.solve_calls == solves
    assert checker.solver.num_vars == num_vars


def test_the_oldest_witness_is_replaced_first():
    aig = Aig()
    x0, x1 = aig.add_input("x0"), aig.add_input("x1")
    ys = [aig.add_input(f"y{k}") for k in range(WITNESS_POOL)]
    checker = FixpointChecker(aig)
    assert _check(checker, x0, x1) == (SAT, False)  # witness 0: x0 = 1
    # Each y_k is a fresh leaf, so ¬x0 ∧ y_k is false on the pool and
    # its solve records a witness with x0 = 0.
    for y in ys[:-1]:
        assert _check(checker, aig.op_and(x0 ^ 1, y), y ^ 1) == (SAT, False)
    assert _check(checker, x0, x1) == (SAT, True)   # witness 0 still pooled
    assert _check(checker, aig.op_and(x0 ^ 1, ys[-1]), ys[-1] ^ 1) \
        == (SAT, False)
    # The 64th new witness took witness 0's slot: x0 is 0 in every one.
    assert _check(checker, x0, x1) == (SAT, False)


def test_a_hit_adds_no_solver_work_to_the_run():
    model = get_instance("ring04").build()
    sink = ListSink()
    engine = ItpSeqEngine(model, EngineOptions(preprocess=False),
                          tracer=Tracer(sink))
    first, second = (latch.lit() for latch in engine.model.latches[:2])
    stats = engine.stats
    solver_counters = ("sat_calls", "sat_time", "clauses_added",
                       "propagations", "conflicts")

    assert engine._implies(first, second) is False     # a miss: solved
    assert stats.sat_calls == 1 and stats.clauses_added > 0
    assert stats.fixpoint_witness_hits == 0
    before = {name: getattr(stats, name) for name in solver_counters}

    assert engine._implies(first, second) is False     # a hit
    assert {name: getattr(stats, name) for name in solver_counters} == before
    assert stats.fixpoint_witness_hits == 1
    assert stats.containment_checks == 2
    hits = [event for event in sink.events
            if event.kind == POINT and event.name == "witness_hit"]
    assert len(hits) == 1

    # A contained check still goes to the solver and is accounted.
    assert engine._implies(engine.aig.op_and(first, second), first) is True
    assert stats.sat_calls == 2 and stats.fixpoint_witness_hits == 1
