"""PDR cube lifting checked against SAT and a scalar greedy reference.

:meth:`FrameSequence.lift_bad` and :meth:`FrameSequence.lift_predecessor`
shrink a witness state by lane-parallel ternary simulation.  Every cube
they return during a PDR run is checked here twice:

* a fresh :class:`CdclSolver` must prove the lift sound — cube ∧ inputs ∧
  ¬bad is UNSAT for a bad cube, and cube ∧ inputs ∧ T ∧ ¬successor′ is
  UNSAT for a predecessor cube;
* the cube must equal the sequential greedy lift of a scalar 0/1/X
  evaluator (one latch at a time, in sorted latch order), which the lane
  kernel's candidate lanes and combined check must reproduce exactly.

``tests/fuzz/test_lifting_stream.py`` runs the same oracles over the quick
suite and a stream of fuzz circuits.
"""

import pytest

from repro.aig import Aig, Model
from repro.bmc.unroll import Unroller
from repro.circuits import get_instance
from repro.core import EngineOptions, PdrEngine, Verdict, run_engine
from repro.obs.sinks import ListSink
from repro.obs.tracer import Tracer
from repro.pdr import FrameSequence
from repro.sat import CdclSolver
from repro.sat.types import SatResult


def _ternary_lit(aig, assignment, lit):
    """Scalar 0/1/X value (``None`` = X) of ``lit``; unassigned leaves are X."""
    values = {0: False}
    values.update(assignment)
    for var, gate in aig.gate_table().items():
        left = _signed(values.get(gate.left >> 1), gate.left)
        right = _signed(values.get(gate.right >> 1), gate.right)
        if left is False or right is False:
            values[var] = False
        elif left is None or right is None:
            values[var] = None
        else:
            values[var] = True
    return _signed(values.get(lit >> 1), lit)


def _signed(value, lit):
    if value is None or not lit & 1:
        return value
    return not value


def _targets(model, successor):
    """The literals a lift must keep at a known 1."""
    if successor is None:
        return [model.bad_literal]
    next_lit = {latch.var: latch.next for latch in model.latches}
    return [next_lit[var] ^ (not value) for var, value in successor.items()]


def reference_lift(model, state, inputs, successor=None):
    """Free one latch at a time, in sorted order, while the targets hold."""
    targets = _targets(model, successor)
    kept = dict(state)
    for var in sorted(state):
        trial = {**inputs, **kept}
        del trial[var]
        if all(_ternary_lit(model.aig, trial, lit) is True
               for lit in targets):
            del kept[var]
    return kept


def sat_forces(model, cube, inputs, successor=None):
    """Whether a fresh solver proves every state of ``cube`` hits the target."""
    solver = CdclSolver(proof_logging=False)
    unroller = Unroller(model, solver)
    assumptions = []
    for var, value in cube.items():
        lit = unroller.latch_cnf_var(0, var)
        assumptions.append(lit if value else -lit)
    for var, value in inputs.items():
        lit = unroller.input_cnf_var(0, var)
        assumptions.append(lit if value else -lit)
    if successor is None:
        assumptions.append(-unroller.bad_literal(0, partition=None))
    else:
        unroller.add_transition(0, partition=None, include_constraints=False)
        clause = []
        for var, value in successor.items():
            lit = unroller.latch_cnf_var(1, var)
            clause.append(-lit if value else lit)
        solver.add_clause(clause)
    return solver.solve(assumptions=assumptions) is SatResult.UNSAT


def run_with_lift_oracle(model, monkeypatch, options=None):
    """Run PDR with every lift checked; return ``(result, lifts)``."""
    lift_bad = FrameSequence.lift_bad
    lift_predecessor = FrameSequence.lift_predecessor
    lifts = {"bad": 0, "pred": 0, "dropped": 0}

    def check(frames, state, inputs, successor, lifted):
        assert lifted.items() <= state.items()
        assert sat_forces(frames.model, lifted, inputs, successor), \
            (state, inputs, successor, lifted)
        # Invariant constraints switch lifting off: the cube is the state.
        expected = (state if frames.model.constraints else
                    reference_lift(frames.model, state, inputs, successor))
        assert lifted == expected
        lifts["pred" if successor else "bad"] += 1
        lifts["dropped"] += len(state) - len(lifted)

    def checked_bad(self, state, inputs):
        lifted = lift_bad(self, state, inputs)
        check(self, state, inputs, None, lifted)
        return lifted

    def checked_predecessor(self, state, inputs, successor):
        lifted = lift_predecessor(self, state, inputs, successor)
        check(self, state, inputs, successor, lifted)
        return lifted

    monkeypatch.setattr(FrameSequence, "lift_bad", checked_bad)
    monkeypatch.setattr(FrameSequence, "lift_predecessor",
                        checked_predecessor)
    result = run_engine("pdr", model, options or EngineOptions(max_bound=40))
    monkeypatch.undo()
    return result, lifts


@pytest.mark.parametrize("name,predecessors,drops", [
    # The ring and arbiter proofs block every bad cube at its own level,
    # so only modcnt12 and the cnt08 counterexample lift predecessors;
    # their counters' bad and next-state literals read every latch.
    ("ring06", False, True), ("arb05", False, True),
    ("indB1_arb08", False, True), ("modcnt12", True, False),
    ("cnt08", True, False),
])
def test_lifted_cubes_are_sound_and_greedy(name, predecessors, drops,
                                           monkeypatch):
    instance = get_instance(name)
    result, lifts = run_with_lift_oracle(instance.build(), monkeypatch)
    assert result.verdict.value == instance.expected
    assert lifts["bad"] > 0
    assert (lifts["pred"] > 0) is predecessors
    assert (lifts["dropped"] > 0) is drops


def _redundant_or():
    # bad = a | b and next(c) = a | b: with a = b = 1 either latch alone
    # may go to X, but not both, so the combined check fails and the
    # greedy pass keeps b.
    aig = Aig("redundant_or")
    a = aig.add_latch(init=0, name="a")
    b = aig.add_latch(init=0, name="b")
    c = aig.add_latch(init=0, name="c")
    either = aig.op_or(a, b)
    aig.set_latch_next(a, a)
    aig.set_latch_next(b, b)
    aig.set_latch_next(c, either)
    aig.add_bad(either)
    return Model(aig), a >> 1, b >> 1, c >> 1


def test_failed_combined_check_falls_back_to_greedy():
    model, a, b, c = _redundant_or()
    frames = FrameSequence(model)
    state = {a: True, b: True, c: False}
    assert frames.lift_bad(state, {}) == {b: True}
    assert frames.lift_predecessor(state, {}, {c: True}) == {b: True}
    for successor in (None, {c: True}):
        assert reference_lift(model, state, {}, successor) == {b: True}
        assert sat_forces(model, {b: True}, {}, successor)
        assert not sat_forces(model, {}, {}, successor)


def test_lifting_runs_no_sat_query(monkeypatch):
    # Every SAT call of a run is a bad-state, relative-induction or push
    # query; lifting simulates instead.
    lifting = []
    lifted = []
    solve = CdclSolver.solve

    def guarded_solve(self, *args, **kwargs):
        assert not lifting, "a lift called the SAT solver"
        return solve(self, *args, **kwargs)

    def guarded(lift):
        def wrapper(*args):
            lifting.append(lift)
            try:
                return lift(*args)
            finally:
                lifting.pop()
                lifted.append(lift)
        return wrapper

    monkeypatch.setattr(CdclSolver, "solve", guarded_solve)
    for name in ("lift_bad", "lift_predecessor"):
        monkeypatch.setattr(FrameSequence, name,
                            guarded(getattr(FrameSequence, name)))
    engine = PdrEngine(get_instance("cnt08").build(),
                       EngineOptions(max_bound=40))
    assert engine.run().verdict is Verdict.FAIL
    assert len(set(lifted)) == 2


def test_traced_run_emits_one_lift_point_per_lift(monkeypatch):
    model = get_instance("arb05").build
    _, lifts = run_with_lift_oracle(model(), monkeypatch)
    sink = ListSink()
    traced = run_engine("pdr", model(), EngineOptions(max_bound=40),
                        tracer=Tracer(sink))
    plain = run_engine("pdr", model(), EngineOptions(max_bound=40))
    points = [event.attrs for event in sink.events
              if event.kind == "point" and event.name == "lift"]
    assert sum(1 for attrs in points if attrs["kind"] == "bad") == lifts["bad"]
    assert sum(1 for attrs in points
               if attrs["kind"] == "pred") == lifts["pred"]
    assert all(0 <= attrs["kept"] <= attrs["latches"] for attrs in points)
    assert (sum(attrs["latches"] - attrs["kept"] for attrs in points)
            == lifts["dropped"])
    stats = traced.stats.as_dict()
    plain_stats = plain.stats.as_dict()
    stats.pop("sat_time")
    plain_stats.pop("sat_time")
    assert ((traced.verdict, traced.k_fp, traced.j_fp, stats)
            == (plain.verdict, plain.k_fp, plain.j_fp, plain_stats))
