"""The solver's order queue against a textbook linear-scan branching oracle.

``CdclSolver`` picks its decision variable from a lazy ``heapq`` queue of
``(-activity, var)`` entries.  The queue must pick exactly what a scan over
every variable picks: the unassigned variable of highest activity, the
lowest index among equals.  The solver below checks that on every single
decision, so any divergence fails at the decision where it happens rather
than as a changed answer.  It also counts the queue's lazy paths — stale
entries skipped, compactions and rescales — so the tests can show they ran.
"""

import random

import pytest

from repro.cnf import Cnf
from repro.sat import (Budget, CdclSolver, SatResult, SolverError,
                       brute_force_sat, verify_model)
from repro.sat.solver import _QUEUE_SLACK


class ScanCheckedSolver(CdclSolver):
    """Asserts on each decision that the queue agrees with a linear scan."""

    def __init__(self, proof_logging: bool = False) -> None:
        super().__init__(proof_logging)
        self.checked_picks = 0
        self.rebuilds = 0
        self.rescales = 0
        self.compactions = 0
        self.stale_skipped = 0

    def _scan_pick(self):
        best_var = None
        best_act = -1.0
        for var in range(1, self.num_vars + 1):
            if self._assign[var] == -1 and self._activity[var] > best_act:
                best_act = self._activity[var]
                best_var = var
        if best_var is None:
            return None
        return best_var if self._phase[best_var] else -best_var

    def _pick_branch(self):
        expected = self._scan_pick()
        entries, queued = len(self._heap), sum(self._queued)
        picked = super()._pick_branch()
        assert picked == expected, (picked, expected)
        self.checked_picks += 1
        # Every pop either unqueues an assigned variable or skips a stale
        # entry.
        popped = entries - len(self._heap)
        self.stale_skipped += popped - (queued - sum(self._queued))
        return picked

    def _bump_var(self, var: int) -> None:
        rebuilds, inc = self.rebuilds, self._var_inc
        super()._bump_var(var)
        if self.rebuilds > rebuilds:
            if self._var_inc != inc:
                self.rescales += 1
            else:
                self.compactions += 1

    def _heap_rebuild(self) -> None:
        self.rebuilds += 1
        super()._heap_rebuild()


def _random_3sat(rng, num_vars, num_clauses):
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(num_clauses)]


def test_heap_matches_scan_on_random_3sat():
    picks = 0
    for seed in range(12):
        rng = random.Random(seed)
        num_vars = 12 if seed < 4 else 100
        clauses = _random_3sat(rng, num_vars, int(num_vars * 4.26))
        solver = ScanCheckedSolver(proof_logging=seed % 2 == 0)
        solver.add_cnf(clauses)
        result = solver.solve()
        if num_vars <= 12:
            expected_sat, _ = brute_force_sat(Cnf(clauses))
            assert (result is SatResult.SAT) == expected_sat
        if result is SatResult.SAT:
            assert verify_model(Cnf(clauses), solver.model())
        picks += solver.checked_picks
    assert picks > 2000


def test_heap_matches_scan_across_incremental_calls():
    rng = random.Random(7)
    num_vars = 40
    solver = ScanCheckedSolver(proof_logging=True)
    solver.add_cnf(_random_3sat(rng, num_vars, 120))
    results = set()
    for _ in range(8):
        group = solver.new_group()
        for clause in _random_3sat(rng, num_vars, 30):
            solver.add_clause(clause, group=group)
        assumptions = [solver.group_literal(group)]
        assumptions += [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, num_vars + 1), 3)]
        results.add(solver.solve(assumptions=assumptions))
        solver.release_group(group)
        solver.add_clause(_random_3sat(rng, num_vars, 1)[0])
    # Later calls reuse the activities and the heap left by earlier ones.
    results.add(solver.solve())
    assert solver.checked_picks > 100
    assert SatResult.SAT in results and SatResult.UNSAT in results


def test_heap_matches_scan_through_activity_rescale():
    rng = random.Random(0)
    solver = ScanCheckedSolver()
    solver.add_cnf(_random_3sat(rng, 100, 426))
    # Start the increment next to the 1e100 limit, so the first conflicts
    # push activities over it and every activity is scaled down.
    solver._var_inc = 1e99
    solver.solve()
    assert solver.rebuilds > 0
    assert solver.checked_picks > 100


def test_rescale_triggered_by_a_lower_variable_reorders_the_heap():
    solver = ScanCheckedSolver()
    for _ in range(3):
        solver.new_var()
    solver._var_inc = 1e100
    solver._bump_var(2)
    solver._var_inc = 1e99
    solver._bump_var(1)
    # This bump carries variable 1 past 1e100 and above variable 2.
    solver._var_inc = 1e100
    solver._bump_var(1)
    assert solver.rebuilds == 1
    assert solver._pick_branch() == -1


def _new_vars_at_heap_end(solver, count):
    """Allocate variables; each must be queued with key ``(-0.0, var)``,
    appended where it already satisfies the heap order."""
    for _ in range(count):
        var = solver.new_var()
        heap = solver._heap
        assert solver._queued[var] and heap[-1] == (-0.0, var)
        assert len(heap) == 1 or heap[(len(heap) - 2) // 2] <= heap[-1]


def test_fresh_variables_between_solves_match_scan():
    rng = random.Random(3)
    solver = ScanCheckedSolver(proof_logging=True)
    solver.add_cnf(_random_3sat(rng, 60, 250))
    solver.solve()
    bumped = sum(1 for act in solver._activity[1:] if act > 0)
    assert bumped > 30
    for round_ in range(6):
        if round_ == 3:
            # Push the next bump over 1e100: every activity is scaled down.
            solver._var_inc = 1e99
        old = solver.num_vars
        _new_vars_at_heap_end(solver, 15)
        fresh = list(range(old + 1, solver.num_vars + 1))
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(fresh, 1) + rng.sample(range(1, old + 1), 2)]
                   for _ in range(40)]
        solver.add_cnf(clauses)
        solver.solve(assumptions=[v if rng.random() < 0.5 else -v
                                  for v in rng.sample(range(1, old + 1), 2)])
    assert solver.rebuilds > 0
    assert solver.checked_picks > 150


def test_pdr_style_query_stream_matches_scan():
    """Hundreds of short assumption solves on one persistent solver, with
    frame-like clause groups opened and released, fresh variables, a forced
    compaction and a forced rescale mid-stream."""
    rng = random.Random(11)
    num_vars = 50
    solver = ScanCheckedSolver()
    base = _random_3sat(rng, num_vars, 120)
    solver.add_cnf(base)
    frames = []
    results = []
    for query in range(400):
        if query % 25 == 0:
            if len(frames) == 3:
                solver.release_group(frames.pop(0))
            frames.append(solver.new_group())
            solver.add_cnf(_random_3sat(rng, num_vars, 12), group=frames[-1])
        if query % 100 == 50:
            old = solver.num_vars
            _new_vars_at_heap_end(solver, 4)
            solver.add_cnf([[var, rng.choice([-1, 1]) * rng.randint(1, old)]
                            for var in range(old + 1, solver.num_vars + 1)])
        if query == 150:
            # Enough stale entries to pass the slack: the queue compacts.
            compactions = solver.compactions
            for _ in range(_QUEUE_SLACK + 1):
                for var in range(1, solver.num_vars + 1):
                    solver._bump_var(var)
            assert solver.compactions > compactions
        if query == 250:
            # The next conflict carries an activity past 1e100.
            solver._var_inc = 1e100
        cube = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 4)]
        result = solver.solve(assumptions=frames + cube)
        if result is SatResult.SAT:
            assert verify_model(Cnf(base), solver.model())
        results.append(result)
    assert SatResult.SAT in results and SatResult.UNSAT in results
    assert solver.checked_picks > 2000
    assert solver.stale_skipped > 0
    assert solver.compactions > 0
    assert solver.rescales > 0


class ModelCapturingSolver(CdclSolver):
    """Records the per-variable model dict at the moment of a SAT answer."""

    captured = None

    def _pick_branch(self):
        lit = super()._pick_branch()
        if lit is None:
            self.captured = {var: self._assign[var] == 1
                             for var in range(1, self.num_vars + 1)}
        return lit


def test_model_snapshot_reads_like_the_per_variable_dict():
    rng = random.Random(5)
    solver = ModelCapturingSolver()
    solver.add_cnf(_random_3sat(rng, 40, 120))
    assert solver.solve() is SatResult.SAT
    model = solver.model()
    assert model == solver.captured and len(model) == 40
    assert solver.model() is not model
    for var, value in model.items():
        assert solver.model_value(var) is value
        assert solver.model_value(-var) is (not value)
    # Variables beyond the snapshot, created after the answer or not at all,
    # read as false; later level-0 assignments leave the snapshot alone.
    fresh = solver.new_var()
    solver.add_clause([fresh])
    solver.add_clause([-1] if model[1] else [1])
    assert solver.model_value(fresh) is False
    assert solver.model_value(-fresh) is True
    assert solver.model_value(fresh + 10) is False
    assert solver.model() == model


@pytest.mark.parametrize("answer", [SatResult.UNSAT, SatResult.UNKNOWN])
def test_model_accessors_raise_without_a_sat_answer(answer):
    rng = random.Random(0)
    solver = CdclSolver()
    hard = solver.new_group()
    solver.add_cnf(_random_3sat(rng, 150, 639), group=hard)
    assert solver.solve() is SatResult.SAT
    solver.model_value(1)
    if answer is SatResult.UNSAT:
        solver.add_clause([1])
        assert solver.solve(assumptions=[-1]) is SatResult.UNSAT
    else:
        assert solver.solve(assumptions=[hard],
                            budget=Budget(max_conflicts=1)) is SatResult.UNKNOWN
    for read in (solver.model, lambda: solver.model_value(1)):
        with pytest.raises(SolverError):
            read()
