"""The solver's order heap against a textbook linear-scan branching oracle.

``CdclSolver`` picks its decision variable from an indexed binary heap.
The heap must pick exactly what a scan over every variable picks: the
unassigned variable of highest activity, the lowest index among equals.
The solver below checks that on every single decision, so any divergence
fails at the decision where it happens rather than as a changed answer.
"""

import random

from repro.cnf import Cnf
from repro.sat import CdclSolver, SatResult, brute_force_sat, verify_model


class ScanCheckedSolver(CdclSolver):
    """Asserts on each decision that the heap agrees with a linear scan."""

    def __init__(self, proof_logging: bool = False) -> None:
        super().__init__(proof_logging)
        self.checked_picks = 0
        self.rebuilds = 0

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
        picked = super()._pick_branch()
        assert picked == expected, (picked, expected)
        self.checked_picks += 1
        return picked

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
    """Allocate variables; each must already sit where a sift-up leaves it."""
    for _ in range(count):
        var = solver.new_var()
        heap = list(solver._heap)
        assert heap[-1] == var and solver._heap_pos[var] == len(heap) - 1
        solver._heap_sift_up(solver._heap_pos[var])
        assert solver._heap == heap


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
