"""Basic functional tests for the CDCL solver."""

import pytest

from repro.cnf import Cnf
from repro.sat import (
    Budget,
    CdclSolver,
    SatResult,
    SolverError,
    brute_force_sat,
    check_proof,
    verify_model,
)


def _solve(clauses, proof_logging=False, assumptions=()):
    solver = CdclSolver(proof_logging=proof_logging)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=assumptions)
    return solver, result


def test_empty_formula_is_sat():
    solver, result = _solve([])
    assert result is SatResult.SAT
    assert solver.model() == {}


def test_single_unit_clause():
    solver, result = _solve([[1]])
    assert result is SatResult.SAT
    assert solver.model()[1] is True


def test_contradictory_units_unsat():
    _, result = _solve([[1], [-1]])
    assert result is SatResult.UNSAT


def test_empty_clause_unsat():
    _, result = _solve([[1, 2], []])
    assert result is SatResult.UNSAT


def test_simple_sat_formula():
    clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
    solver, result = _solve(clauses)
    assert result is SatResult.SAT
    model = solver.model()
    assert verify_model(Cnf(clauses), model)


def test_simple_unsat_formula():
    # (x1 v x2) & (x1 v -x2) & (-x1 v x2) & (-x1 v -x2)
    clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    _, result = _solve(clauses)
    assert result is SatResult.UNSAT


def test_pigeonhole_3_into_2_unsat():
    # Pigeon i in hole j -> var 2*i + j + 1 (i in 0..2, j in 0..1).
    def v(i, j):
        return 2 * i + j + 1

    clauses = []
    for i in range(3):
        clauses.append([v(i, 0), v(i, 1)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                clauses.append([-v(i1, j), -v(i2, j)])
    solver, result = _solve(clauses, proof_logging=True)
    assert result is SatResult.UNSAT
    check_proof(solver.proof())


def test_model_satisfies_larger_formula():
    clauses = [
        [1, 2, 3], [-1, -2], [-1, -3], [-2, -3],
        [4, 5], [-4, -5], [1, 4], [-3, 5, 6], [6, -6, 2],
    ]
    solver, result = _solve(clauses)
    assert result is SatResult.SAT
    assert verify_model(Cnf(clauses), solver.model())


def test_agrees_with_brute_force_on_unsat_chain():
    # x1, x1->x2, ..., x(n-1)->xn, -xn
    n = 8
    clauses = [[1]] + [[-i, i + 1] for i in range(1, n)] + [[-n]]
    _, result = _solve(clauses, proof_logging=True)
    expected, _ = brute_force_sat(Cnf(clauses))
    assert result is SatResult.UNSAT
    assert expected is False


def test_assumptions_sat_and_unsat():
    solver = CdclSolver()
    solver.add_clause([1, 2])
    solver.add_clause([-1, 3])
    assert solver.solve(assumptions=[1]) is SatResult.SAT
    assert solver.model_value(3) is True
    assert solver.solve(assumptions=[-3, 1]) is SatResult.UNSAT
    core = solver.conflict_assumptions()
    assert set(core) <= {-3, 1}
    assert core
    # Solver remains usable after assumption UNSAT.
    assert solver.solve() is SatResult.SAT


def test_zero_assumption_is_rejected():
    solver = CdclSolver()
    solver.add_clause([1, 2])
    assert solver.solve(assumptions=[-1]) is SatResult.SAT
    for assumptions in ([0], [-1, 0]):
        with pytest.raises(SolverError, match="0 is not a valid literal"):
            solver.solve(assumptions=assumptions)
    # The rejected calls left the solver as it was.
    assert solver.solve(assumptions=[-1]) is SatResult.SAT
    assert solver.model() == {1: False, 2: True}


def test_incremental_clause_addition():
    solver = CdclSolver()
    solver.add_clause([1, 2])
    assert solver.solve() is SatResult.SAT
    solver.add_clause([-1])
    solver.add_clause([-2])
    assert solver.solve() is SatResult.UNSAT


def test_unknown_on_tiny_conflict_budget():
    # A moderately hard random-ish formula with a 1-conflict budget.
    clauses = []
    import random
    rng = random.Random(7)
    for _ in range(120):
        clause = rng.sample(range(1, 21), 3)
        clauses.append([lit if rng.random() < 0.5 else -lit for lit in clause])
    solver = CdclSolver()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(budget=Budget(max_conflicts=1))
    assert result in (SatResult.SAT, SatResult.UNSAT, SatResult.UNKNOWN)


def test_model_requires_sat():
    solver, result = _solve([[1], [-1]])
    assert result is SatResult.UNSAT
    with pytest.raises(SolverError):
        solver.model()


def test_proof_requires_logging():
    solver, result = _solve([[1], [-1]], proof_logging=False)
    assert result is SatResult.UNSAT
    with pytest.raises(SolverError):
        solver.proof()


def test_unsat_proof_checks_out():
    clauses = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    solver, result = _solve(clauses, proof_logging=True)
    assert result is SatResult.UNSAT
    proof = solver.proof()
    assert proof.is_refutation()
    check_proof(proof)
    core = proof.core_original_clauses()
    assert len(core) >= 3


def test_partition_labels_preserved():
    solver = CdclSolver(proof_logging=True)
    solver.add_clause([1], partition=0)
    solver.add_clause([-1, 2], partition=0)
    solver.add_clause([-2], partition=1)
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    partitions = {n.partition for n in proof.original_nodes()}
    assert partitions == {0, 1}
