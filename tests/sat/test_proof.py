"""Tests for resolution-proof recording and the independent checker."""

import pytest

from repro.cnf import Clause
from repro.sat import (
    CdclSolver,
    ProofError,
    ResolutionProof,
    SatResult,
    check_proof,
)


def test_manual_proof_construction_and_check():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]), partition=1)
    proof.add_original(1, Clause([-1, 2]), partition=1)
    proof.add_original(2, Clause([-2]), partition=2)
    proof.add_derived(3, Clause([2]), [(None, 0), (1, 1)])
    proof.add_derived(4, Clause([]), [(None, 3), (2, 2)])
    assert proof.is_refutation()
    check_proof(proof)
    assert proof.partitions() == {1, 2}
    assert len(proof.core_ids()) == 5
    assert [n.clause_id for n in proof.core_original_clauses()] == [0, 1, 2]
    stats = proof.stats()
    assert stats["original"] == 3 and stats["derived"] == 2


def test_core_excludes_unused_clauses():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]))
    proof.add_original(1, Clause([-1]))
    proof.add_original(2, Clause([5, 6]))          # never used
    proof.add_derived(3, Clause([]), [(None, 0), (1, 1)])
    core = set(proof.core_ids())
    assert 2 not in core
    assert core == {0, 1, 3}


def test_duplicate_ids_rejected():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]))
    with pytest.raises(ProofError):
        proof.add_original(0, Clause([2]))
    with pytest.raises(ProofError):
        proof.add_derived(0, Clause([]), [(None, 0)])


def test_derived_clause_chain_validation():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]))
    with pytest.raises(ProofError):
        proof.add_derived(1, Clause([]), [])
    with pytest.raises(ProofError):
        proof.add_derived(1, Clause([]), [(5, 0)])          # first entry has a pivot
    with pytest.raises(ProofError):
        proof.add_derived(1, Clause([]), [(None, 7)])       # unknown antecedent
    with pytest.raises(ProofError):
        proof.add_derived(1, Clause([]), [(None, 2)])       # antecedent id too large


def test_check_proof_detects_wrong_resolution():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1, 2]))
    proof.add_original(1, Clause([-1, 3]))
    # Recorded clause is stronger than the real resolvent {2, 3}.
    proof.add_derived(2, Clause([2]), [(None, 0), (1, 1)])
    with pytest.raises(ProofError):
        check_proof(proof, require_refutation=False)


def test_check_proof_requires_refutation_flag():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1, 2]))
    proof.add_original(1, Clause([-1, 3]))
    proof.add_derived(2, Clause([2, 3]), [(None, 0), (1, 1)])
    check_proof(proof, require_refutation=False)
    with pytest.raises(ProofError):
        check_proof(proof, require_refutation=True)


def test_core_ids_requires_refutation():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]))
    with pytest.raises(ProofError):
        proof.core_ids()


@pytest.mark.parametrize("clauses", [
    [[1, 2], [1, -2], [-1, 2], [-1, -2]],
    [[1], [-1, 2], [-2, 3], [-3]],
    [[1, 2, 3], [-1, 2], [-2, 3], [-3, 1], [-1, -2, -3], [1, -2], [2, -3], [3, -1]],
])
def test_solver_proofs_check_out_on_unsat_families(clauses):
    solver = CdclSolver(proof_logging=True)
    for index, clause in enumerate(clauses):
        solver.add_clause(clause, partition=index % 3)
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    check_proof(proof)
    # Core original clauses are a subset of the input.
    inputs = {Clause(c).literals for c in clauses}
    for node in proof.core_original_clauses():
        assert node.clause.literals in inputs


def test_solver_proof_on_pigeonhole_4_into_3():
    def var(i, j):
        return 3 * i + j + 1

    solver = CdclSolver(proof_logging=True)
    for i in range(4):
        solver.add_clause([var(i, j) for j in range(3)])
    for j in range(3):
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                solver.add_clause([-var(i1, j), -var(i2, j)])
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    check_proof(proof)
    assert len(proof.derived_nodes()) >= 1
    assert proof.stats()["core"] <= len(proof)


def test_add_clause_records_the_normalised_proof_clause():
    solver = CdclSolver(proof_logging=True)
    group = solver.new_group()
    cases = [
        ([3, -1, 3, 2, -1], None),   # duplicate literals
        ([4, -2, 2, 4], None),       # tautology
        ([-5], None),                # unit
        ([6, -7, 6], group),         # grouped: -group is appended
        ([], None),                  # the empty clause
    ]
    ids = [solver.add_clause(lits, group=grp) for lits, grp in cases]
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    for cid, (lits, grp) in zip(ids, cases):
        expected = Clause(lits + ([-grp] if grp is not None else []))
        node = proof.node(cid)
        assert node.clause == expected
        assert node.clause.literals == expected.literals
        assert node.clause.is_tautology == expected.is_tautology
        assert node.group == grp
        assert node.is_original
        assert node.antecedents == []
    assert proof.node(ids[1]).clause.literals == (2, -2, 4)
    assert proof.node(ids[1]).clause.is_tautology
    derived = proof.node(proof.empty_clause_id)
    assert not derived.is_original
    assert derived.antecedents == [ids[-1]]
