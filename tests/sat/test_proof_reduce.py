"""Tests for resolution-proof post-processing (trimming + RecyclePivots)."""

import random
from collections import Counter

import pytest

from repro.cnf.cnf import Clause
from repro.sat.proof import (ProofError, ResolutionProof, _mark_recyclable,
                             check_proof, reduce_proof)
from repro.sat.solver import CdclSolver
from repro.sat.types import SatResult


def _hand_proof_with_dead_chain():
    """A refutation plus one derived clause that never feeds the root."""
    proof = ResolutionProof()
    proof.add_original(0, Clause([1, 2]), partition=1)
    proof.add_original(1, Clause([-1, 2]), partition=1)
    proof.add_original(2, Clause([-2]), partition=2)
    proof.add_original(3, Clause([1, -2]), partition=2)
    # Dead derivation: (2) from 0 x 1 on pivot 1 — never used again.
    proof.add_derived(4, Clause([2]), [(None, 0), (1, 1)])
    # Live derivation of the empty clause.
    proof.add_derived(5, Clause([2]), [(None, 0), (1, 1)])
    proof.add_derived(6, Clause([]), [(None, 5), (2, 2)])
    return proof


def test_core_trimming_drops_dead_derived_nodes():
    proof = _hand_proof_with_dead_chain()
    reduced, stats = reduce_proof(proof)
    check_proof(reduced)
    assert reduced.is_refutation()
    assert 4 not in reduced
    assert stats.nodes_before == 7
    assert stats.nodes_after == 6
    assert stats.nodes_trimmed == 1


def test_all_original_clauses_survive_with_their_partitions():
    """Variable classification needs the full (A, B) leaf sets, so even
    off-core originals stay — only the derivation DAG shrinks."""
    proof = _hand_proof_with_dead_chain()
    proof.add_original(7, Clause([5, 6]), partition=3)  # disconnected leaf
    # Re-derive the empty clause so id ordering stays valid.
    reduced, _ = reduce_proof(proof)
    assert 7 in reduced
    assert reduced.node(7).partition == 3
    assert {n.clause_id for n in reduced.original_nodes()} == {0, 1, 2, 3, 7}


def _recyclable_proof():
    """Chains 5 and 6 carry redundant steps; the root 7 consumes 6."""
    proof = ResolutionProof()
    proof.add_original(0, Clause([1, 2]), partition=1)      # a | b
    proof.add_original(1, Clause([-2, 3]), partition=1)     # !b | c
    proof.add_original(2, Clause([2, -3]), partition=2)     # b | !c
    proof.add_original(3, Clause([-1, 2]), partition=2)     # !a | b
    proof.add_original(4, Clause([-2]), partition=2)        # !b
    # (1|3): resolve 0 with 1 on pivot 2; then (1|2): resolve with 2 on
    # pivot 3 — re-introducing literal 2, which gets resolved away below.
    proof.add_derived(5, Clause([1, 2]), [(None, 0), (2, 1), (3, 2)])
    # (1): resolve with 4 on pivot 2; (2): with 3 on 1; (): with 4 on 2.
    proof.add_derived(6, Clause([1]), [(None, 5), (2, 4)])
    proof.add_derived(7, Clause([]), [(None, 6), (1, 3), (2, 4)])
    return proof


def test_recycle_pivots_drops_redundant_resolution():
    """A chain resolving on a pivot that is resolved again below loses the
    redundant upper step."""
    reduced, stats = reduce_proof(_recyclable_proof())
    check_proof(reduced)
    assert reduced.is_refutation()
    # Node 5's detour through pivot 3 (steps on clauses 1 and 2) is
    # recyclable: literal 2 is safe below (resolved away by clause 4).
    assert stats.steps_dropped >= 1
    total_steps = sum(len(n.chain) - 1 for n in reduced.derived_nodes())
    assert total_steps < 5


def _marks(proof):
    """The marking pass's ``(live, marks)`` on a refutation's core."""
    derived = [proof.node(cid) for cid in proof.core_ids()
               if proof.node(cid).chain]
    refcount = Counter(aid for node in derived for _, aid in node.chain)
    return _mark_recyclable(proof, derived, refcount)


def _shape(node):
    return node.clause.literals, [tuple(step) for step in node.chain]


def _strengthened_antecedent_proof():
    """A marked chain X that RecyclePivots strengthens, consumed by an
    unmarked chain Y, consumed by the root."""
    p, q, r, s, t = 1, 2, 3, 4, 5
    proof = ResolutionProof()
    proof.add_original(0, Clause([p, t]), partition=1)
    proof.add_original(1, Clause([-t, q]), partition=1)
    proof.add_original(2, Clause([-p, r, s]), partition=1)
    proof.add_original(3, Clause([-q, p, r]), partition=2)
    proof.add_original(4, Clause([-p]), partition=2)
    proof.add_original(5, Clause([-r]), partition=2)
    proof.add_original(6, Clause([-s]), partition=2)
    # X = (q r s); its step on p is redundant, since Y resolves p below.
    proof.add_derived(7, Clause([q, r, s]), [(None, 0), (t, 1), (p, 2)])
    # Y = (r s): (-q p r) x X on q, then x (-p) on p.
    proof.add_derived(8, Clause([r, s]), [(None, 3), (q, 7), (p, 4)])
    proof.add_derived(9, Clause([]), [(None, 8), (r, 5), (s, 6)])
    return proof


def test_an_unmarked_consumer_of_a_strengthened_chain_is_rebuilt():
    proof = _strengthened_antecedent_proof()
    live, marks = _marks(proof)
    assert set(marks) == {7} and {8, 9} <= live
    reduced, stats = reduce_proof(proof)
    check_proof(reduced)
    # X loses its redundant step and shrinks to (q p) ...
    assert _shape(reduced.node(7)) == ((1, 2), [(None, 0), (5, 1)])
    # ... so Y, unmarked, replays over it to (r) on its recorded chain ...
    assert _shape(reduced.node(8)) == ((3,), [(None, 3), (2, 7), (1, 4)])
    # ... and the root no longer needs its step on s.
    assert _shape(reduced.node(9)) == ((), [(None, 8), (3, 5)])
    assert reduced.core_ids() == [0, 1, 3, 4, 5, 7, 8, 9]
    assert (stats.steps_dropped, stats.clauses_strengthened) == (2, 2)
    assert (stats.nodes_before, stats.nodes_after) == (10, 10)


def test_an_unmarked_consumer_of_an_aliased_chain_is_rebuilt():
    # Chains 5 and 6 collapse into their start clause 0, and the unmarked
    # root consumes 6.
    proof = _recyclable_proof()
    _, marks = _marks(proof)
    assert set(marks) == {5, 6}
    reduced, stats = reduce_proof(proof)
    check_proof(reduced)
    assert _shape(reduced.node(7)) == ((), [(None, 0), (1, 3), (2, 4)])
    assert reduced.core_ids() == [0, 3, 4, 7]
    assert stats.nodes_trimmed == 2


def test_without_marks_the_reduced_proof_is_the_core():
    proof = _hand_proof_with_dead_chain()
    assert _marks(proof)[1] == {}
    reduced, stats = reduce_proof(proof)
    core = [proof.node(cid) for cid in proof.core_ids()]
    assert [(n.clause_id, _shape(n)) for n in reduced.derived_nodes()] == \
        [(n.clause_id, _shape(n)) for n in core if n.chain]
    assert reduced.core_ids() == [0, 1, 2, 5, 6]
    assert (stats.steps_dropped, stats.clauses_strengthened) == (0, 0)


def test_reduction_requires_a_refutation():
    proof = ResolutionProof()
    proof.add_original(0, Clause([1]), partition=1)
    with pytest.raises(ProofError):
        reduce_proof(proof)


def _pigeonhole_solver(holes):
    solver = CdclSolver(proof_logging=True)
    pigeons = holes + 1
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = solver.new_var()
    for p in range(pigeons):
        solver.add_clause([var[p, h] for h in range(holes)], partition=1)
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var[p1, h], -var[p2, h]], partition=2)
    return solver


@pytest.mark.parametrize("holes", [3, 4, 5])
def test_solver_refutations_reduce_and_replay(holes):
    solver = _pigeonhole_solver(holes)
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    reduced, stats = reduce_proof(proof)
    check_proof(reduced)
    assert reduced.is_refutation()
    assert stats.nodes_after <= stats.nodes_before
    # The reduced refutation never has *more* resolution steps.
    raw_steps = sum(len(n.chain) - 1 for n in proof.derived_nodes()
                    if n.clause_id in set(proof.core_ids()))
    new_steps = sum(len(n.chain) - 1 for n in reduced.derived_nodes())
    assert new_steps <= raw_steps
    # Every original keeps its partition label.
    for node in reduced.original_nodes():
        assert node.partition == proof.node(node.clause_id).partition


def test_random_unsat_instances_round_trip():
    random.seed(11)
    reduced_any = False
    unmarked = 0
    for _ in range(120):
        solver = CdclSolver(proof_logging=True)
        for _ in range(10):
            solver.new_var()
        for _ in range(70):
            lits = random.sample(range(1, 11), 3)
            solver.add_clause([l if random.random() < 0.5 else -l
                               for l in lits],
                              partition=random.randint(1, 3))
        if solver.solve() is not SatResult.UNSAT:
            continue
        proof = solver.proof()
        reduced, stats = reduce_proof(proof)
        check_proof(reduced)
        if stats.nodes_trimmed or stats.steps_dropped:
            reduced_any = True
        if not _marks(proof)[1]:
            # No mark: every core chain comes out as recorded.
            unmarked += 1
            core = [proof.node(cid) for cid in proof.core_ids()]
            assert [_shape(n) for n in reduced.derived_nodes()] == \
                [_shape(n) for n in core if n.chain]
    assert reduced_any, "reduction never fired on any random refutation"
    assert unmarked, "every random refutation had a mark"
