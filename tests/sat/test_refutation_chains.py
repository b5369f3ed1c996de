"""Shape of the solver's recorded chains.

Both the level-0 refutation and the UNSAT-under-assumptions chain resolve
the most recently assigned literal first, so every trail variable is a
pivot at most once.

Every derived clause the solver records is the *exact* resolvent of its
chain, each step resolving a pivot that occurs with opposite signs in the
intermediate clause and the antecedent.  :func:`repro.sat.proof.reduce_proof`
keeps an unmarked chain as recorded on that ground, so the property is
pinned here on plain and grouped solver streams, stronger than
:func:`check_proof`'s subset rule.
"""

import random

import pytest

from repro.circuits import get_instance
from repro.bmc.incremental import IncrementalUnroller
from repro.sat import CdclSolver, SatResult, check_proof


def _diamond_ladder(rungs: int) -> CdclSolver:
    """Level-0 implications that reconverge at every rung.

    ``x_i`` implies ``a_i`` and ``b_i``, which together imply ``x_{i+1}``;
    ``x_0`` is asserted and ``x_rungs`` refuted, so the conflict is found at
    decision level 0.  Resolving ``a_i`` and ``b_i`` both reintroduce
    ``x_i``: a walk that is not latest-first resolves it twice.
    """
    solver = CdclSolver(proof_logging=True)

    def x(i: int) -> int:
        return 3 * i + 1

    solver.add_clause([x(0)])
    for i in range(rungs):
        a, b = 3 * i + 2, 3 * i + 3
        solver.add_clause([-x(i), a])
        solver.add_clause([-x(i), b])
        solver.add_clause([-a, -b, x(i + 1)])
    solver.add_clause([-x(rungs)])
    return solver


@pytest.mark.parametrize("rungs", [3, 6, 10])
def test_level0_refutation_is_regular(rungs):
    solver = _diamond_ladder(rungs)
    assert solver.solve() is SatResult.UNSAT
    proof = solver.proof()
    root = proof.node(proof.empty_clause_id)
    pivots = [pivot for pivot, _ in root.chain[1:]]
    assert len(pivots) == len(set(pivots))
    assert len(pivots) <= len(solver._trail)
    # Every assigned variable feeds the conflict, so each is resolved once.
    assert len(pivots) == 3 * rungs + 1
    check_proof(proof)


def test_assumption_refutation_chain_is_pinned():
    solver = CdclSolver(proof_logging=True)
    for clause in ([-1, 2], [-1, 5], [-2, -5, 3], [-3, -4]):
        solver.add_clause(clause)
    assert solver.solve([1, 4]) is SatResult.UNSAT
    assert solver.conflict_assumptions() == [1, 4]
    root = solver.last_refutation_root()
    node = solver.proof().node(root)
    assert node.clause.literals == (-1, -4)
    assert node.chain == [(None, 3), (3, 2), (5, 1), (2, 0)]
    check_proof(solver.proof(), require_refutation=False)


# --------------------------------------------------------------------- #
# Every recorded clause is its chain's exact resolvent
# --------------------------------------------------------------------- #
def _assert_exact_resolvents(proof) -> int:
    """Replay every derived node step by step, requiring opposite signs at
    every pivot, and compare the result with the recorded clause as a set;
    return how many nodes were checked."""
    derived = proof.derived_nodes()
    for node in derived:
        current = set(proof.node(node.chain[0][1]).clause.literals)
        for pivot, antecedent_id in node.chain[1:]:
            antecedent = set(proof.node(antecedent_id).clause.literals)
            lit = pivot if pivot in antecedent else -pivot
            assert lit in antecedent and -lit not in antecedent, node
            assert -lit in current and lit not in current, node
            current.discard(-lit)
            current |= antecedent - {lit}
        assert current == set(node.clause.literals), node
    return len(derived)


class _Kinds:
    """Tally of the derived nodes of a stream, by kind."""

    def __init__(self):
        self.level0 = self.assumption = 0

    def refuted(self, solver):
        root = solver.proof().node(solver.last_refutation_root())
        if len(root.clause):
            self.assumption += 1
        else:
            self.level0 += 1

    def check(self, solver):
        derived = _assert_exact_resolvents(solver.proof())
        learned = derived - self.level0 - self.assumption
        assert learned > 0 and self.level0 > 0 and self.assumption > 0
        check_proof(solver.proof())


def _pigeonhole(solver, holes, group=None):
    var = {(p, h): solver.new_var()
           for p in range(holes + 1) for h in range(holes)}
    for p in range(holes + 1):
        solver.add_clause([var[p, h] for h in range(holes)], group=group)
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                solver.add_clause([-var[p1, h], -var[p2, h]], group=group)


def test_plain_stream_records_exact_resolvents():
    kinds = _Kinds()
    solver = CdclSolver(proof_logging=True)
    for clause in ([-1, 2], [-1, 5], [-2, -5, 3], [-3, -4]):
        solver.add_clause(clause)
    assert solver.solve([1, 4]) is SatResult.UNSAT
    kinds.refuted(solver)
    _pigeonhole(solver, 4)
    assert solver.solve() is SatResult.UNSAT
    kinds.refuted(solver)
    kinds.check(solver)
    ladder = _diamond_ladder(6)
    assert ladder.solve() is SatResult.UNSAT
    assert _assert_exact_resolvents(ladder.proof()) == 1


@pytest.mark.parametrize("seed", [3, 17])
def test_grouped_stream_records_exact_resolvents(seed):
    # Random grouped 3-SAT solved under changing group sets, groups
    # released as it goes, then a permanent pigeonhole refuted at level 0.
    rng = random.Random(seed)
    kinds = _Kinds()
    solver = CdclSolver(proof_logging=True)
    variables = [solver.new_var() for _ in range(8)]
    groups = []
    for _ in range(8):
        group = solver.new_group()
        groups.append(group)
        for _ in range(20):
            lits = rng.sample(variables, 3)
            solver.add_clause([l if rng.random() < 0.5 else -l
                               for l in lits], group=group)
        active = [g for g in groups if rng.random() < 0.7] or [group]
        if solver.solve(active) is SatResult.UNSAT:
            kinds.refuted(solver)
        if len(groups) > 4 and rng.random() < 0.5:
            solver.release_group(groups.pop(0))
    _pigeonhole(solver, 4)
    assert solver.solve() is SatResult.UNSAT
    kinds.refuted(solver)
    kinds.check(solver)


def test_unrolled_searcher_records_exact_resolvents():
    # The engines' grouped stream: one proof-logged unrolling, deepened.
    searcher = IncrementalUnroller(get_instance("ring04").build(),
                                   proof_logging=True)
    refuted = 0
    for depth in range(1, 7):
        searcher.extend_to(depth)
        if searcher.solve() is SatResult.UNSAT:
            refuted += 1
            root = searcher.solver.last_refutation_root()
            assert len(searcher.solver.proof().node(root).clause)
    assert refuted >= 3
    assert _assert_exact_resolvents(searcher.solver.proof()) > refuted
