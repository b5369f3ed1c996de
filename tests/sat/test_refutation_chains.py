"""Shape of the solver's final-conflict chains.

Both the level-0 refutation and the UNSAT-under-assumptions chain resolve
the most recently assigned literal first, so every trail variable is a
pivot at most once.
"""

import pytest

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
