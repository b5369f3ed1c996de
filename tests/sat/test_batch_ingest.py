"""Batch clause ingest against one clause at a time.

``CdclSolver.add_cnf`` is the solver's one ingest loop and ``add_clause``
a batch of one, so feeding a clause list to ``add_cnf`` must leave a fresh
solver in exactly the state that adding the same clauses one by one
leaves: the same clause records (literal order included), watch lists,
level-0 trail, proof originals and counters, and then the same search.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CdclSolver, SatResult, SolverError

NUM_VARS = 6

literal = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
# Short clauses over few variables: duplicates, complementary pairs, units,
# empty clauses and clauses that earlier units make unit or conflicting.
clause = st.lists(literal, min_size=0, max_size=5)


def _snapshot(solver):
    state = {
        "num_vars": solver.num_vars,
        "records": [(rec.cid, list(rec.lits), rec.learned, rec.deleted)
                    for rec in solver._clauses],
        "watches": [[rec.cid for rec in watch] for watch in solver._watches],
        "trail": list(solver._trail),
        "ok": solver._ok,
        "heap": (list(solver._heap), list(solver._queued)),
        "groups": {g: [rec.cid for rec in recs]
                   for g, recs in solver._groups.items()},
        "clauses_added": solver.stats.clauses_added,
    }
    if solver._proof is not None:
        state["proof"] = [(node.clause_id, node.clause.literals,
                           node.partition, node.group, list(node.chain))
                          for node in solver._proof.nodes_in_order()]
    return state


def _pair(proof_logging, grouped):
    solvers = [CdclSolver(proof_logging=proof_logging) for _ in range(2)]
    group = None
    for solver in solvers:
        solver.ensure_var(NUM_VARS)
        if grouped:
            group = solver.new_group()
    return solvers, group


@settings(max_examples=300, deadline=None)
@given(clauses=st.lists(clause, min_size=1, max_size=14),
       partition=st.sampled_from([None, 1, 3]),
       proof_logging=st.booleans(),
       grouped=st.booleans())
def test_batch_equals_one_by_one(clauses, partition, proof_logging, grouped):
    (batch, single), group = _pair(proof_logging, grouped)
    cids = batch.add_cnf(clauses, partition, group)
    singles = [single.add_clause(c, partition, group) for c in clauses]
    assert cids == singles
    assert _snapshot(batch) == _snapshot(single)

    assumptions = [group] if group is not None else []
    results = [solver.solve(assumptions) for solver in (batch, single)]
    assert results[0] is results[1]
    assert batch.stats == single.stats
    if results[0] is SatResult.SAT:
        assert batch.model() == single.model()
    elif proof_logging:
        assert batch.last_refutation_root() == single.last_refutation_root()
    assert _snapshot(batch) == _snapshot(single)


def test_batch_copies_the_callers_lists():
    solver = CdclSolver()
    lits = [3, 1, 2]
    solver.add_cnf([lits, lits])
    solver.add_clause([-3])
    assert lits == [3, 1, 2]
    assert solver.solve() is SatResult.SAT


@pytest.mark.parametrize("proof_logging", [False, True])
def test_rejected_clause_keeps_the_clauses_before_it(proof_logging):
    clauses = [[1, 2], [-1], [3, 0, 4], [5, 6]]
    (batch, single), _ = _pair(proof_logging, grouped=False)
    with pytest.raises(SolverError):
        batch.add_cnf(clauses, partition=2)
    for c in clauses[:2]:
        single.add_clause(c, partition=2)
    assert _snapshot(batch) == _snapshot(single)
    assert batch.stats.clauses_added == 2


def test_batch_rejects_a_released_group():
    solver = CdclSolver()
    group = solver.new_group()
    solver.release_group(group)
    with pytest.raises(SolverError):
        solver.add_cnf([[1, 2]], group=group)
    assert solver.stats.clauses_added == 1      # the release's unit only
