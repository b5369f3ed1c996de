"""The solver's literal-indexed value and watch lists.

``CdclSolver._assign`` and ``_watches`` are indexed by the signed literal
through Python's negative indexing, laid out as
``[unused, 1 .. capacity, -capacity .. -1]``, and grow in place by a slice
insertion at the midpoint.  These tests pin what the layout must keep:

* growth in the middle of one ``add_cnf`` batch, or through an assumption
  on a variable that does not exist yet, leaves every list consistent and
  every alias of it valid;
* after every call of a seeded stream, ``_assign[v]`` and ``_assign[-v]``
  are complementary or both unassigned, the spare capacity is unassigned
  and unwatched, and every live watched clause sits on the watch lists of
  exactly its first two literals;
* the model snapshot covers the variables of the SAT answer only, however
  the lists grow afterwards.
"""

import random

from repro.sat import Budget, CdclSolver, SatResult


def check_layout(solver):
    """Assert the literal-indexed invariants of ``solver``."""
    assign, watches = solver._assign, solver._watches
    capacity = solver._capacity
    assert solver.num_vars <= capacity
    assert len(assign) == len(watches) == 2 * capacity + 1
    for var in range(1, solver.num_vars + 1):
        pair = (assign[var], assign[-var])
        assert pair in ((1, 0), (0, 1), (-1, -1)), (var, pair)
    for var in range(solver.num_vars + 1, capacity + 1):
        assert assign[var] == assign[-var] == -1, var
        assert not watches[var] and not watches[-var], var
    placed = {}
    for index, watch_list in enumerate(watches):
        lit = index if index <= capacity else index - len(watches)
        for rec in watch_list:
            if rec.deleted:
                continue
            assert lit in rec.lits[:2], (lit, rec.lits)
            placed.setdefault(id(rec), []).append(lit)
    for rec in solver._clauses:
        if not rec.deleted and id(rec) in placed:
            assert sorted(placed[id(rec)]) == sorted(rec.lits[:2]), rec.lits


def _fresh_answer(clauses, assumptions):
    solver = CdclSolver()
    solver.add_cnf(clauses)
    return solver.solve(assumptions)


def test_growth_in_the_middle_of_one_batch():
    solver = CdclSolver()
    solver.ensure_var(3)
    solver.add_clause([1])
    assert solver.solve([2]) is SatResult.SAT
    assign, watches, capacity = solver._assign, solver._watches, solver._capacity
    # Each clause reaches further past the capacity, so the lists grow
    # under the batch after its first clauses went in.
    far = [capacity + 1, 3 * capacity, 7 * capacity]
    batch = [[-1, 3], [-2, -3, far[0]], [-far[0], far[1]], [-far[1], -far[2]],
             [-3, far[2], far[1]], [far[2], 2]]
    solver.add_cnf(batch)
    assert solver._assign is assign and solver._watches is watches
    assert solver._capacity >= far[2] > capacity
    assert solver.num_vars == far[2]
    check_layout(solver)
    # Clauses over fresh variables only are watched on their first two
    # literals as written, in the slots the growth made.
    for clause in batch[2:4]:
        rec = next(r for r in solver._clauses if r.lits == clause)
        assert rec in watches[clause[0]] and rec in watches[clause[1]]
    assert solver.solve([2]) is SatResult.SAT
    model = solver.model()
    assert model[1] and model[3] and not model[far[2]] and model[far[1]]
    assert len(model) == far[2]
    check_layout(solver)


def test_growth_through_an_assumption_on_a_fresh_variable():
    solver = CdclSolver()
    solver.add_cnf([[1, 2], [-1, 2]])
    fresh = solver._capacity + 5
    assert solver.solve([2, -fresh]) is SatResult.SAT
    assert solver.num_vars == fresh and solver._capacity >= fresh
    check_layout(solver)
    # The call keeps its assumption levels: the fresh literal is assigned
    # in both halves, in its own polarity.
    assert solver._assign[-fresh] == 1 and solver._assign[fresh] == 0
    assert solver.model_value(-fresh) and not solver.model_value(fresh)
    assert solver.solve([fresh, -2]) is SatResult.UNSAT
    assert solver.conflict_assumptions() == [-2]
    check_layout(solver)


def test_layout_holds_after_every_call_of_a_seeded_stream():
    rng = random.Random(32)
    solver = CdclSolver(proof_logging=True)
    data = [solver.new_var() for _ in range(8)]
    #: Every ungrouped clause agrees with it, so the formula stays
    #: satisfiable and the answers depend on the assumptions.
    planted = {var: rng.random() < 0.5 for var in data}
    clauses = []            # live ungrouped clauses and release units
    groups = {}             # open group -> its clauses, activation included
    outcomes = set()

    def lit(var):
        return var if rng.random() < 0.5 else -var

    def random_clause():
        return [lit(var) for var in rng.sample(data, rng.randint(1, 3))]

    for step in range(300):
        roll = rng.random()
        if roll < 0.1:
            # Fresh data variables, five at a time past the capacity now
            # and then, each tied to an old one by a planted-true clause.
            count = rng.choice([1, 2, 5 + solver._capacity - solver.num_vars])
            fresh = [solver.num_vars + 1 + i for i in range(count)]
            batch = []
            for var in fresh:
                planted[var] = rng.random() < 0.5
                batch.append([var if planted[var] else -var,
                              lit(rng.choice(data))])
            solver.add_cnf(batch)
            clauses.extend(batch)
            data.extend(fresh)
        elif roll < 0.3:
            batch = [c for c in (random_clause() for _ in range(4))
                     if any(planted[abs(l)] == (l > 0) for l in c)]
            solver.add_cnf(batch)
            clauses.extend(batch)
        elif roll < 0.45 and groups:
            group = rng.choice(list(groups))
            batch = [random_clause() for _ in range(rng.randint(1, 3))]
            solver.add_cnf(batch, group=group)
            groups[group].extend(clause + [-group] for clause in batch)
        elif roll < 0.52 and len(groups) < 3:
            groups[solver.new_group()] = []
        elif roll < 0.6 and groups:
            group = rng.choice(list(groups))
            solver.release_group(group)
            del groups[group]
            clauses.append([-group])
        else:
            assumptions = [g for g in groups if rng.random() < 0.7]
            assumptions += [lit(var) for var in rng.sample(data, 2)]
            budget = Budget(max_conflicts=1) if rng.random() < 0.1 else None
            result = solver.solve(assumptions, budget)
            outcomes.add(result)
            live = clauses + [c for members in groups.values() for c in members]
            if result is not SatResult.UNKNOWN:
                assert result is _fresh_answer(live, assumptions), step
        check_layout(solver)
    assert SatResult.SAT in outcomes and SatResult.UNSAT in outcomes
    assert solver._capacity > 40


def test_model_reads_only_the_variables_of_the_answer():
    solver = CdclSolver()
    solver.add_cnf([[1, 2], [-1, -2], [2, 3]])
    assert solver.solve([-2]) is SatResult.SAT
    model = solver.model()
    assert model == {1: True, 2: False, 3: True}
    # Enough fresh variables to grow the lists several times, one of them
    # forced true at level 0: the snapshot keeps its three variables.
    fresh = [solver.new_var() for _ in range(5 * solver._capacity)]
    solver.add_clause([fresh[-1]])
    solver.add_clause([-fresh[0]])
    assert solver._assign[fresh[-1]] == 1 and solver._assign[-fresh[0]] == 1
    assert solver.model() == model
    for var in fresh:
        assert solver.model_value(var) is False
        assert solver.model_value(-var) is True
    assert solver.model_value(-2) is True and solver.model_value(1) is True
    check_layout(solver)
    assert solver.solve() is SatResult.SAT
    assert len(solver.model()) == solver.num_vars
    assert solver.model_value(fresh[-1]) is True
