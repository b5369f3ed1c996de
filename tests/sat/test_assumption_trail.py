"""The kept assumption trail against fresh-solver oracles.

``CdclSolver`` ends a call at its last assumption level and the next call
backtracks only to the first assumption that differs, so a query can start
on levels an earlier query built — under clauses added, groups released
and variables created since.  :func:`run_stream` drives one solver through
a PDR-style stream of seeded random queries (frame groups listed top-down,
a throwaway group, then a cube) with every kind of change between calls,
and checks each answer on its own:

* SAT or UNSAT equals a fresh solver's answer on the live clauses and the
  same assumptions;
* a model satisfies the live clauses and the assumptions;
* a failed-assumption core is UNSAT on a fresh solver;
* on a proof-logged solver, an UNSAT answer under activation literals
  alone strips, through ``grouped_refutation``, to a refutation that
  ``check_proof`` accepts.

Before and after every call the trail must also be consistent: each
assigned variable on it once, with its value, at non-decreasing levels.
The failed-assumption core itself, computed by one backward trail walk,
must equal :func:`reference_analyze_final`'s reason-graph search.

The longer campaign in ``tests/fuzz/test_assumption_trail_stream.py``
reuses :func:`run_stream`.
"""

import random
from collections import Counter

import pytest

from repro.bmc.incremental import grouped_refutation
from repro.sat import Budget, CdclSolver, SatResult, check_proof


def reference_analyze_final(solver, failed_lit, assumptions):
    """The final-conflict core by a search over the reason graph: every
    reason literal is queued (duplicates included) until the search meets
    level 0 or a decision."""
    assumption_set = set(assumptions)
    conflict_set = {failed_lit} if failed_lit in assumption_set else set()
    seen = set()
    queue = [abs(failed_lit)]
    while queue:
        var = queue.pop()
        if var in seen or solver._level[var] == 0:
            continue
        seen.add(var)
        reason = solver._reason[var]
        if reason is None:
            true_lit = var if solver._assign[var] == 1 else -var
            if true_lit in assumption_set:
                conflict_set.add(true_lit)
            elif -true_lit in assumption_set:
                conflict_set.add(-true_lit)
        else:
            queue.extend(abs(other) for other in reason.lits)
    return sorted(conflict_set, key=abs)


def check_analyze_final(monkeypatch):
    """Compare every final-conflict core with the reference; returns the
    running count of compared cores."""
    analyze_final = CdclSolver._analyze_final
    compared = Counter()

    def checked(self, failed_lit, assumptions):
        want = reference_analyze_final(self, failed_lit, assumptions)
        got = analyze_final(self, failed_lit, assumptions)
        assert got == want
        compared["cores"] += 1
        return got

    monkeypatch.setattr(CdclSolver, "_analyze_final", checked)
    return compared


def _fresh_answer(clauses, assumptions):
    solver = CdclSolver()
    solver.add_cnf(clauses)
    return solver.solve(assumptions)


def _satisfied(clause, model):
    return any(model.get(abs(lit), False) == (lit > 0) for lit in clause)


class _Stream:
    """One solver plus the caller's view of its live clauses."""

    def __init__(self, rng, proof_logging):
        self.rng = rng
        self.solver = CdclSolver(proof_logging=proof_logging)
        #: The data variables; activation variables never occur in a
        #: clause body.
        self.vars = [self.solver.new_var() for _ in range(24)]
        #: Hidden assignment every ungrouped clause agrees with, so the
        #: ungrouped formula stays satisfiable and queries stay informative.
        self.planted = {var: rng.random() < 0.5 for var in self.vars}
        self.ungrouped = []
        #: Open group -> its clauses as the caller wrote them.
        self.groups = {}
        self.frames = []
        self.add_ungrouped(40)
        for _ in range(3):
            self.push_frame()

    def lit(self, var):
        return var if self.rng.random() < 0.5 else -var

    def random_clause(self, width):
        return [self.lit(var) for var in self.rng.sample(self.vars, width)]

    def add_ungrouped(self, count, units=False):
        clauses = []
        while len(clauses) < count:
            clause = self.random_clause(1 if units else self.rng.randint(2, 3))
            if _satisfied(clause, self.planted):
                clauses.append(clause)
        self.solver.add_cnf(clauses)
        self.ungrouped.extend(clauses)

    def add_grouped(self, group, count):
        clauses = [self.random_clause(self.rng.choice((1, 2, 3, 3)))
                   for _ in range(count)]
        self.solver.add_cnf(clauses, group=group)
        self.groups[group].extend(clauses)

    def open_group(self):
        group = self.solver.new_group()
        self.groups[group] = []
        return group

    def release(self, group):
        self.solver.release_group(group)
        del self.groups[group]

    def push_frame(self):
        group = self.open_group()
        self.add_grouped(group, self.rng.randint(1, 3))
        self.frames.append(group)

    def rebuild_frame(self, index):
        """Release a frame group, possibly assumed mid-prefix, and re-add a
        random part of its clauses under a new group."""
        old = self.frames[index]
        kept = [c for c in self.groups[old] if self.rng.random() < 0.5]
        self.release(old)
        group = self.open_group()
        self.solver.add_cnf(kept, group=group)
        self.groups[group].extend(kept)
        self.frames[index] = group

    def add_fresh_vars(self, count):
        clauses = []
        for _ in range(count):
            var = self.solver.new_var()
            self.planted[var] = self.rng.random() < 0.5
            # Keep the planted assignment a model of the ungrouped clauses.
            fresh = var if self.planted[var] else -var
            clauses.append([fresh, self.lit(self.rng.choice(self.vars))])
            self.vars.append(var)
        self.solver.add_cnf(clauses)
        self.ungrouped.extend(clauses)

    def live_clauses(self):
        clauses = list(self.ungrouped)
        for group, members in self.groups.items():
            clauses.extend(clause + [-group] for clause in members)
        return clauses


def _check_trail(solver):
    """The trail lists each assigned variable once, with its value in both
    halves of the literal-indexed assignment, and decision levels never
    fall along it."""
    trail = solver._trail
    assign = solver._assign
    assert len({abs(lit) for lit in trail}) == len(trail)
    variables = range(1, solver.num_vars + 1)
    assert sum(assign[var] != -1 for var in variables) == len(trail)
    assert sum(assign[-var] != -1 for var in variables) == len(trail)
    assert all(assign[lit] == 1 and assign[-lit] == 0 for lit in trail)
    levels = [solver._level[abs(lit)] for lit in trail]
    assert levels == sorted(levels)
    starts = [0] + solver._trail_lim
    assert all(levels[i] >= depth for depth, i in enumerate(starts)
               if i < len(trail))


def _check_answer(stream, result, assumptions, outcomes):
    solver = stream.solver
    live = stream.live_clauses()
    if result is SatResult.UNKNOWN:
        outcomes["unknown"] += 1
        return
    assert result is _fresh_answer(live, assumptions)
    if result is SatResult.SAT:
        outcomes["sat"] += 1
        model = solver.model()
        assert all(_satisfied(clause, model) for clause in live)
        assert all(solver.model_value(lit) for lit in assumptions)
        return
    outcomes["unsat"] += 1
    core = solver.conflict_assumptions()
    assert set(core) <= set(assumptions)
    assert _fresh_answer(live, core) is SatResult.UNSAT
    if solver.proof_logging and set(assumptions) <= set(stream.groups):
        stripped, _ = grouped_refutation(solver, assumptions)
        check_proof(stripped)
        outcomes["stripped"] += 1


def run_stream(seed, queries, proof_logging):
    """Run one seeded query stream; return how its answers came out."""
    rng = random.Random(seed)
    stream = _Stream(rng, proof_logging)
    outcomes = Counter()
    for _ in range(queries):
        roll = rng.random()
        if roll < 0.06:
            stream.add_ungrouped(rng.randint(1, 3), units=rng.random() < 0.2)
        elif roll < 0.12:
            stream.add_grouped(rng.choice(stream.frames), 1)
        elif roll < 0.20:
            stream.rebuild_frame(rng.randrange(len(stream.frames)))
        elif roll < 0.23 and len(stream.frames) < 6:
            stream.push_frame()
        elif roll < 0.26:
            stream.add_fresh_vars(rng.randint(1, 3))
        # Frames from the top down, as PDR lists them: queries at
        # different levels share the high-frame prefix.
        level = rng.randrange(len(stream.frames))
        assumptions = list(reversed(stream.frames[level:]))
        temp = None
        if rng.random() < 0.5:
            temp = stream.open_group()
            stream.add_grouped(temp, rng.randint(1, 2))
            assumptions.append(temp)
        if rng.random() < 0.6:
            assumptions += [stream.lit(var)
                            for var in rng.sample(stream.vars, 3)]
        budget = Budget(max_conflicts=1) if rng.random() < 0.05 else None
        _check_trail(stream.solver)
        result = stream.solver.solve(assumptions, budget)
        _check_trail(stream.solver)
        _check_answer(stream, result, assumptions, outcomes)
        if temp is not None:
            stream.release(temp)
    return outcomes


@pytest.mark.parametrize("proof_logging", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_query_stream_matches_fresh_solvers(seed, proof_logging, monkeypatch):
    compared = check_analyze_final(monkeypatch)
    outcomes = run_stream(seed, 150, proof_logging)
    assert outcomes["sat"] > 0 and outcomes["unsat"] > 0
    assert compared["cores"] > 0
    if proof_logging:
        assert outcomes["stripped"] > 0


def _chain_solver(length):
    """``a`` implies a chain of ``length`` literals; returns (solver, a)."""
    solver = CdclSolver()
    a = solver.new_var()
    chain = [solver.new_var() for _ in range(length)]
    solver.add_cnf([[-a, chain[0]]] + [[-x, y] for x, y in zip(chain, chain[1:])])
    return solver, a


def test_repeated_query_reuses_the_kept_levels():
    solver, a = _chain_solver(40)
    assert solver.solve([a]) is SatResult.SAT
    first = solver.last_call_stats.propagations
    assert first > 40
    assert solver.solve([a]) is SatResult.SAT
    assert solver.last_call_stats.propagations < first


def test_release_keeps_the_levels_below_the_group():
    solver, a = _chain_solver(40)
    group = solver.new_group()
    b = solver.new_var()
    solver.add_clause([b], group=group)
    assert solver.solve([a, group]) is SatResult.SAT
    solver.release_group(group)
    assert solver.model_value(b)
    # The level holding ``a`` and its chain survives the release, so the
    # next query starts on it instead of propagating the chain again.
    assert solver.solve([a, -b]) is SatResult.SAT
    assert solver.last_call_stats.propagations < 40
    assert not solver.model_value(b)
