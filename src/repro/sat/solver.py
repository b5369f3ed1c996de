"""A proof-logging CDCL SAT solver.

This is the substrate the whole reproduction rests on: ``pysat`` does not
expose resolution proofs or interpolants, so the solver is written from
scratch.  It implements the standard modern CDCL loop:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with clause learning;
* VSIDS-style variable activities with exponential decay, an order heap
  and phase saving;
* Luby restarts;
* learned-clause database reduction driven by clause activities;
* solving under assumptions (MiniSAT-style) for incremental queries;
* a first-class *incremental* interface: clauses may be added between
  :meth:`~CdclSolver.solve` calls (watches are chosen against the current
  assignment on the fly), learned clauses, VSIDS activities, saved phases
  and the assumption levels all survive across calls, activation-literal
  clause groups
  (:meth:`~CdclSolver.new_group` / :meth:`~CdclSolver.release_group`) allow
  retractable constraints, and every call leaves a per-call
  :class:`~repro.sat.types.SolverStats` snapshot in
  :attr:`~CdclSolver.last_call_stats`;
* optional *resolution proof recording* (:class:`~repro.sat.proof.ResolutionProof`),
  the feature interpolation requires — and it composes with clause groups:
  grouped clauses are recorded with their activation literal, partition
  label and group tag, an UNSAT answer under assumptions records a
  *final-conflict chain* resolving down to a clause of negated assumption
  literals (:meth:`~CdclSolver.last_refutation_root`), and
  :func:`repro.sat.proof.strip_activations` then removes the active
  groups' literals to yield a genuine refutation of the caller's formula.
  Chains that depend on a *released* group cannot be repaired and raise
  :class:`~repro.sat.proof.ActivationDependencyError` — callers fall back
  to a fresh monolithic solve (see :mod:`repro.core.base`).

Every input clause goes through one ingest loop, :meth:`~CdclSolver.add_cnf`
(:meth:`~CdclSolver.add_clause` is a batch of one): the per-batch checks and
lookups are paid once, and each clause is deduplicated, checked for
tautology, proof-recorded and watched against the current assignment in
order, so a batch leaves exactly the state its clauses would leave one by
one.  The Tseitin encoder hands the solver one cone per batch.

Decisions come from an *order queue*: a :mod:`heapq` list of
``(-activity, var)`` entries and a per-variable *queued* flag.  Tuples order
on higher activity, then on the lower index, so the top entry of a queued
variable names the variable a linear scan over all variables would pick —
the unassigned one of highest activity, the lowest index among equals — and
the queue only makes a decision cheaper, never different.  Entries are lazy.
A bump of a queued variable pushes a fresh entry; the old one is stale, but
activities only grow between rebuilds, so it surfaces after the fresh one.
An assigned variable stays queued until its entry surfaces, when it is
popped and unqueued, and from then on every entry of the variable that
surfaces is dropped; backtracking re-queues, with a fresh entry, every
unqueued variable it unassigns.  A fresh variable is appended as
``(-0.0, var)`` (its activity 0 and its index, the highest, put it below
every other entry).  The 1e-100 activity rescale rebuilds the queue with one
``heapify`` over the queued variables, and so does a bump that leaves more
than :data:`_QUEUE_SLACK` entries per variable, which bounds the stale ones.

The assumption trail is kept across calls (cf. Hickey and Bacchus,
"Speeding Up Assumption-Based SAT", SAT 2019).  Decision level ``i`` of the
first ``len(assumptions)`` levels holds assumption ``i - 1``, so a call
ends by backtracking to its last assumption level instead of level 0 and
remembers the assumption list; the next call backtracks only to the longest
common prefix of that list and its own assumptions and extends from there.
The kept levels stay propagation-complete under these rules:

* *Adding clauses.*  A clause with two literals that are not false under
  the kept trail is watched on them without a backtrack: it can neither
  propagate nor conflict at any kept level.  Any other clause — a unit, the
  empty clause, or one with fewer than two non-false literals — first
  backtracks to level 0 and is handled against the level-0 assignment.
* *Releasing a group* ``g``.  If ``g`` is assigned above level 0, the solver
  backtracks to just below its level, so no kept literal rests on the
  group's clauses.  The unit ``-g`` is then put on level 0, inserted below
  the kept levels.  That is sound because no clause ever contains ``+g`` —
  the provenance invariant :func:`~repro.sat.proof.strip_activations`
  relies on — so ``-g`` implies nothing.  The unit is counted, given a
  clause id and proof-recorded like any other input clause.
* *Entry and restarts.*  A conflict while propagating pending literals at
  the start of a call backtracks to level 0 and propagates again; a
  conflict at level 0 is a root conflict as before.  Restarts backtrack to
  level 0.

Trails, and hence decisions, propagations, conflicts and learned clauses,
therefore depend on the order of the assumption lists: callers that issue
many queries list their stable assumptions first (see
:mod:`repro.pdr.frames`).  The committed benchmark counters and the pins in
``tests/sat/test_trajectory_pin.py`` record the trajectory, so a kernel
change that moves it has to say so.

Values and watch lists are indexed by the signed literal itself (the
MiniSat layout of Eén and Sörensson, SAT 2003), through Python's negative
indexing.  ``_assign[lit]`` is 1 when ``lit`` is true, 0 when it is false
and -1 when its variable is unassigned, so ``_assign[v]`` is variable
``v``'s value and ``_assign[-v]`` its complement; every assignment and
unassignment writes both halves.  ``_watches[lit]`` lists the clauses
watching ``lit``.  The two lists are laid out as
``[unused, 1 .. capacity, -capacity .. -1]``: capacity grows *in place*
(slice insertion at the midpoint, by a quarter), so local aliases of the
lists stay valid when a batch of clauses allocates variables; a spare
watch slot holds an empty tuple until its variable is created.  The one
hazard of the layout is aliasing: a negative literal past the capacity
indexes into the positive half without an error, so every entry point
that receives literals ensures their variables first (:meth:`add_cnf` and
:meth:`solve` do).  Everything else — levels, reasons, activities, phases —
stays indexed by variable.

Performance note: a pure-Python CDCL is roughly two to three orders of
magnitude slower than MiniSAT.  The engines therefore run on down-scaled
benchmark instances; the *relative* behaviour of the verification
algorithms, which is what the paper studies, is preserved.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cnf.cnf import Clause
from .proof import ResolutionProof
from .types import Budget, BudgetExceeded, SatResult, SolverStats

__all__ = ["CdclSolver", "SolverError"]

_UNASSIGNED = -1
#: The order queue is rebuilt when it holds more than this many entries per
#: variable, so stale entries cannot grow it without bound.
_QUEUE_SLACK = 2
#: Variables the literal-indexed lists reserve beyond the requested one, at
#: least: small solvers grow a few times, large ones by a quarter a time.
_MIN_GROWTH = 16


class SolverError(RuntimeError):
    """Raised on misuse of the solver API."""


class _ClauseRec:
    """Internal clause record."""

    __slots__ = ("cid", "lits", "learned", "activity", "deleted")

    def __init__(self, cid: int, lits: List[int], learned: bool) -> None:
        self.cid = cid
        self.lits = lits
        self.learned = learned
        self.activity = 0.0
        self.deleted = False


class CdclSolver:
    """Conflict-driven clause-learning SAT solver with optional proof logging.

    Parameters
    ----------
    proof_logging:
        When ``True`` every clause addition and every learned clause is
        recorded in a :class:`ResolutionProof`, available through
        :meth:`proof` after an UNSAT answer.  Under assumptions the trace
        roots at a final-conflict clause (:meth:`last_refutation_root`)
        instead of the empty clause; see :meth:`proof`.
    """

    def __init__(self, proof_logging: bool = False) -> None:
        self.proof_logging = proof_logging
        self.stats = SolverStats()

        self._num_vars = 0
        #: Variables the literal-indexed lists have room for.
        self._capacity = 0
        self._clauses: List[_ClauseRec] = []
        self._watches: List[List[_ClauseRec]] = [[]]  # literal -> watchers
        self._assign: List[int] = [_UNASSIGNED]       # literal -> 1/0/_UNASSIGNED
        self._level: List[int] = [0]
        self._reason: List[Optional[_ClauseRec]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0

        self._activity: List[float] = [0.0]
        #: The order queue: a heapq list of (-activity, var) entries, some
        #: stale, and whether each variable has a live entry in it.
        self._heap: List[Tuple[float, int]] = []
        self._queued: List[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._phase: List[bool] = [False]

        self._clause_inc = 1.0
        self._clause_decay = 0.999
        self._learned_count = 0
        self._max_learned = 4000

        self._next_cid = 0
        self._proof = ResolutionProof() if proof_logging else None
        self._root_conflict = False      # empty clause / level-0 conflict seen
        self._ok = True

        #: Snapshot of the assignment list at the last SAT answer.
        self._model: Optional[List[int]] = None
        self._conflict_assumptions: Optional[List[int]] = None
        self._last_result: Optional[SatResult] = None
        #: Proof id of the last UNSAT answer's root clause (see
        #: :meth:`last_refutation_root`).
        self._refutation_root: Optional[int] = None

        #: The last call's assumptions: decision level i <= the current
        #: level holds ``_assumptions[i - 1]`` between calls.
        self._assumptions: List[int] = []

        #: Clause groups: activation variable -> clause records of the group.
        self._groups: Dict[int, List[_ClauseRec]] = {}
        #: Every activation variable ever handed out (released ones stay:
        #: strip_activations must know which variables to reject chains on).
        self._group_vars: Set[int] = set()
        #: Counters attributable to the most recent :meth:`solve` call
        #: (including any clauses added since the preceding call ended).
        self.last_call_stats = SolverStats()
        self._stats_mark = SolverStats()

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate and return a fresh variable (1-based)."""
        var = self._num_vars + 1
        if var > self._capacity:
            self._grow(var)
        self._num_vars = var
        self._watches[var] = []
        self._watches[-var] = []
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        # A fresh variable has activity 0 and the highest index, and no
        # activity is negative, so it belongs at the end of the queue as is.
        self._queued.append(True)
        self._heap.append((-0.0, var))
        return var

    def ensure_var(self, var: int) -> None:
        """Make sure ``var`` exists (allocating intermediate variables)."""
        if var > self._capacity:
            self._grow(var)
        while self._num_vars < var:
            self.new_var()

    def _grow(self, var: int) -> None:
        """Make room in the literal-indexed lists for variables up to at
        least ``var``, in place: the new positive and negative slots are
        inserted together at the midpoint, between the two halves.  A spare
        watch slot holds the shared empty tuple until :meth:`new_var` gives
        it a list, so spare capacity costs no list objects, and a watch
        added to a variable that does not exist fails loudly."""
        capacity = self._capacity
        extra = max(var - capacity, (capacity >> 2) + _MIN_GROWTH)
        middle = capacity + 1
        self._assign[middle:middle] = [_UNASSIGNED] * (2 * extra)
        self._watches[middle:middle] = [()] * (2 * extra)
        self._capacity = capacity + extra

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return sum(1 for c in self._clauses if not c.deleted and not c.learned)

    def add_clause(self, literals: Iterable[int],
                   partition: Optional[int] = None,
                   group: Optional[int] = None) -> Optional[int]:
        """Add an input clause; return its proof clause id (or ``None``).

        ``partition`` tags the clause for interpolation (which member of the
        ``Gamma`` partition / which side of the (A, B) cut it belongs to).
        Clauses may be added before :meth:`solve` is first called or between
        calls.  A clause with two literals that are not false under the
        assumption levels the last call kept is watched on them as is; any
        other clause backtracks to level 0 first and is watched against the
        level-0 assignment, so clauses arriving already unit or conflicting
        are handled correctly.

        ``group`` attaches the clause to an activation-literal group from
        :meth:`new_group`: the group's negated activation literal is appended,
        so the clause only constrains solves that assume the activation
        literal, and the whole group can later be retracted with
        :meth:`release_group`.

        This is :meth:`add_cnf` with a batch of one.
        """
        return self.add_cnf((literals,), partition, group)[0]

    def add_cnf(self, clauses: Iterable[Iterable[int]],
                partition: Optional[int] = None,
                group: Optional[int] = None) -> List[int]:
        """Add input clauses sharing one partition label and group; return
        their proof clause ids.

        The one ingest loop of the solver: each clause is handled exactly as
        :meth:`add_clause` describes, in order, so a batch leaves the same
        clause ids, watches, trail and proof as adding its clauses one at a
        time.  When a clause is rejected, the clauses before it stay added.
        """
        group_recs: Optional[List[_ClauseRec]] = None
        if group is not None:
            group_recs = self._groups.get(group)
            if group_recs is None:
                raise SolverError(f"unknown or released clause group {group}")
        assign = self._assign
        watches = self._watches
        clause_list = self._clauses
        proof = self._proof
        add_original = (proof.original_adder(partition, group)
                        if proof is not None else None)
        stats = self.stats
        cids: List[int] = []
        for literals in clauses:
            lits = list(literals)
            if group is not None:
                lits.append(-group)
            variables = set(map(abs, lits))
            tautology = False
            if len(variables) < len(lits):
                # A repeated variable is a duplicate literal or a
                # complementary pair; only the latter remains after
                # deduplication.
                lits = list(dict.fromkeys(lits))
                tautology = len(variables) < len(lits)
            if variables:
                if 0 in variables:
                    raise SolverError("0 is not a valid literal")
                top = max(variables)
                if top > self._num_vars:
                    self.ensure_var(top)
            stats.clauses_added += 1
            cid = self._next_cid
            self._next_cid = cid + 1
            cids.append(cid)
            if add_original is not None:
                add_original(cid, Clause(lits) if tautology else
                             Clause.from_normalised(tuple(sorted(lits, key=abs))))
            # Tautologies are recorded (for proof completeness) but never
            # watched.
            if tautology:
                continue
            rec = _ClauseRec(cid, lits, False)
            if group_recs is not None:
                group_recs.append(rec)
            if len(lits) > 1:
                # Watch the first two literals when neither is false under
                # the current assignment.  ``assign`` and ``watches`` grow in
                # place, so the aliases survive ``ensure_var`` above.
                first, second = lits[0], lits[1]
                if assign[first] != 0 and assign[second] != 0:
                    clause_list.append(rec)
                    watches[first].append(rec)
                    watches[second].append(rec)
                    continue
                self._add_assigned(rec)
            elif lits:
                clause_list.append(rec)
                self._backtrack(0)
                if not self._enqueue(lits[0], rec):
                    self._handle_root_conflict(rec)
            else:
                clause_list.append(rec)
                self._backtrack(0)
                self._ok = False
                self._root_conflict = True
                if proof is not None and proof.empty_clause_id is None:
                    # The input itself contains the empty clause; re-register
                    # it as the refutation root by a trivial
                    # (single-antecedent) chain.
                    empty_cid = self._next_cid
                    self._next_cid += 1
                    proof.add_derived(empty_cid, Clause([]), [(None, cid)])
        return cids

    def _add_assigned(self, rec: _ClauseRec) -> None:
        """Add a clause of two or more literals, one of whose first two is
        false under the current assignment: move the first two non-false
        literals to the front and watch them, or handle a clause that
        arrives unit or conflicting at level 0."""
        lits = rec.lits
        non_false = self._non_false_positions(lits)
        if len(non_false) < 2 and self._trail_lim:
            # It could propagate or conflict at a kept assumption level.
            self._backtrack(0)
            non_false = self._non_false_positions(lits)
        if not non_false:
            self._clauses.append(rec)
            self._handle_root_conflict(rec)
            return
        if len(non_false) == 1:
            self._clauses.append(rec)
            only = lits[non_false[0]]
            if self._assign[only] == _UNASSIGNED:
                self._enqueue(only, rec)
            return
        i0, i1 = non_false
        lits[0], lits[i0] = lits[i0], lits[0]
        lits[1], lits[i1] = lits[i1], lits[1]
        self._attach(rec)

    def _non_false_positions(self, lits: List[int]) -> List[int]:
        """Positions of the first two literals of ``lits`` not false under
        the current assignment."""
        assign = self._assign
        non_false: List[int] = []
        for i, lit in enumerate(lits):
            if assign[lit] != 0:
                non_false.append(i)
                if len(non_false) == 2:
                    break
        return non_false

    # ------------------------------------------------------------------ #
    # Activation-literal clause groups (incremental retraction)
    # ------------------------------------------------------------------ #
    def new_group(self) -> int:
        """Open a clause group; returns its handle (the activation literal).

        Clauses added with ``group=handle`` get ``-handle`` appended, so they
        only bind when :meth:`solve` is passed ``handle`` among its
        assumptions (see :meth:`group_literal`).  With proof logging on,
        grouped clauses are recorded with their group tag and the activation
        literals of the still-active groups can later be stripped from the
        recorded trace (:func:`repro.sat.proof.strip_activations`), turning
        an UNSAT-under-assumptions answer into a genuine refutation of the
        caller's formula.
        """
        var = self.new_var()
        self._groups[var] = []
        self._group_vars.add(var)
        return var

    def group_literal(self, group: int) -> int:
        """The assumption literal that activates a group's clauses."""
        if group not in self._groups:
            raise SolverError(f"unknown or released clause group {group}")
        return group

    def release_group(self, group: int) -> None:
        """Permanently retract a group's clauses.

        The activation literal is asserted false by a unit input clause
        (satisfying, and thereby neutralising, every clause of the group as
        well as any learned clause derived from them) and the group's input
        clauses are dropped from the watch lists.  Assumption levels below
        the one that assigned the activation variable are kept: the unit
        ``-group`` implies nothing, since no clause contains ``+group``, so
        it goes in at level 0 underneath them.  With proof logging on, the
        unit is recorded under the group it retracts
        (:meth:`~repro.sat.proof.ResolutionProof.add_release_unit`), so a
        strip drops or rejects it with the group's own clauses.
        """
        recs = self._groups.pop(group, None)
        if recs is None:
            raise SolverError(f"unknown or released clause group {group}")
        for rec in recs:
            rec.deleted = True
        if self._assign[group] != _UNASSIGNED and self._level[group] > 0:
            # Kept literals from this level up may rest on the group.
            self._backtrack(self._level[group] - 1)
        self.stats.clauses_added += 1
        cid = self._next_cid
        self._next_cid = cid + 1
        if self._proof is not None:
            self._proof.add_release_unit(cid, group)
        rec = _ClauseRec(cid, [-group], False)
        self._clauses.append(rec)
        if self._assign[group] != _UNASSIGNED:
            # Assigned at level 0: the ordinary unit-clause path.
            self._backtrack(0)
            if not self._enqueue(-group, rec):
                self._handle_root_conflict(rec)
            return
        trail_lim = self._trail_lim
        position = trail_lim[0] if trail_lim else len(self._trail)
        self._trail.insert(position, -group)
        for i in range(len(trail_lim)):
            trail_lim[i] += 1
        if self._queue_head >= position:
            # Nothing watches +group, so there is nothing to propagate.
            self._queue_head += 1
        self._assign[group] = 0
        self._assign[-group] = 1
        self._level[group] = 0
        self._reason[group] = rec
        self._phase[group] = False

    def group_vars(self) -> Set[int]:
        """Every activation variable ever allocated, released ones included.

        :func:`repro.sat.proof.strip_activations` takes the complement of
        the assumed groups within this set as the variables a valid core
        must never touch.
        """
        return set(self._group_vars)

    def active_groups(self) -> Set[int]:
        """The activation variables of the currently open (unreleased) groups."""
        return set(self._groups)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional[Budget] = None) -> SatResult:
        """Run the CDCL search.

        Returns :data:`SatResult.SAT`, :data:`SatResult.UNSAT` or
        :data:`SatResult.UNKNOWN` (budget exhausted).  After SAT,
        :meth:`model` returns a satisfying assignment.  After UNSAT with
        assumptions, :meth:`conflict_assumptions` returns the subset of
        assumptions responsible.  After UNSAT without assumptions and with
        proof logging enabled, :meth:`proof` returns a refutation.

        The call may be repeated: the clause database (including learned
        clauses), variable activities and saved phases persist, which is what
        makes incremental BMC deepening profitable.  So do the assumption
        levels: the call ends at its last assumption level, and the next
        call backtracks only to the first assumption that differs from this
        call's, so queries that share a prefix of assumptions skip
        re-deriving it.  After every call, :attr:`last_call_stats` holds the
        counter deltas attributable to it (clauses encoded since the
        previous call included).  The literal 0 is rejected as an assumption
        with :class:`SolverError`, before any state changes.
        """
        try:
            return self._solve_main(assumptions, budget)
        finally:
            self.stats.solve_calls += 1
            self.last_call_stats = self.stats.diff(self._stats_mark)
            self._stats_mark = self.stats.copy()

    def _solve_main(self, assumptions: Sequence[int],
                    budget: Optional[Budget]) -> SatResult:
        assumption_list = list(assumptions)
        if assumption_list:
            if 0 in assumption_list:
                raise SolverError("0 is not a valid literal")
            self.ensure_var(max(map(abs, assumption_list)))
        self._model = None
        self._conflict_assumptions = None
        self._refutation_root = None
        budget = budget or Budget()
        start = time.monotonic()

        if not self._ok:
            self._last_result = SatResult.UNSAT
            self._conflict_assumptions = []
            if self._proof is not None:
                self._refutation_root = self._proof.empty_clause_id
            return SatResult.UNSAT

        # Keep the levels of the assumptions shared with the previous call.
        kept = self._assumptions
        shared = 0
        limit = min(self._decision_level(), len(assumption_list))
        while shared < limit and kept[shared] == assumption_list[shared]:
            shared += 1
        self._backtrack(shared)
        self._assumptions = assumption_list

        # Propagation of everything pending.
        conflict = self._propagate()
        if conflict is not None and self._trail_lim:
            self._backtrack(0)
            conflict = self._propagate()
        if conflict is not None:
            self._handle_root_conflict(conflict)
            self._last_result = SatResult.UNSAT
            self._conflict_assumptions = []
            return SatResult.UNSAT

        try:
            result = self._search(assumption_list, budget, start)
        except BudgetExceeded:
            result = SatResult.UNKNOWN
        finally:
            # Keep the assumption levels for the next call.
            self._backtrack(min(self._decision_level(), len(assumption_list)))
        self._last_result = result
        return result

    def model(self) -> Dict[int, bool]:
        """Return the satisfying assignment found by the last SAT answer as
        a fresh ``{var: value}`` dict over the variables that existed then."""
        model = self._model
        if model is None:
            raise SolverError("no model available (last call was not SAT)")
        return {var: model[var] == 1 for var in range(1, len(model))}

    def model_value(self, lit: int) -> bool:
        """Evaluate a literal in the last model, in constant time.

        A variable created after the SAT answer reads as false.
        """
        model = self._model
        if model is None:
            raise SolverError("no model available (last call was not SAT)")
        var = abs(lit)
        value = var < len(model) and model[var] == 1
        return value if lit > 0 else not value

    def conflict_assumptions(self) -> List[int]:
        """Return the failed-assumption subset from the last UNSAT answer."""
        if self._conflict_assumptions is None:
            raise SolverError("no assumption conflict available")
        return list(self._conflict_assumptions)

    def proof(self) -> ResolutionProof:
        """Return the recorded proof after an UNSAT answer.

        After an assumption-free UNSAT answer the proof is a refutation
        (it derives the empty clause).  After UNSAT *under assumptions*
        the recorded trace instead ends in a final-conflict clause over
        negated assumption literals — its id is
        :meth:`last_refutation_root` — and callers solving on
        activation-literal clause groups turn it into a genuine refutation
        with :func:`repro.sat.proof.strip_activations`.
        """
        if self._proof is None:
            raise SolverError("proof logging is disabled")
        if not self._proof.is_refutation() and self._refutation_root is None:
            raise SolverError("no refutation recorded (last answer was not "
                              "a proof-logged UNSAT)")
        return self._proof

    def last_refutation_root(self) -> Optional[int]:
        """Proof id of the clause that roots the last UNSAT answer's derivation.

        The empty clause for assumption-free answers; the final-conflict
        clause (every literal a negated assumption) for answers under
        assumptions.  ``None`` when the last answer was not UNSAT, when
        proof logging is off, or when the inconsistency lay among the
        assumption literals themselves (two complementary assumptions) —
        no input-clause derivation exists in that case.
        """
        return self._refutation_root

    # ------------------------------------------------------------------ #
    # CDCL core
    # ------------------------------------------------------------------ #
    def _search(self, assumptions: List[int], budget: Budget,
                start_time: float) -> SatResult:
        restart_count = 0
        conflicts_until_restart = self._luby(restart_count) * 100
        # Budgets are per call: on a persistent (incremental) solver the
        # lifetime counter keeps growing, so the limit applies to the delta.
        conflict_base = self.stats.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self._decision_level() == 0:
                    self._handle_root_conflict(conflict)
                    self._conflict_assumptions = []
                    return SatResult.UNSAT
                learned, backjump_level, chain = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._record_learned(learned, chain)
                self._decay_activities()

                if budget.max_conflicts is not None and \
                        self.stats.conflicts - conflict_base >= budget.max_conflicts:
                    raise BudgetExceeded()
                if budget.max_time is not None and \
                        time.monotonic() - start_time > budget.max_time:
                    raise BudgetExceeded()

                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    self.stats.restarts += 1
                    conflicts_until_restart = self._luby(restart_count) * 100
                    self._backtrack(0)
                if self._learned_count >= self._max_learned:
                    self._reduce_db()
                continue

            # No conflict: extend assumptions, then decide.
            level = len(self._trail_lim)
            if level < len(assumptions):
                lit = assumptions[level]
                value = self._assign[lit]
                if value == 1:
                    # Already satisfied; open an empty decision level to keep
                    # the level <-> assumption correspondence simple.
                    self._new_decision_level()
                    continue
                if value == 0:
                    self._conflict_assumptions = self._analyze_final(lit, assumptions)
                    # Reads the trail only, so the search trajectory is
                    # untouched.
                    self._record_assumption_refutation(lit, assumptions)
                    return SatResult.UNSAT
                self._new_decision_level()
                self._enqueue(lit, None)
                continue

            lit = self._pick_branch()
            if lit is None:
                # The positive half: variable -> value.
                self._model = self._assign[:self._num_vars + 1]
                return SatResult.SAT
            self.stats.decisions += 1
            self._new_decision_level()
            self._enqueue(lit, None)

    def _propagate(self) -> Optional[_ClauseRec]:
        """Unit propagation; return the conflicting clause or ``None``."""
        # This is the hottest loop of the whole system, so _enqueue is
        # inlined (see benchmarks/test_bench_sat.py).  Values and watch lists
        # are indexed by the literal, so a watch visit reads
        # ``assign[lit] == 1`` (true) or ``!= 0`` (not false) with no
        # ``abs``; only an implied literal pays one, for its variable's level,
        # reason and phase.  Each watch list is compacted in place:
        # surviving watchers keep their order.
        watches = self._watches
        assign = self._assign
        levels = self._level
        reasons = self._reason
        phases = self._phase
        trail = self._trail
        level = len(self._trail_lim)
        head = start = self._queue_head
        conflict: Optional[_ClauseRec] = None
        while head < len(trail) and conflict is None:
            false_lit = -trail[head]
            head += 1
            watch_list = watches[false_lit]
            end = len(watch_list)
            i = j = 0
            while i < end:
                rec = watch_list[i]
                i += 1
                if rec.deleted:
                    continue
                lits = rec.lits
                # Normalise: watched literals sit at positions 0 and 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], false_lit
                other = lits[0]
                other_value = assign[other]
                if other_value == 1:
                    watch_list[j] = rec
                    j += 1
                    continue
                # Look for a replacement watch.
                for k in range(2, len(lits)):
                    candidate = lits[k]
                    if assign[candidate] != 0:
                        lits[1], lits[k] = candidate, false_lit
                        watches[candidate].append(rec)
                        break
                else:
                    # Clause is unit or conflicting.
                    watch_list[j] = rec
                    j += 1
                    if other_value == 0:
                        conflict = rec
                        # Keep the remaining watchers.
                        for k in range(i, end):
                            rec = watch_list[k]
                            if not rec.deleted:
                                watch_list[j] = rec
                                j += 1
                        break
                    assign[other] = 1
                    assign[-other] = 0
                    other_var = abs(other)
                    levels[other_var] = level
                    reasons[other_var] = rec
                    phases[other_var] = other > 0
                    trail.append(other)
            del watch_list[j:]
        # One propagation per trail literal visited; a conflict skips the
        # rest of the queue.
        self.stats.propagations += head - start
        self._queue_head = len(trail) if conflict is not None else head
        return conflict

    def _analyze(self, conflict: _ClauseRec) -> Tuple[List[int], int,
                                                      List[Tuple[Optional[int], int]]]:
        """First-UIP conflict analysis.

        Returns ``(learned_clause, backjump_level, proof_chain)``.
        """
        learned: List[int] = []
        seen: Set[int] = set()
        counter = 0
        current_level = self._decision_level()
        chain: List[Tuple[Optional[int], int]] = [(None, conflict.cid)]
        clause: Optional[_ClauseRec] = conflict
        trail_index = len(self._trail) - 1
        pivot_lit: Optional[int] = None

        while True:
            assert clause is not None
            self._bump_clause(clause)
            for lit in clause.lits:
                if pivot_lit is not None and lit == pivot_lit:
                    continue
                var = abs(lit)
                if var in seen:
                    continue
                # Literals falsified at level 0 are kept in the learned
                # clause: this keeps the recorded resolution chain an exact
                # derivation of the learned clause, which the interpolation
                # replay relies on.
                seen.add(var)
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal to resolve on (most recent on the trail).
            while trail_index >= 0 and (abs(self._trail[trail_index]) not in seen
                                        or self._level[abs(self._trail[trail_index])]
                                        != current_level):
                trail_index -= 1
            if trail_index < 0:  # pragma: no cover - defensive
                raise SolverError("conflict analysis ran off the trail")
            pivot_var = abs(self._trail[trail_index])
            seen.discard(pivot_var)
            counter -= 1
            trail_index -= 1
            if counter <= 0:
                # First UIP reached: the asserting literal.
                uip_lit = -self._trail[trail_index + 1]
                learned.insert(0, uip_lit)
                break
            clause = self._reason[pivot_var]
            if clause is None:  # pragma: no cover - defensive
                raise SolverError("missing reason during conflict analysis")
            pivot_lit = self._trail[trail_index + 1]
            chain.append((pivot_var, clause.cid))

        # Reorder so the second literal has the highest decision level among
        # the non-asserting literals: after backjumping this keeps the second
        # watch unassigned as long as possible.
        if len(learned) > 2:
            best = max(range(1, len(learned)), key=lambda i: self._level[abs(learned[i])])
            learned[1], learned[best] = learned[best], learned[1]
        # Backjump level = highest level among the non-asserting literals.
        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(self._level[abs(l)] for l in learned[1:])
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learned)
        return learned, backjump, chain

    def _analyze_final(self, failed_lit: int, assumptions: List[int]) -> List[int]:
        """Compute a subset of ``assumptions`` that together are inconsistent.

        ``failed_lit`` is the assumption found falsified; the returned set
        contains it plus the assumptions whose propagation forced it false.
        MiniSat's analyzeFinal: one backward walk over the trail, from the
        end of ``failed_lit``'s level down to the first decision level,
        marks the reason literals of every marked variable (reasons only
        hold literals assigned earlier); a marked decision is an assumption
        of the core.  The walk stops once every marked variable has been
        passed.
        """
        assumption_set = set(assumptions)
        conflict_set: Set[int] = {failed_lit} if failed_lit in assumption_set else set()
        trail_lim = self._trail_lim
        failed_var = abs(failed_lit)
        levels = self._level
        if not trail_lim or levels[failed_var] == 0:
            return sorted(conflict_set, key=abs)
        reasons = self._reason
        trail = self._trail
        # Everything the walk marks sits at or below the failed literal's
        # level, so it starts at that level's last trail entry.
        level = levels[failed_var]
        top = trail_lim[level] if level < len(trail_lim) else len(trail)
        seen = {failed_var}
        pending = 1
        for index in range(top - 1, trail_lim[0] - 1, -1):
            true_lit = trail[index]
            var = abs(true_lit)
            if var not in seen:
                continue
            reason = reasons[var]
            if reason is None:
                # A decision: under assumption solving every decision below
                # len(assumptions) levels is an assumption literal.
                if true_lit in assumption_set:
                    conflict_set.add(true_lit)
                elif -true_lit in assumption_set:
                    conflict_set.add(-true_lit)
            else:
                for other in reason.lits:
                    other_var = abs(other)
                    if other_var not in seen and levels[other_var] > 0:
                        seen.add(other_var)
                        pending += 1
            pending -= 1
            if not pending:
                break
        return sorted(conflict_set, key=abs)

    def _record_assumption_refutation(self, failed_lit: int,
                                      assumptions: List[int]) -> None:
        """Record the final-conflict chain of an UNSAT-under-assumptions answer.

        Called when extending the assumptions found ``failed_lit`` already
        falsified.  Starting from its falsifying reason, every falsified
        literal that is not a negated assumption is resolved against its own
        reason (latest-assigned first, so each step only introduces literals
        assigned earlier), terminating in a clause whose literals are all
        negated assumptions — the assumption-level analogue of the empty
        clause, and the root :func:`repro.sat.proof.strip_activations`
        reduces to the empty clause when the assumptions are activation
        literals.  The walk only reads the trail and the reasons, so
        recording never perturbs the search trajectory.
        """
        if self._proof is None:
            return
        reason = self._reason[abs(failed_lit)]
        if reason is None:
            # The complement of ``failed_lit`` is itself an assumption
            # decision: the inconsistency lies among the assumption literals,
            # not the clauses — there is no input-clause derivation.
            return
        chain, remaining = self._trail_resolution(reason, set(assumptions))
        cid = self._next_cid
        self._next_cid += 1
        self._proof.add_derived(cid, Clause(sorted(remaining)), chain)
        self._refutation_root = cid

    def _trail_resolution(self, start: _ClauseRec, keep: Set[int]
                          ) -> Tuple[List[Tuple[Optional[int], int]], Set[int]]:
        """Resolve ``start``'s falsified literals away against their reasons.

        Walks the trail backwards, so the most recently assigned literal is
        resolved first: every reason only introduces literals assigned
        earlier, so each trail variable is a pivot at most once and the
        chain is regular — never longer than the trail.  A falsified literal
        ``-t`` whose true complement ``t`` is in ``keep`` (a negated
        assumption) stays.  Returns the chain and the literals left over.
        """
        chain: List[Tuple[Optional[int], int]] = [(None, start.cid)]
        current: Set[int] = set(start.lits)
        pending = sum(1 for lit in current if -lit not in keep)
        for true_lit in reversed(self._trail):
            if not pending:
                break
            if -true_lit not in current or true_lit in keep:
                continue
            var = abs(true_lit)
            reason = self._reason[var]
            if reason is None:
                raise SolverError(f"falsified literal {-true_lit} has no reason "
                                  "in the final conflict")
            chain.append((var, reason.cid))
            current.discard(-true_lit)
            pending -= 1
            for other in reason.lits:
                if abs(other) != var and other not in current:
                    current.add(other)
                    if -other not in keep:
                        pending += 1
        if pending:  # pragma: no cover - defensive
            raise SolverError("final conflict analysis ran off the trail")
        return chain, current

    def _record_learned(self, learned: List[int],
                        chain: List[Tuple[Optional[int], int]]) -> None:
        cid = self._next_cid
        self._next_cid += 1
        if self._proof is not None:
            self._proof.add_derived(cid, Clause(learned), chain)
        rec = _ClauseRec(cid, list(learned), learned=True)
        if len(learned) == 1:
            # Unit learned clause: asserting at level 0 after the backjump.
            self._enqueue(learned[0], rec)
            self._clauses.append(rec)
            return
        rec.activity = self._clause_inc
        self._attach(rec)
        self._learned_count += 1
        self._enqueue(learned[0], rec)

    def _handle_root_conflict(self, conflict: _ClauseRec) -> None:
        """Derive the empty clause from a conflict at decision level 0."""
        self._ok = False
        first = not self._root_conflict
        self._root_conflict = True
        if self._proof is None:
            return
        if first and self._proof.empty_clause_id is None:
            # Every literal of the conflict is falsified at level 0: resolve
            # them all away against their level-0 reasons.
            chain, _ = self._trail_resolution(conflict, set())
            cid = self._next_cid
            self._next_cid += 1
            self._proof.add_derived(cid, Clause([]), chain)
        self._refutation_root = self._proof.empty_clause_id

    # ------------------------------------------------------------------ #
    # Assignment management
    # ------------------------------------------------------------------ #
    def _enqueue(self, lit: int, reason: Optional[_ClauseRec]) -> bool:
        """Assign ``lit``; ``False`` when it is already false."""
        assign = self._assign
        value = assign[lit]
        if value != _UNASSIGNED:
            return value == 1
        assign[lit] = 1
        assign[-lit] = 0
        var = abs(lit)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        trail_lim = self._trail_lim
        trail_lim.append(len(self._trail))
        stats = self.stats
        if len(trail_lim) > stats.max_decision_level:
            stats.max_decision_level = len(trail_lim)

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        limit = trail_lim[level]
        trail = self._trail
        assign = self._assign
        reason = self._reason
        activity = self._activity
        heap = self._heap
        queued = self._queued
        for lit in reversed(trail[limit:]):
            assign[lit] = assign[-lit] = _UNASSIGNED
            var = abs(lit)
            reason[var] = None
            if not queued[var]:
                queued[var] = True
                heappush(heap, (-activity[var], var))
        del trail[limit:]
        del trail_lim[level:]
        if self._queue_head > limit:
            self._queue_head = limit

    # ------------------------------------------------------------------ #
    # Heuristics and the order queue
    # ------------------------------------------------------------------ #
    def _pick_branch(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties,
        with its saved phase; ``None`` when every variable is assigned."""
        heap = self._heap
        assign = self._assign
        queued = self._queued
        while heap:
            var = heap[0][1]
            # Assigned variables leave the queue lazily, when they surface;
            # an entry of an unqueued variable is stale.
            if queued[var]:
                if assign[var] == _UNASSIGNED:
                    return var if self._phase[var] else -var
                queued[var] = False
            heappop(heap)
        return None

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Every key changed, and scaling may round distinct activities
            # to one value, where the index tie-break decides: rebuild.
            self._heap_rebuild()
        elif self._queued[var]:
            heap = self._heap
            heappush(heap, (-activity[var], var))
            if len(heap) > _QUEUE_SLACK * self._num_vars:
                self._heap_rebuild()

    def _heap_rebuild(self) -> None:
        """Rebuild the order queue from the queued variables' activities."""
        activity = self._activity
        heap = self._heap
        heap[:] = [(-activity[var], var)
                   for var, queued in enumerate(self._queued) if queued]
        heapify(heap)

    def _bump_clause(self, rec: _ClauseRec) -> None:
        if not rec.learned:
            return
        rec.activity += self._clause_inc
        if rec.activity > 1e20:
            for other in self._clauses:
                if other.learned:
                    other.activity *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._clause_inc /= self._clause_decay

    def _reduce_db(self) -> None:
        """Remove the less active half of the learned clauses."""
        self.stats.db_reductions += 1
        locked = {id(self._reason[abs(lit)]) for lit in self._trail
                  if self._reason[abs(lit)] is not None}
        learned = [c for c in self._clauses
                   if c.learned and not c.deleted and len(c.lits) > 2]
        learned.sort(key=lambda c: c.activity)
        to_remove = learned[: len(learned) // 2]
        for rec in to_remove:
            if id(rec) in locked:
                continue
            rec.deleted = True
            self._learned_count -= 1
            self.stats.removed_clauses += 1
        self._max_learned = int(self._max_learned * 1.2)

    @staticmethod
    def _luby(index: int) -> int:
        """Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...

        ``index`` is 0-based.
        """
        i = index + 1
        while True:
            k = 1
            while (1 << k) - 1 < i:
                k += 1
            if (1 << k) - 1 == i:
                return 1 << (k - 1)
            i -= (1 << (k - 1)) - 1

    # ------------------------------------------------------------------ #
    # Watches
    # ------------------------------------------------------------------ #
    def _attach(self, rec: _ClauseRec) -> None:
        self._clauses.append(rec)
        self._watches[rec.lits[0]].append(rec)
        self._watches[rec.lits[1]].append(rec)
