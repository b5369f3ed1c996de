"""The IC3/PDR frame sequence, hosted on one persistent incremental solver.

A :class:`FrameSequence` maintains the over-approximating frames
F_0 ⊆ F_1 ⊆ … ⊆ F_k of IC3/PDR (Bradley VMCAI'11, Eén/Mishchenko/Brayton
FMCAD'11) in *delta encoding*: every blocked cube is stored at exactly one
level j, and the state set F_i is described by the clauses of all levels
≥ i.  Monotone containment is therefore structural — it never has to be
re-established by a containment check.

Unlike the interpolation engines, which re-encode a longer unrolling for
every outer bound, all PDR reasoning happens over **one** copy of the
transition relation T(V⁰, V¹) inside **one**
:class:`~repro.sat.solver.CdclSolver` for the whole run:

* each frame level owns an activation-literal clause group
  (:meth:`~repro.sat.solver.CdclSolver.new_group`); the clause ¬s of a cube
  blocked at level j is added to group j, and "F_i holds" is expressed by
  assuming the activation literals of levels i..k;
* pushing a cube from level j to j+1 adds the clause to group j+1 and
  leaves a stale (subsumed) copy behind in group j; once a level's stale
  copies outnumber its live clauses the whole group is **released**
  (:meth:`~repro.sat.solver.CdclSolver.release_group`) and rebuilt from the
  live clauses only, so the solver-side clause count stays proportional to
  the frame contents — the same delta-not-total accounting that
  :mod:`repro.bmc.incremental` established for BMC deepening;
* per-query obligations (the ¬s term of a relative-induction check, the
  ¬t′ term of a lifting check) live in throwaway groups released right
  after the query.

Learned clauses, VSIDS activities and saved phases persist across every
query of the run, which is where PDR's thousands of shallow SAT calls
recoup their cost.  So do the assumption levels: the solver keeps the
levels of the longest assumption prefix a query shares with the one before
it.  Every query therefore lists its assumptions *stable-first* — the
transition (constraint) literals, then the frame activations from the top
frame down, then the query's throwaway group, then the cube — so queries at
different levels share the high-frame prefix, and releasing the throwaway
group keeps it.

The solver hook
---------------
Every query is routed through a caller-supplied ``solve(solver,
assumptions)`` callable so the engine can thread resource budgets and
:class:`~repro.core.result.EngineStats` accounting through the subsystem
without the subsystem depending on the engine layer.  The default hook
solves without a budget, which keeps :class:`FrameSequence` usable
standalone (see ``examples/pdr_proofs.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..aig.model import Model, StateCube
from ..bmc.unroll import Unroller
from ..sat.solver import CdclSolver
from ..sat.types import SatResult

__all__ = ["FrameSequence", "Cube"]

#: A cube over latch variables: latch AIG variable -> polarity.
Cube = Dict[int, bool]

#: ``solve(solver, assumptions) -> SatResult`` hook type.
SolveHook = Callable[[CdclSolver, Sequence[int]], SatResult]


def _default_solve(solver: CdclSolver, assumptions: Sequence[int]) -> SatResult:
    return solver.solve(assumptions=list(assumptions))


class FrameSequence:
    """Relative-inductive clause sets F_0..F_k over one persistent solver.

    ``F_0`` is the initial-state predicate S₀ (its unit cubes live in the
    level-0 group); higher levels start empty (F_i = ⊤) and are
    strengthened by :meth:`add_blocked_cube`.
    """

    def __init__(self, model: Model, solver: Optional[CdclSolver] = None,
                 solve: Optional[SolveHook] = None, tracer=None) -> None:
        from ..obs.tracer import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        if solver is None:
            solver = CdclSolver(proof_logging=False)
        if solver.proof_logging:
            raise ValueError("PDR frames are incompatible with proof logging: "
                             "frame clauses live under activation literals")
        self.model = model
        self.solver = solver
        self._solve: SolveHook = solve or _default_solve
        self.unroller = Unroller(model, solver)
        # One transition copy T(V0, V1).  Invariant constraints hold
        # permanently at step 0 — every state a query reasons about is a
        # constraint-satisfying one — but at step 1 only under an
        # assumption used by the *transition* queries: a bad-state query
        # must not demand that the violating state have a
        # constraint-satisfying successor (the trace ends there).
        self.unroller.add_transition(0, partition=None, include_constraints=False)
        self._transition_assumptions: List[int] = []
        if model.constraints:
            self.unroller.assert_constraints_at(0, partition=None)
            group = self.solver.new_group()
            for lit in self.unroller.constraint_literals(1, partition=None):
                self.solver.add_clause([lit], group=group)
            self._transition_assumptions.append(self.solver.group_literal(group))
        self._bad0 = self.unroller.bad_literal(0, partition=None)
        #: S₀ as a (partial) cube: uninitialised latches are unconstrained.
        self._init_cube: Cube = {latch.var: bool(latch.init)
                                 for latch in model.latches
                                 if latch.init is not None}
        # Cube lifting shrinks a SAT witness to the assumptions an UNSAT core
        # retains; with invariant constraints in the formula the shrunk cube
        # no longer guarantees that *every* contained state satisfies them,
        # which trace reconstruction relies on — so lifting is disabled and
        # obligations carry full states instead.
        self._lifting = not model.constraints
        #: Per-level activation group handle (index 0 = the S₀ group).
        self._groups: List[int] = []
        #: Per-level live blocked cubes (delta encoding; index 0 unused).
        self._levels: List[List[StateCube]] = []
        #: Set mirror of each level's live cubes for O(1) duplicate checks.
        self._level_sets: List[set] = []
        #: Per-level count of stale solver-side copies (pushed-away cubes).
        self._stale: List[int] = []
        #: Cumulative number of cube pushes (mirrored into EngineStats).
        self.clauses_pushed = 0
        #: Number of frame groups released and rebuilt to shed stale copies.
        self.groups_rebuilt = 0
        self._push_level()
        for var, value in sorted(self._init_cube.items()):
            cnf = self.unroller.latch_cnf_var(0, var)
            self.solver.add_clause([cnf if value else -cnf],
                                   group=self._groups[0])

    # ------------------------------------------------------------------ #
    # Frame management
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """The topmost frame index."""
        return len(self._levels) - 1

    def _push_level(self) -> None:
        self._groups.append(self.solver.new_group())
        self._levels.append([])
        self._level_sets.append(set())
        self._stale.append(0)

    def add_level(self) -> int:
        """Open frame F_{k+1} (initially ⊤); returns the new k."""
        self._push_level()
        return self.k

    def level_cubes(self, level: int) -> List[StateCube]:
        """The live cubes blocked exactly at ``level`` (delta encoding)."""
        return list(self._levels[level])

    def frame_cubes(self, level: int) -> List[StateCube]:
        """All cubes excluded from F_level: the union of levels ≥ level."""
        cubes: List[StateCube] = []
        for j in range(max(level, 1), self.k + 1):
            cubes.extend(self._levels[j])
        return cubes

    def num_clauses(self) -> int:
        """Total number of live frame clauses across all levels."""
        return sum(len(cubes) for cubes in self._levels)

    def activation_assumptions(self, level: int) -> List[int]:
        """Assumption literals expressing membership in F_level.

        They run from the top frame down, so the lists for different levels
        share a prefix and the solver keeps its levels between queries.
        """
        return [self.solver.group_literal(group)
                for group in reversed(self._groups[level:])]

    # ------------------------------------------------------------------ #
    # Cube plumbing
    # ------------------------------------------------------------------ #
    def _cube_lits(self, cube: Mapping[int, bool], frame: int) -> List[int]:
        """CNF literals of a latch cube at time frame 0 (now) or 1 (next)."""
        lits = []
        for var, value in sorted(cube.items()):
            cnf = self.unroller.latch_cnf_var(frame, var)
            lits.append(cnf if value else -cnf)
        return lits

    def _input_lits(self, inputs: Mapping[int, bool]) -> List[int]:
        """CNF literals of a primary-input valuation at time frame 0."""
        lits = []
        for var, value in sorted(inputs.items()):
            cnf = self.unroller.input_cnf_var(0, var)
            lits.append(cnf if value else -cnf)
        return lits

    def _model_witness(self) -> Tuple[Cube, Dict[int, bool]]:
        """Project the SAT model onto (latch state, primary inputs) at step 0.

        Each latch and input literal is read through ``model_value``, in
        constant time: witnesses are extracted on each of PDR's thousands
        of SAT answers.
        """
        value = self.solver.model_value
        latch_cnf_var = self.unroller.latch_cnf_var
        input_cnf_var = self.unroller.input_cnf_var
        state = {var: value(latch_cnf_var(0, var))
                 for var in self.model.latch_vars}
        inputs = {var: value(input_cnf_var(0, var))
                  for var in self.model.input_vars}
        return state, inputs

    def intersects_initial(self, cube: Mapping[int, bool]) -> bool:
        """Whether the cube contains an initial state (syntactic: S₀ is a cube)."""
        return all(self._init_cube.get(var, value) == value
                   for var, value in cube.items())

    def initial_state_in(self, cube: Mapping[int, bool]) -> Cube:
        """A concrete initial state inside ``cube`` (which must intersect S₀)."""
        state = dict(self._init_cube)
        for var in self.model.latch_vars:
            if var not in state:
                state[var] = bool(cube.get(var, False))
        return state

    def _separator_literal(self, cube: Mapping[int, bool]) -> Tuple[int, bool]:
        """A literal of ``cube`` that conflicts with S₀ (initiation witness)."""
        for var, value in sorted(cube.items()):
            init = self._init_cube.get(var)
            if init is not None and init != value:
                return var, value
        raise ValueError("cube intersects the initial states; "
                         "no separating literal exists")

    # ------------------------------------------------------------------ #
    # Queries (all on the one persistent solver)
    # ------------------------------------------------------------------ #
    def bad_state(self, level: int) -> Optional[Tuple[Cube, Dict[int, bool]]]:
        """SAT?(F_level ∧ ¬p): a property-violating state still inside F_level.

        Returns ``(state, inputs)`` — the full latch valuation and the
        primary inputs exposing the violation — or ``None`` on UNSAT.
        """
        result = self._solve(self.solver,
                             self.activation_assumptions(level) + [self._bad0])
        if result is SatResult.SAT:
            return self._model_witness()
        if result is SatResult.UNSAT:
            return None
        # UNKNOWN must not read as "no bad state" — that would let a
        # budget-exhausted query masquerade as part of a PASS proof.
        raise RuntimeError("bad-state query returned no answer; "
                           "the solve hook must raise on budget exhaustion")

    def check_obligation(self, cube: Mapping[int, bool], level: int):
        """Decide whether ``cube`` is inductive relative to F_{level-1}.

        The query is SAT?(F_{level-1} ∧ ¬s ∧ T ∧ s′) with the ¬s clause in a
        throwaway activation group and s′ passed as assumptions.  Returns

        * ``("blocked", core)`` on UNSAT — ``core ⊆ cube`` is the sub-cube
          the failed-assumption set retains, already repaired to satisfy
          initiation (S₀ ⇒ ¬core);
        * ``("cti", state, inputs)`` on SAT — a predecessor state in
          F_{level-1} (full valuation) and the inputs driving it into
          ``cube``.
        """
        assumptions = (self._transition_assumptions
                       + self.activation_assumptions(level - 1))
        next_lits = self._cube_lits(cube, 1)
        temp = self.solver.new_group()
        try:
            self.solver.add_clause([-lit for lit in self._cube_lits(cube, 0)],
                                   group=temp)
            result = self._solve(
                self.solver,
                assumptions + [self.solver.group_literal(temp)] + next_lits)
            if result is SatResult.SAT:
                state, inputs = self._model_witness()
                return ("cti", state, inputs)
            if result is not SatResult.UNSAT:
                raise RuntimeError("relative-induction query returned no "
                                   "answer; the solve hook must raise on "
                                   "budget exhaustion")
            return ("blocked", self._core_cube(cube, next_lits))
        finally:
            self.solver.release_group(temp)

    def _core_cube(self, cube: Mapping[int, bool], next_lits: List[int]) -> Cube:
        """Shrink a blocked cube to the literals its UNSAT answer used."""
        conflict = set(self.solver.conflict_assumptions())
        core: Cube = {}
        for lit, (var, value) in zip(next_lits, sorted(cube.items())):
            if lit in conflict:
                core[var] = value
        if not core or self.intersects_initial(core):
            # The core lost every literal separating the cube from S₀; put
            # one back (the original cube never intersects S₀).
            var, value = self._separator_literal(cube)
            core[var] = value
        return core

    def lift_bad(self, state: Cube, inputs: Mapping[int, bool]) -> Cube:
        """Shrink a bad state to a cube all of whose states violate p.

        UNSAT?(state ∧ inputs ∧ p) must hold by construction; the failed
        assumptions projected onto the latch literals are the lifted cube.
        """
        if not self._lifting:
            return dict(state)
        state_lits = self._cube_lits(state, 0)
        result = self._solve(
            self.solver,
            state_lits + self._input_lits(inputs) + [-self._bad0])
        return self._lifted_from_core(state, state_lits, result)

    def lift_predecessor(self, state: Cube, inputs: Mapping[int, bool],
                         successor: Mapping[int, bool]) -> Cube:
        """Shrink a predecessor state to a cube that still forces the step.

        UNSAT?(state ∧ inputs ∧ T ∧ ¬successor′) holds by construction, so
        every state of the lifted cube reaches ``successor`` under the same
        inputs — the guarantee counterexample reconstruction relies on.
        """
        if not self._lifting:
            return dict(state)
        state_lits = self._cube_lits(state, 0)
        temp = self.solver.new_group()
        try:
            self.solver.add_clause(
                [-lit for lit in self._cube_lits(successor, 1)], group=temp)
            result = self._solve(
                self.solver,
                [self.solver.group_literal(temp)] + state_lits
                + self._input_lits(inputs))
            return self._lifted_from_core(state, state_lits, result)
        finally:
            self.solver.release_group(temp)

    def _lifted_from_core(self, state: Cube, state_lits: List[int],
                          result: SatResult) -> Cube:
        if result is not SatResult.UNSAT:  # pragma: no cover - defensive
            raise RuntimeError("lifting query was satisfiable; the witness "
                               "state does not force its transition")
        conflict = set(self.solver.conflict_assumptions())
        lifted = {var: value
                  for lit, (var, value) in zip(state_lits, sorted(state.items()))
                  if lit in conflict}
        return lifted if lifted else dict(state)

    # ------------------------------------------------------------------ #
    # Strengthening and pushing
    # ------------------------------------------------------------------ #
    def add_blocked_cube(self, cube: Mapping[int, bool], level: int) -> bool:
        """Block ``cube`` at ``level``: add the clause ¬cube to F_1..F_level.

        Returns ``False`` when the cube is already blocked at this or a
        higher level (the solver-side clause would be subsumed).
        """
        if not 1 <= level <= self.k:
            raise ValueError(f"level {level} outside 1..{self.k}")
        frozen = StateCube.from_dict(cube)
        if any(frozen in self._level_sets[j]
               for j in range(level, self.k + 1)):
            return False
        self.solver.add_clause([-lit for lit in self._cube_lits(cube, 0)],
                               group=self._groups[level])
        self._levels[level].append(frozen)
        self._level_sets[level].add(frozen)
        return True

    def propagate(self) -> Optional[int]:
        """Push clauses forward (Eén et al.'s propagation phase).

        A cube at level j moves to j+1 when F_j ∧ T ∧ s′ is UNSAT.  Returns
        the fixpoint level — the first j < k whose live set drains, making
        F_j = F_{j+1} an inductive invariant — or ``None``.
        """
        for level in range(1, self.k):
            kept: List[StateCube] = []
            pushed: List[StateCube] = []
            for cube in self._levels[level]:
                result = self._solve(
                    self.solver,
                    self._transition_assumptions
                    + self.activation_assumptions(level)
                    + self._cube_lits(cube.as_dict(), 1))
                (pushed if result is SatResult.UNSAT else kept).append(cube)
            if pushed:
                self._levels[level] = kept
                self._level_sets[level] = set(kept)
                self._stale[level] += len(pushed)
                self.clauses_pushed += len(pushed)
                for cube in pushed:
                    self.add_blocked_cube(cube.as_dict(), level + 1)
            if not kept:
                return level
            self._maybe_rebuild_group(level)
        return None

    def _maybe_rebuild_group(self, level: int) -> None:
        """Release a group whose stale (pushed-away) copies dominate it.

        Pushing leaves the old clause behind in the source group (it is
        subsumed by the copy one level up, so queries stay correct); once
        the stale copies outnumber the live clauses the group is released —
        retracting every stale copy at once — and re-created from the live
        set.  The threshold keeps the rebuild cost amortised O(1) per push
        and the solver-side clause count within 2× of the live count.
        """
        if self._stale[level] <= len(self._levels[level]):
            return
        self.solver.release_group(self._groups[level])
        self._groups[level] = self.solver.new_group()
        for cube in self._levels[level]:
            self.solver.add_clause(
                [-lit for lit in self._cube_lits(cube.as_dict(), 0)],
                group=self._groups[level])
        self._stale[level] = 0
        self.groups_rebuilt += 1
        if self.tracer.enabled:
            self.tracer.point("frame_rebuild", level=level,
                              live=len(self._levels[level]))

    def frame_is_inductive(self, level: int) -> bool:
        """Diagnostic: is F_level an inductive invariant proving the property?

        Checks the three certificate conditions — S₀ ⇒ F_level (syntactic:
        every blocked cube excludes the initial cube), F_level ∧ ¬p UNSAT,
        and F_level ∧ T ⇒ F_level′ (one push query per clause).  After
        :meth:`propagate` reports a fixpoint at j, ``frame_is_inductive(j)``
        must hold — the test-suite uses this to audit PASS answers.
        """
        if any(self.intersects_initial(cube.as_dict())
               for cube in self.frame_cubes(level)):
            return False
        if self.bad_state(level) is not None:
            return False
        for cube in self.frame_cubes(level):
            result = self._solve(
                self.solver,
                self._transition_assumptions
                + self.activation_assumptions(level)
                + self._cube_lits(cube.as_dict(), 1))
            if result is not SatResult.UNSAT:
                return False
        return True
