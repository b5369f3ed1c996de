"""Incremental BMC: one persistent solver across all unrolling depths.

The monolithic path (:mod:`repro.bmc.checks`) re-encodes the whole
unrolling S₀ ∧ Tᵏ at every bound, so iterative deepening to depth ``k``
performs O(k²) Tseitin/clause work and every solver starts from scratch —
no learned clauses, no variable activities, no saved phases.  The
:class:`IncrementalUnroller` keeps **one** solver for the whole deepening
run, in the style of the MiniSAT incremental interface:

* the initial-state constraint and each transition frame are asserted
  *permanently*, one new frame per :meth:`extend` — O(k) total clause work;
* the depth-specific target (the bad cone at the last frame, or the bad
  disjunction for bound-mode checks) is asserted under a fresh
  activation-literal clause group
  (:meth:`~repro.sat.solver.CdclSolver.new_group`) and activated by
  assumption, so :meth:`extend` can retract it with
  :meth:`~repro.sat.solver.CdclSolver.release_group` before the next frame
  is appended;
* everything the solver learned while refuting depth ``k`` remains in force
  at depth ``k + 1``.

The three check formulations of :mod:`repro.bmc.checks` are supported and
produce, at every depth, a formula *identical* to the monolithic builder's
(modulo activation literals):

* **exact-k** — only the target moves between depths;
* **assume-k** — the ``p(Vⁱ)`` constraints for frames before the target are
  permanent: once the unrolling extends past frame ``i``, ``p(Vⁱ)`` is part
  of every deeper assume-check, exactly as in bmcᵏ_A;
* **bound-k** — the bad-cone disjunction over frames 1..k is re-issued per
  depth under the activation group (the cones themselves are cached by the
  frame encoders, so only one clause is new).

With ``proof_logging=True`` the searcher doubles as the **proof-logged
refutation check**: every permanent clause is labelled with the same
Γ-partition index the monolithic builders use (S₀ and T(V⁰,V¹) → 1,
T(Vᶠ,Vᶠ⁺¹), frame-``f`` constraints and assume-mode p(Vᶠ) → ``f+1``, the
depth-``d`` target → ``d+1``), the depth target's clause group is recorded
with its group tag, and after an UNSAT :meth:`solve`
:func:`grouped_refutation` strips the activation literals from the recorded
trace (:func:`repro.sat.proof.strip_activations`) to produce a genuine
labelled refutation of the monolithic S₀ ∧ Tᵏ ∧ B — the object
interpolation consumes, without a second solve.  Clauses learned at
earlier depths re-enter later refutations as derived chains over
permanent clauses; only a chain that depends on a *released* target group
is unusable, in which case :func:`grouped_refutation` raises
:class:`~repro.sat.proof.ActivationDependencyError` and the caller falls
back to a fresh monolithic solve (see :mod:`repro.core.base`).

:class:`SuffixUnroller` applies the same groups-plus-stripping idea to the
nested suffix checks of one bound that serial interpolation sequences
solve (Fig. 4, Eq. (3)): the frames are encoded once, and each step
releases the prefix the next one must not see.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..aig.model import Model
from ..sat.proof import (ActivationStripStats, ResolutionProof,
                         strip_activations)
from ..sat.solver import CdclSolver, SolverError
from ..sat.types import Budget, SatResult, SolverStats
from .cex import Trace
from .checks import BmcCheckKind
from .unroll import Unroller

__all__ = ["IncrementalUnroller", "SuffixUnroller", "grouped_refutation"]


class IncrementalUnroller:
    """Iterative-deepening BMC on a single persistent solver.

    The unroller starts armed at depth 0 (initial states + the depth-0
    target group); :meth:`extend` advances one frame at a time.  The
    intended driving loop is strict iterative deepening::

        inc = IncrementalUnroller(model)
        for depth in range(max_depth + 1):
            if depth:
                inc.extend()
            if inc.solve() is SatResult.SAT:
                return inc.extract_trace()

    :meth:`extend` assumes the current depth has just been refuted (or was
    skipped deliberately): in assume-mode it permanently asserts the
    property at the frame being left behind, which is sound precisely
    because iterative deepening visits depths in order.
    """

    def __init__(self, model: Model,
                 check_kind: BmcCheckKind = BmcCheckKind.ASSUME,
                 proof_logging: bool = False) -> None:
        self.model = model
        self.proof_logging = proof_logging
        self.check_kind = check_kind
        self.solver = CdclSolver(proof_logging=proof_logging)
        self.unroller = Unroller(model, self.solver)
        self.depth = 0
        self._group: Optional[int] = None
        # The Γ-partition labels mirror the monolithic builders exactly
        # (repro.bmc.checks): S₀ and frame-f constraints/properties land in
        # partition f+1, the transition out of frame f in f+1, the depth-d
        # target in d+1.  Labels are inert without proof logging, so they
        # are passed unconditionally — a proof-free searcher behaves
        # byte-identically to the historical partition=None encoding.
        self.unroller.assert_initial_state(partition=1)
        if model.constraints:
            self.unroller.assert_constraints_at(0, partition=1)
        self._arm()

    # ------------------------------------------------------------------ #
    # Deepening
    # ------------------------------------------------------------------ #
    def _arm(self) -> None:
        """Assert the depth-specific target under a fresh activation group."""
        self._group = self.solver.new_group()
        depth = self.depth
        if self.check_kind is BmcCheckKind.BOUND and depth >= 1:
            # Bound-mode cones carry their own frame's label (f+1), not the
            # monolithic builder's k+1: stripped bound-k refutations are
            # consumed only at cut 1 (standard interpolation), where every
            # label ≥ 2 is equally on the B side, so the finer labelling is
            # interchangeable with the monolithic one there.
            bad_lits = [self.unroller.bad_literal(frame, partition=frame + 1)
                        for frame in range(1, depth + 1)]
            self.solver.add_clause(bad_lits, partition=depth + 1,
                                   group=self._group)
        else:
            # Exact/assume targets — and depth 0 for every kind — assert the
            # bad cone at the last frame only.
            self.solver.add_clause(
                [self.unroller.bad_literal(depth, partition=depth + 1)],
                partition=depth + 1, group=self._group)

    def extend(self) -> int:
        """Retract the current target, append one transition frame, re-arm.

        Returns the new depth.  Must only be called after the current depth
        has been covered (refuted) — see the class docstring.
        """
        assert self._group is not None
        self.solver.release_group(self._group)
        if self.check_kind is BmcCheckKind.ASSUME and self.depth >= 1:
            # The frame being left behind sits strictly before every future
            # target: its p(Vⁱ) constraint is permanent under bmcᵏ_A.
            self.unroller.assert_property(self.depth,
                                          partition=self.depth + 1)
        self.unroller.add_transition(self.depth, partition=self.depth + 1,
                                     include_constraints=False)
        self.depth += 1
        if self.model.constraints:
            self.unroller.assert_constraints_at(self.depth,
                                                partition=self.depth + 1)
        self._arm()
        return self.depth

    def extend_to(self, depth: int) -> int:
        """Extend (without solving intermediate depths) up to ``depth``."""
        while self.depth < depth:
            self.extend()
        return self.depth

    # ------------------------------------------------------------------ #
    # Solving and witness extraction
    # ------------------------------------------------------------------ #
    def assumptions(self) -> List[int]:
        """The assumption literals activating the current depth's target."""
        assert self._group is not None
        return [self.solver.group_literal(self._group)]

    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional[Budget] = None) -> SatResult:
        """Check the current depth; extra ``assumptions`` are passed through."""
        return self.solver.solve(
            assumptions=self.assumptions() + list(assumptions), budget=budget)

    def extract_trace(self) -> Trace:
        """Build the counterexample trace after a SAT answer."""
        return self.unroller.extract_trace(self.depth)

    @property
    def last_call_stats(self) -> SolverStats:
        """Per-call counters of the most recent :meth:`solve`."""
        return self.solver.last_call_stats


class SuffixUnroller:
    """The nested suffix checks of one bound on one proof-logged solver.

    Serial step ``j`` of Fig. 4 refutes Eq. (3)'s

        Iⱼ₋₁(Vʲ⁻¹) ∧ Aⱼ  ∧  ⋀_{i>j} Aᵢ

    and the parallel remainder refutes ``I_{n_s} ∧ A_{n_s+1} ∧ … ∧ A_{k+1}``
    — suffixes of the same depth-``k`` unrolling that shrink from the left.
    The unroller encodes the absolute frames 1..k once (frame 0 never: the
    first serial element comes from the base refutation) and labels every
    clause with its absolute Γ-partition, exactly as the monolithic
    builders would: frame ``f``'s transition, constraints and assume-mode
    p(Vᶠ) → ``f+1``, the target at frame ``k`` → ``k+1``.

    Tseitin definitions are permanent.  Each frame ``f < k`` gets one
    activation group holding the clauses that *constrain* it — the latch
    links of T(Vᶠ, Vᶠ⁺¹), the invariant constraints, assume-mode p(Vᶠ) and,
    once the step from ``f`` is armed, the seed predicate at ``f``.  The
    target (¬p(Vᵏ) and the constraints at frame ``k``) is permanent; under
    bound-k checks the per-step disjunction ⋁_{f>first} ¬p(Vᶠ) gets a group
    of its own.

    :meth:`advance` arms the suffix from frame ``f`` and permanently
    releases every group below it, so a later refutation can never use the
    Init-free prefix: a clause learned from a released frame carries that
    frame's activation literal and is satisfied for good, and
    :func:`grouped_refutation` rejects a core that touches one
    (:class:`~repro.sat.proof.ActivationDependencyError`).  The stripped
    proof therefore refutes Eq. (3)'s A ∧ B plus, at most, the definitions
    of released frames — gate names over variables nothing else mentions,
    labelled ≤ ``f``, so they only ever join the A side.  Partition labels
    stay absolute: the step from ``f`` cuts at ``f+1`` ("partitions
    ≤ f+1"), and the remainder's cuts are the absolute frames after it.
    """

    def __init__(self, model: Model, depth: int,
                 check_kind: BmcCheckKind = BmcCheckKind.ASSUME) -> None:
        if depth < 2:
            # Depth 1 leaves no frame to seed: frame 0 is never encoded.
            raise ValueError(f"suffix depth must be >= 2, got {depth}")
        self.depth = depth
        self.check_kind = check_kind
        self.solver = CdclSolver(proof_logging=True)
        self.unroller = Unroller(model, self.solver)
        #: The frame the armed suffix starts at (the seed's frame).
        self.first = 1
        #: Activation group of each frame still constrained, by frame.
        self._groups: Dict[int, int] = {}
        #: Bound-k checks only: the armed step's bad-disjunction group.
        self._target: Optional[int] = None
        for frame in range(1, depth):
            group = self.solver.new_group()
            self._groups[frame] = group
            self.unroller.add_transition(frame, partition=frame + 1,
                                         group=group)
            if check_kind is BmcCheckKind.ASSUME:
                self.unroller.assert_property(frame, partition=frame + 1,
                                              group=group)
        if check_kind is not BmcCheckKind.BOUND:
            self.unroller.assert_bad(depth, partition=depth + 1)
        if model.constraints:
            self.unroller.assert_constraints_at(depth, partition=depth + 1)

    def advance(self, frame: int, seed: int) -> None:
        """Arm the suffix check from ``frame``, constrained to ``seed`` there.

        Releases the groups of every frame below ``frame`` for good, then
        asserts the AIG predicate ``seed`` (a cone over latch variables) at
        ``frame`` in that frame's group, partition ``frame + 1``.  Frames
        only move forward.
        """
        if not self.first <= frame < self.depth:
            raise ValueError(f"cannot arm frame {frame}: the armed suffix "
                             f"starts at {self.first}, depth {self.depth}")
        solver = self.solver
        for old in range(self.first, frame):
            solver.release_group(self._groups.pop(old))
        if self._target is not None:
            solver.release_group(self._target)
            self._target = None
        self.first = frame
        self.unroller.assert_formula(seed, frame=frame, partition=frame + 1,
                                     group=self._groups[frame])
        if self.check_kind is BmcCheckKind.BOUND:
            # Bad cones carry their own frame's label, as in the
            # IncrementalUnroller: a serial step cuts the bound-k suffix
            # once, after the seed's partition, where every later label is
            # on the B side alike.
            self._target = solver.new_group()
            solver.add_clause(
                [self.unroller.bad_literal(f, partition=f + 1)
                 for f in range(frame + 1, self.depth + 1)],
                partition=self.depth + 1, group=self._target)

    def assumptions(self) -> List[int]:
        """The activation literals of the armed suffix's groups.

        Listed from the target back to the seed, so the solver commits to
        the B side first and to the seed's frame — the A side of the serial
        cut — last.  The refutations found that way keep their A part near
        the cut and interpolate weaker (more abstract): assuming the seed
        first, sitpseq converges bounds later on the traffic circuits.
        """
        lits = [] if self._target is None else [self._target]
        lits.extend(self._groups[f] for f in range(self.depth - 1,
                                                   self.first - 1, -1))
        return lits

    def cut_var_map(self, frame: int) -> Dict[int, int]:
        """CNF latch variables at absolute ``frame`` → model AIG literals."""
        return self.unroller.cut_var_map(frame)


def grouped_refutation(solver: CdclSolver, active: Sequence[int]
                       ) -> Tuple[ResolutionProof, ActivationStripStats]:
    """The activation-free refutation of ``solver``'s last UNSAT answer,
    obtained under the group literals ``active`` (an unroller's
    :meth:`assumptions`).  Raises
    :class:`~repro.sat.proof.ActivationDependencyError` when the core
    touches any other (released) group.
    """
    root = solver.last_refutation_root()
    if root is None:
        raise SolverError("no refutation recorded (proof logging off, or "
                          "the last answer was not UNSAT)")
    active = set(active)
    return strip_activations(solver.proof(), active,
                             solver.group_vars() - active, root)
