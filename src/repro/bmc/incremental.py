"""Incremental BMC: one persistent solver across all unrolling depths.

The monolithic path (:mod:`repro.bmc.checks`) re-encodes the whole
unrolling S₀ ∧ Tᵏ at every bound, so iterative deepening to depth ``k``
performs O(k²) Tseitin/clause work and every solver starts from scratch —
no learned clauses, no variable activities, no saved phases.  The
:class:`IncrementalUnroller` keeps **one** solver for the whole deepening
run, in the standard incremental layout of one activation literal per
frame (Eén and Sörensson, "Temporal induction by incremental SAT
solving", 2003):

* Tseitin definitions are permanent — they only name gates;
* S₀ sits in an activation group of its own, and each frame ``f`` has one
  group holding the clauses that *constrain* it: the latch links of
  T(Vᶠ, Vᶠ⁺¹), the invariant constraints at ``f`` and, under assume-k,
  p(Vᶠ) (:meth:`~repro.sat.solver.CdclSolver.new_group`);
* one new frame per :meth:`extend` — O(k) total clause work;
* the depth-specific target (the bad cone at the last frame, or the bad
  disjunction for bound-mode checks) has a group of its own, which
  :meth:`extend` releases (:meth:`~repro.sat.solver.CdclSolver.release_group`)
  before the next frame is appended;
* everything the solver learned while refuting depth ``k`` remains in force
  at depth ``k + 1``.

The searcher's own solves assume S₀, the frames bottom-up and the target
(:meth:`assumptions`), so the three check formulations of
:mod:`repro.bmc.checks` hold at every depth exactly as the monolithic
builders state them (modulo activation literals):

* **exact-k** — only the target moves between depths;
* **assume-k** — once the unrolling extends past frame ``i``, ``p(Vⁱ)`` is
  part of every deeper check, exactly as in bmcᵏ_A;
* **bound-k** — the bad-cone disjunction over frames 1..k is re-issued per
  depth under the target group (the cones themselves are cached by the
  frame encoders, so only one clause is new).

With ``proof_logging=True`` the searcher doubles as the **proof-logged
refutation check**: every clause is labelled with the same Γ-partition
index the monolithic builders use (S₀ and T(V⁰,V¹) → 1, T(Vᶠ,Vᶠ⁺¹),
frame-``f`` constraints and assume-mode p(Vᶠ) → ``f+1``, the depth-``d``
target → ``d+1``), and after an UNSAT solve :func:`grouped_refutation`
strips the activation literals from the recorded trace
(:func:`repro.sat.proof.strip_activations`) to produce a genuine labelled
refutation of the monolithic S₀ ∧ Tᵏ ∧ B — the object interpolation
consumes, without a second solve.  Clauses learned at earlier depths
re-enter later refutations as derived chains over the groups still
assumed; a chain that depends on a *released* or unassumed group is
unusable, in which case :func:`grouped_refutation` raises
:class:`~repro.sat.proof.ActivationDependencyError` and the caller falls
back to a fresh monolithic solve (see :mod:`repro.core.base`).

The same unrolling serves the checks that replace a prefix of it by a
predicate: serial interpolation steps and the parallel remainder (Eq. (3)
of Fig. 4) and the image steps of standard interpolation.
:meth:`step` asserts the seed predicate at its frame in a throwaway group
and assumes only the target and the frames from the seed's frame up;
S₀'s group and every frame group below the seed are assumed *false*.  No
clause contains a positive activation literal, so those negations
propagate nothing; they keep the solver from deciding the groups true,
and :func:`grouped_refutation` rejects any core that touches them.  A
stripped step refutation therefore refutes exactly the suffix from the
seed's frame, plus, at most, definitions of gates below it — names over
variables nothing else mentions, labelled at or below the seed's
partition, so they only ever join the A side of the step's cuts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from ..aig.model import Model
from ..sat.proof import (ActivationStripStats, ResolutionProof,
                         strip_activations)
from ..sat.solver import CdclSolver, SolverError
from ..sat.types import Budget, SatResult
from .cex import Trace
from .checks import BmcCheckKind
from .unroll import Unroller

__all__ = ["IncrementalUnroller", "grouped_refutation"]


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
    skipped deliberately): in assume-mode it asserts the property at the
    frame being left behind, which is sound precisely because iterative
    deepening visits depths in order.
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
        # The Γ-partition labels mirror the monolithic builders exactly
        # (repro.bmc.checks): S₀ and frame-f constraints/properties land in
        # partition f+1, the transition out of frame f in f+1, the depth-d
        # target in d+1.  Labels are inert without proof logging, so they
        # are passed unconditionally.
        self._init = self.solver.new_group()
        self.unroller.assert_initial_state(partition=1, group=self._init)
        #: Activation group of each frame 0..depth, by frame.
        self._frames: List[int] = []
        self._open_frame()
        self._target = self._arm()

    # ------------------------------------------------------------------ #
    # Deepening
    # ------------------------------------------------------------------ #
    def _open_frame(self) -> None:
        """Open the group of the frame just reached, with its constraints."""
        group = self.solver.new_group()
        self._frames.append(group)
        if self.model.constraints:
            self.unroller.assert_constraints_at(
                self.depth, partition=self.depth + 1, group=group)

    def _arm(self) -> int:
        """Assert the depth-specific target under a fresh group; return it."""
        group = self.solver.new_group()
        depth = self.depth
        if self.check_kind is BmcCheckKind.BOUND and depth >= 1:
            # Bound-mode cones carry their own frame's label (f+1), not the
            # monolithic builder's k+1: stripped bound-k refutations are
            # consumed only at cut 1 (standard interpolation), where every
            # label ≥ 2 is equally on the B side, so the finer labelling is
            # interchangeable with the monolithic one there.
            bad_lits = [self.unroller.bad_literal(frame, partition=frame + 1)
                        for frame in range(1, depth + 1)]
            self.solver.add_clause(bad_lits, partition=depth + 1, group=group)
        else:
            # Exact/assume targets — and depth 0 for every kind — assert the
            # bad cone at the last frame only.
            self.solver.add_clause(
                [self.unroller.bad_literal(depth, partition=depth + 1)],
                partition=depth + 1, group=group)
        return group

    def extend(self) -> int:
        """Retract the current target, append one transition frame, re-arm.

        Returns the new depth.  Must only be called after the current depth
        has been covered (refuted) — see the class docstring.
        """
        self.solver.release_group(self._target)
        depth, group = self.depth, self._frames[-1]
        if self.check_kind is BmcCheckKind.ASSUME and depth >= 1:
            # The frame being left behind sits strictly before every future
            # target: its p(Vⁱ) constraint belongs to every deeper bmcᵏ_A.
            self.unroller.assert_property(depth, partition=depth + 1,
                                          group=group)
        self.unroller.add_transition(depth, partition=depth + 1,
                                     include_constraints=False, group=group)
        self.depth += 1
        self._open_frame()
        self._target = self._arm()
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
        """The current depth's check: S₀, the frames bottom-up, the target.

        A deeper check's list extends the shallower one's before its
        target, so the solver's kept assumption trail carries S₀ and the
        frames across bounds.
        """
        return [self._init, *self._frames, self._target]

    @contextmanager
    def step(self, frame: int, seed: int) -> Iterator[List[int]]:
        """The current depth's check with ``seed`` in place of the prefix
        below ``frame``.

        Asserts the AIG predicate ``seed`` (a cone over latch variables) at
        ``frame``, in partition ``frame + 1``, under a throwaway group, and
        yields the assumptions to solve under: the target, the frames from
        the top down to ``frame``, then the seed group — so consecutive
        steps share the target and the upper frames — followed by the
        negations of S₀'s group and of every frame group below ``frame``.
        The positive literals are the groups a refutation may use
        (:func:`grouped_refutation`).  The seed group is released when the
        block exits, so strip inside it.
        """
        if not 0 <= frame < self.depth:
            raise ValueError(f"cannot seed frame {frame} of a depth-"
                             f"{self.depth} unrolling")
        solver = self.solver
        seed_group = solver.new_group()
        self.unroller.assert_formula(seed, frame=frame, partition=frame + 1,
                                     group=seed_group)
        below = [self._init, *self._frames[:frame]]
        try:
            yield ([self._target, *reversed(self._frames[frame:]), seed_group]
                   + [-group for group in below])
        finally:
            solver.release_group(seed_group)

    def solve(self, assumptions: Sequence[int] = (),
              budget: Optional[Budget] = None) -> SatResult:
        """Check the current depth; extra ``assumptions`` are passed through."""
        return self.solver.solve(
            assumptions=self.assumptions() + list(assumptions), budget=budget)

    def extract_trace(self) -> Trace:
        """Build the counterexample trace after a SAT answer."""
        return self.unroller.extract_trace(self.depth)


def grouped_refutation(solver: CdclSolver, assumptions: Sequence[int]
                       ) -> Tuple[ResolutionProof, ActivationStripStats]:
    """The activation-free refutation of ``solver``'s last UNSAT answer,
    obtained under ``assumptions`` (an unroller's :meth:`assumptions`, or
    a :meth:`~IncrementalUnroller.step`'s).  Its positive literals are the
    groups the core may use.  Raises
    :class:`~repro.sat.proof.ActivationDependencyError` when the core
    touches any other group — released, or held false.
    """
    root = solver.last_refutation_root()
    if root is None:
        raise SolverError("no refutation recorded (proof logging off, or "
                          "the last answer was not UNSAT)")
    active = {lit for lit in assumptions if lit > 0}
    return strip_activations(solver.proof(), active,
                             solver.group_vars() - active, root)
