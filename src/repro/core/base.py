"""Shared machinery for the engine front-ends.

The six front-ends (standard interpolation, parallel/serial interpolation
sequences, sequences + CBA, PDR and the BMC falsifier
:class:`~repro.bmc.engine.BmcEngine`) are :class:`UmcEngine` subclasses.
The base gives them, as each one needs it:

* an engine-private copy of the model's AIG into which interpolants are
  materialised (so a run never mutates the caller's circuit) — by default
  the copy is first shrunk by the preprocessing pipeline
  (:mod:`repro.preprocess`), and counterexamples found on the reduced
  model are lifted back to the original variables before validation;
* the initial-state predicate S₀ as an AIG cone over latch variables;
* SAT-based containment checks between AIG predicates, all on one
  *persistent* per-run :class:`~repro.core.fixpoint.FixpointChecker`
  whose incremental Tseitin encoding pays for each accumulated cone once,
  and whose witness filter answers most "not contained" checks from its
  earlier SAT models without solving;
* the shared *interpolant lifecycle*: refutations are post-processed
  (core trimming + RecyclePivots, :meth:`UmcEngine._trim_proof`) before
  extraction — the stripped and the trimmed proof share the solver
  trace's original clauses and walk only the refutation's core, and
  extraction reads variable spans from the trace's clause index — and
  every freshly extracted interpolant cone is structurally
  compacted (:meth:`UmcEngine._register_interpolant`) before it enters the
  reachable-set accumulation;
* a shared *incremental counterexample search*
  (:meth:`UmcEngine._search_counterexample`): one persistent
  :class:`~repro.bmc.incremental.IncrementalUnroller` per engine run that
  extends frame by frame with the outer bound and carries learned clauses,
  activities and phases across bounds;
* one bound-refutation path (:meth:`UmcEngine._bound_refutation`): the
  searcher's own refutation, or a fresh proof-logged check with its
  FAIL, retraction and publish steps;
* resource accounting (wall-clock budget → *overflow*, per-call conflict
  budgets, one clause/propagation account for every SAT path) and the
  uniform :class:`VerificationResult` packaging.

One unrolling per run: the search *is* the refutation check
----------------------------------------------------------
Interpolant extraction needs a resolution refutation of the *monolithic*
partition-labelled formula S₀ ∧ Tᵏ ∧ B.  Historically the incremental
search could not provide one — its depth target lives under an assumed
activation literal, so every learned clause (and the "refutation")
carried that literal and refuted only the augmented formula — and the
engines paid **two SAT solves per bound**: the cheap incremental search
answered SAT-or-UNSAT, then a fresh proof-logging solver re-derived the
same UNSAT purely for the labelled refutation.

On a solo run the split is gone.  The persistent searcher runs with
proof logging on and real Γ-partition labels
(:class:`~repro.bmc.incremental.IncrementalUnroller` labels its frames
exactly as the monolithic builders do), and on UNSAT
:func:`repro.sat.proof.strip_activations` deletes the activation
literals from the recorded trace — sound because activation variables
are never resolution pivots, so stripping commutes with every recorded
step.  Clauses learned at earlier bounds enter later refutations as
derived chains over labelled clauses, exactly the case the old design
could not label.  CBA's abstract searcher refutes its bounds the same
way, and serial steps, the parallel remainder and ITP's image steps
re-seed the same unrolling (:meth:`UmcEngine._step_refutation`), so a
run encodes each frame once; all strip through
:meth:`UmcEngine._strip_refutation`.  The fresh-solver path survives in
two roles:

* **fallback** — a stripped chain can depend on a group the check must
  not use; the strip then returns ``None`` (counted in
  ``proof_group_fallbacks``) and the caller builds the fresh check;
* **share-attached runs** — while a share port is attached the searchers
  log no proof, and every bound and step is solved on a fresh check
  (:meth:`UmcEngine._group_proof_active` says why).
"""

from __future__ import annotations

import logging
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from ..aig.aig import Aig, lit_is_const, lit_negate
from ..aig.model import Model
from ..bmc.cex import Trace
from ..bmc.checks import BmcCheckKind
from ..bmc.incremental import IncrementalUnroller, grouped_refutation
from ..bmc.unroll import Unroller
from ..cnf.tseitin import TseitinEncoder
from ..itp.compact import compact_cone
from ..obs.tracer import NULL_TRACER, NullTracer
from ..preprocess.passes import PreprocessResult, build_pipeline
from ..sat.proof import ActivationDependencyError, ResolutionProof, reduce_proof
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult, SolverStats
from ..share.adapt import ImportValidator
from ..share.bus import SharePort
from ..share.lemma import DepthLemma, Lemma, model_fingerprint
from .fixpoint import FixpointChecker
from .options import EngineOptions
from .result import SPAN_COUNTERS, EngineStats, Verdict, VerificationResult

__all__ = ["OutOfBudget", "initial_states_predicate", "implies", "UmcEngine"]

_log = logging.getLogger("repro.core.base")


class OutOfBudget(RuntimeError):
    """Raised internally when the run exceeds its wall-clock or SAT budget."""

    def __init__(self, bound: Optional[int] = None) -> None:
        super().__init__("verification budget exhausted")
        self.bound = bound


def initial_states_predicate(model: Model) -> int:
    """Build S₀ as an AIG literal over the model's latch variables.

    Uninitialised latches contribute no constraint (they are free at time 0).
    """
    aig = model.aig
    terms = []
    for latch in model.latches:
        if latch.init is None:
            continue
        lit = latch.lit()
        terms.append(lit if latch.init else lit_negate(lit))
    return aig.op_and(*terms)


def implies(aig: Aig, antecedent: int, consequent: int) -> bool:
    """Decide ``antecedent ⇒ consequent`` for two predicates in the same AIG.

    Both predicates are interpreted over the same (free) leaf valuation, so
    the check encodes the cones with a shared Tseitin instance into a fresh
    solver and asks whether ``antecedent ∧ ¬consequent`` is satisfiable.
    The engines never call this: their containment checks run on the
    persistent :class:`~repro.core.fixpoint.FixpointChecker`.  It stays as
    the public one-shot check and as the reference oracle the checker is
    tested against.
    """
    solver = CdclSolver()
    encoder = TseitinEncoder(aig, solver.new_var, solver.add_cnf,
                             allocate_leaves=True)
    a_lit = encoder.literal(antecedent)
    c_lit = encoder.literal(consequent)
    solver.add_clause([a_lit])
    solver.add_clause([-c_lit])
    return solver.solve() is SatResult.UNSAT


class UmcEngine:
    """Base class: resource accounting and result packaging."""

    name = "umc"

    #: Statistic groups this engine can structurally populate — the CLI's
    #: grouped ``--stats`` rendering shows exactly these (see
    #: :meth:`repro.core.result.EngineStats.grouped`).
    stat_groups = ("solver", "preprocess", "lifecycle", "share")

    def __init__(self, model: Model, options: Optional[EngineOptions] = None,
                 tracer: Optional[NullTracer] = None,
                 share: Optional[SharePort] = None) -> None:
        self._source_model = model
        self.options = options or EngineOptions()
        #: The run's span tracer (default: the no-op NullTracer).  Counter
        #: deltas are sampled from the *live* ``self.stats`` — the sampler
        #: reads the attribute on every call, so ``run()`` replacing the
        #: stats object is transparent to open spans.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = EngineStats()
        self.tracer.bind_counters(lambda: self.stats.sample(SPAN_COUNTERS))
        #: Pipeline outcome when preprocessing ran (None otherwise); carries
        #: the ModelMap that lifts reduced-model traces back (see _fail).
        self.preprocess: Optional[PreprocessResult] = None
        #: Wall clock spent preprocessing at construction; charged against
        #: the run's time budget and reported time (see run()).
        self._preprocess_seconds = 0.0
        construction_started = time.monotonic()
        if self.options.preprocess:
            with self.tracer.span("preprocess", engine=self.name,
                                  model=model.name):
                pipeline = build_pipeline(self.options.preprocess_passes)
                self.preprocess = pipeline.run(model, tracer=self.tracer)
            # The pipeline hands out a private model (engines add
            # interpolant cones to the AIG, so it must never be shared).
            self.aig = self.preprocess.model.aig
            self.model = self.preprocess.model
        else:
            # No preprocessing: work on a private copy of the caller's AIG.
            self.aig = model.aig.copy()
            self.model = Model(self.aig, model.property_index, name=model.name)
        self._preprocess_seconds = time.monotonic() - construction_started
        self._start_time = 0.0
        self._current_bound: Optional[int] = None
        #: Persistent (proof-free) incremental BMC search over self.model.
        self._cex_searcher: Optional[IncrementalUnroller] = None
        #: Persistent incremental containment checker over self.aig (the
        #: R-accumulation fixpoint tests; see repro.core.fixpoint).
        self._fixpoint_checker: Optional[FixpointChecker] = None
        #: The AIG interpolants were last compacted into, and the rewrite
        #: map kept for it (see _register_interpolant).
        self._rewrite_aig: Optional[Aig] = None
        self._rewrite_map: Dict[int, int] = {}
        #: Share-bus endpoint for cooperative portfolio runs (None = solo;
        #: see the "Cooperative lemma sharing" section below).
        self.share: Optional[SharePort] = share
        self._share_validator: Optional[ImportValidator] = None
        #: Largest counterexample depth foreign DepthLemmas have ruled out.
        self._share_depth = -1
        self._share_published_depth = -1
        self._share_distrust = False
        if self.share is not None:
            self._share_attach()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _bound_span(self, bound: int):
        """The per-bound structural span (mirrored as a DEBUG log line)."""
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s/%s: bound %d (clauses=%d propagations=%d)",
                       self.name, self.model.name, bound,
                       self.stats.clauses_added, self.stats.propagations)
        return self.tracer.span("bound", bound=bound)

    def _sat_call_point(self, call: SolverStats) -> None:
        """Per-SAT-call profile event; caller phase = the enclosing span."""
        self.tracer.point("sat_call", conflicts=call.conflicts,
                          propagations=call.propagations,
                          clauses_added=call.clauses_added)

    # ------------------------------------------------------------------ #
    # Resource handling
    # ------------------------------------------------------------------ #
    def _elapsed(self) -> float:
        return time.monotonic() - self._start_time

    def _remaining_time(self) -> Optional[float]:
        if self.options.time_limit is None:
            return None
        return self.options.time_limit - self._elapsed()

    def _check_budget(self) -> None:
        remaining = self._remaining_time()
        if remaining is not None and remaining <= 0:
            raise OutOfBudget(self._current_bound)

    def _sat_budget(self) -> Budget:
        return Budget(max_conflicts=self.options.conflict_limit,
                      max_time=self._remaining_time())

    def _solve(self, solver: CdclSolver, assumptions: Iterable[int] = ()) -> SatResult:
        """Run a SAT query under the remaining budget, updating statistics."""
        result = self._try_solve(solver, assumptions)
        if result is SatResult.UNKNOWN:
            raise OutOfBudget(self._current_bound)
        return result

    def _try_solve(self, solver: CdclSolver,
                   assumptions: Iterable[int] = ()) -> SatResult:
        """:meth:`_solve`, except that a call the per-call budget cut short
        returns UNKNOWN instead of ending the run (CBA's EXTEND queries
        treat it as an unguided refinement)."""
        self._check_budget()
        started = time.monotonic()
        result = solver.solve(assumptions=list(assumptions), budget=self._sat_budget())
        self.stats.sat_calls += 1
        self.stats.sat_time += time.monotonic() - started
        self._account_call(solver.last_call_stats)
        self._check_counter_budgets()
        return result

    def _account_call(self, call: SolverStats) -> None:
        """Fold one SAT call's counters into the run's statistics.

        Every SAT path reports here — the engines' own solvers and the
        persistent fixpoint checker — so the deterministic budgets
        (:meth:`_check_counter_budgets`) see all solver work,
        containment-check encodings included.
        """
        self.stats.clauses_added += call.clauses_added
        self.stats.conflicts += call.conflicts
        self.stats.propagations += call.propagations
        self.stats.max_call_conflicts = max(self.stats.max_call_conflicts,
                                            call.conflicts)
        if self.tracer.enabled:
            self._sat_call_point(call)

    def _check_counter_budgets(self) -> None:
        """Raise :class:`OutOfBudget` once a cumulative SAT counter is over.

        Unlike the wall clock, cumulative solver counters trip at the same
        query on every machine, so resource-bounded runs (and their
        artefacts) stay reproducible.  Clause additions bind on
        encoding-heavy runs, propagations on search-heavy ones; both are
        checked after each completed call.
        """
        if (self.options.max_clauses is not None
                and self.stats.clauses_added > self.options.max_clauses):
            raise OutOfBudget(self._current_bound)
        if (self.options.max_propagations is not None
                and self.stats.propagations > self.options.max_propagations):
            raise OutOfBudget(self._current_bound)

    def _implies(self, antecedent: int, consequent: int) -> bool:
        """Containment check on the run's persistent :class:`FixpointChecker`.

        Only the gates no earlier check encoded are Tseitin-encoded, so the
        R-accumulation sequence pays for each interpolant cone once instead
        of once per remaining iteration.  The solver's per-call counters
        (which include the clauses the encoder streamed in since the last
        solve) fold into the run's statistics: the encoding of large
        interpolant cones is a real — on interpolant-heavy runs dominant —
        cost, and the deterministic budgets must see it or a blowing-up
        run would never trip them.

        A check the checker's witness filter answers ran no solve: it
        counts in ``fixpoint_witness_hits`` only, since the solver's
        ``last_call_stats`` still describe the previous solve.
        """
        self._check_budget()
        self.stats.containment_checks += 1
        with self.tracer.span("containment"):
            if self._fixpoint_checker is None:
                self._fixpoint_checker = FixpointChecker(self.aig)
            checker = self._fixpoint_checker
            reused_before = checker.encodings_reused
            hits_before = checker.witness_hits
            started = time.monotonic()
            try:
                result = checker.implies(antecedent, consequent,
                                         budget=self._sat_budget())
            finally:
                hit = checker.witness_hits != hits_before
                if not hit:
                    self.stats.sat_time += time.monotonic() - started
                    self.stats.sat_calls += 1
            if hit:
                self.stats.fixpoint_witness_hits += 1
                if self.tracer.enabled:
                    self.tracer.point("witness_hit")
                return False
            self._account_call(checker.solver.last_call_stats)
            self.stats.fixpoint_encodings_reused += (checker.encodings_reused
                                                     - reused_before)
            if result is SatResult.UNKNOWN:
                raise OutOfBudget(self._current_bound)
            self._check_counter_budgets()
            return result is SatResult.UNSAT

    def _shed_fixpoint_groups(self, live_roots: Iterable[int]) -> None:
        """Shed fixpoint-checker clause groups no live root observes.

        The sequence engines call this once per outer iteration with every
        predicate a future containment check may mention (S₀, the current
        columns, the remaining matrix elements): column strengthening
        replaces ``columns[j]``'s cone wholesale, so the superseded cone's
        encoding groups would otherwise stay assumed — and their clauses
        watched — for the rest of the run.  See
        :meth:`repro.core.fixpoint.FixpointChecker.shed_superseded`; a
        no-op until the first incremental containment check exists.
        """
        if self._fixpoint_checker is None:
            return
        shed = self._fixpoint_checker.shed_superseded(live_roots)
        self.stats.fixpoint_groups_shed += shed
        if shed and self.tracer.enabled:
            self.tracer.point("group_shed", groups=shed)

    def _note_interpolant(self, itp_nodes: int) -> None:
        self.stats.itp_extractions += 1
        self.stats.itp_nodes += itp_nodes

    # ------------------------------------------------------------------ #
    # Interpolant lifecycle (proof trimming + cone compaction)
    # ------------------------------------------------------------------ #
    def _trim_proof(self, proof: ResolutionProof) -> ResolutionProof:
        """Post-process a refutation before interpolant extraction.

        Every refutation gets core trimming plus the RecyclePivots
        redundant-pivot pass (:func:`repro.sat.proof.reduce_proof`), so
        every extraction replays a smaller derivation DAG.  The node
        reduction accumulates in ``stats.proof_nodes_trimmed``.
        """
        with self.tracer.span("proof_trim"):
            reduced, reduction = reduce_proof(proof)
        self.stats.proof_nodes_trimmed += reduction.nodes_trimmed
        if self.tracer.enabled:
            self.tracer.point("proof_trimmed",
                              nodes=reduction.nodes_trimmed)
        return reduced

    def _register_interpolant(self, aig: Aig, itp_lit: int) -> int:
        """Compact and account one freshly extracted interpolant.

        Returns the literal the engine should use from here on: the cone is
        rebuilt through the rewriting rules
        (:func:`repro.itp.compact.compact_cone`) before it is disjoined
        into R — the one place structural sharing compounds, since every
        later containment check reads R's cone.  The rewrite map is kept
        per AIG across calls, keyed by the AIG object itself: CBA compacts
        into an abstract AIG that refinement replaces, and a replaced AIG
        starts a fresh map.
        """
        itp_nodes = 0
        if not lit_is_const(itp_lit):
            if self._rewrite_aig is not aig:
                self._rewrite_aig = aig
                self._rewrite_map = {}
            with self.tracer.span("compact"):
                compaction = compact_cone(aig, itp_lit, self._rewrite_map)
            self.stats.itp_ands_compacted += compaction.saved
            itp_lit = compaction.lit
            itp_nodes = compaction.ands_after
        self._note_interpolant(itp_nodes)
        return itp_lit

    # ------------------------------------------------------------------ #
    # Incremental counterexample search (shared by every engine)
    # ------------------------------------------------------------------ #
    def _group_proof_active(self) -> bool:
        """Whether this run's searchers double as its refutation checks.

        The one place the choice is made: true unless a share port is
        attached; searchers built while it is false log no proof, and every
        refutation then runs on a fresh check.  Soundness does not need the
        suspension (foreign depth facts only skip solves and never enter a
        solver); the race benchmark does.  With group proof the search *is*
        the bound's refutation, so a search a depth fact skips comes back
        as a fresh proof-logged solve.  Measured with the suspension
        lifted, the cooperative race on indA1_ring12 adds 54,044 clauses,
        past the ``race_sharing`` no-harm bound of 51,153 × 1.05 + 150;
        lifted together with imports into the interpolation engines, the
        16-cell race costs about a tenth of its clauses but misses the
        benchmark's 25% gain floors on mutexbug and ctrldp08bug.
        """
        return self.share is None

    def _cex_check_kind(self) -> BmcCheckKind:
        """The check formulation the persistent searcher unrolls."""
        return self.options.bmc_check

    def _cex_search_unroller(self) -> IncrementalUnroller:
        """The engine's persistent BMC search over ``self.model``.

        Proof-free unless the run reuses the search as its proof-logged
        refutation check (:meth:`_group_proof_active`).
        """
        if self._cex_searcher is None:
            self._cex_searcher = IncrementalUnroller(
                self.model, check_kind=self._cex_check_kind(),
                proof_logging=self._group_proof_active())
        return self._cex_searcher

    def _strip_refutation(self, solver: CdclSolver,
                          assumptions: Sequence[int], bound: int,
                          **fields) -> Optional[ResolutionProof]:
        """The trimmed, stripped refutation of ``solver``'s last UNSAT
        answer under ``assumptions`` (``bound`` and ``fields`` label the
        trace points), or ``None`` when a core chain depends on a group
        outside them (``proof_group_fallbacks``): the caller then solves a
        fresh proof-logged check instead."""
        try:
            with self.tracer.span("proof_strip", bound=bound):
                proof, strip = grouped_refutation(solver, assumptions)
        except ActivationDependencyError:
            self.stats.proof_group_fallbacks += 1
            if self.tracer.enabled:
                self.tracer.point("group_proof_fallback", bound=bound,
                                  **fields)
            return None
        self.stats.proof_chains_stripped += strip.chains_stripped
        if self.tracer.enabled:
            self.tracer.point("group_proof", bound=bound, **fields,
                              chains_stripped=strip.chains_stripped,
                              literals_stripped=strip.literals_stripped)
        return self._trim_proof(proof)

    def _group_refutation(self, searcher: IncrementalUnroller,
                          bound: int) -> Optional[ResolutionProof]:
        """The trimmed refutation of ``bound`` from a searcher's own trace.

        Valid right after ``searcher`` (the engine's, or CBA's abstract
        one) answered UNSAT at ``bound`` with its proof logged: that answer
        is the UNSAT the bound's refutation check would re-derive, so its
        stripped trace *is* the labelled refutation of the monolithic
        S₀ ∧ Tᵏ ∧ B, and the fresh-solver solve is skipped
        (``proof_group_solves_saved``).

        Returns ``None`` when the searcher logs no proof, did not refute
        ``bound``, or the strip rejected the trace — the caller then falls
        back to the fresh monolithic proof-logged check.
        """
        if not searcher.proof_logging or searcher.depth != bound:
            return None
        proof = self._strip_refutation(searcher.solver, searcher.assumptions(),
                                       bound)
        if proof is not None:
            self.stats.proof_group_solves_saved += 1
        return proof

    def _bound_refutation(self, k: int
                          ) -> Union[Tuple[ResolutionProof, Unroller],
                                     VerificationResult]:
        """Bound ``k``'s trimmed refutation and the unroller serving its
        cuts, or the FAIL result; call after a ``None`` search at ``k``.

        The searcher's own trace serves when it can
        (:meth:`_group_refutation`); otherwise :meth:`_refutation_check`
        runs on a fresh solver.  That solver saw no foreign fact, so its
        model is a genuine counterexample and any imports that skipped the
        search past it are retracted; its UNSAT answer is published as a
        depth fact.  Refutation and trimming are separate cooperative
        turns: one bound as a single turn overshoots the turnstile's
        progress clock on small instances.
        """
        proof = self._group_refutation(self._cex_searcher, k)
        if proof is not None:
            return proof, self._cex_searcher.unroller
        self._share_yield()
        with self.tracer.span("refutation"):
            unroller = self._refutation_check(k)
            sat = self._solve(unroller.solver) is SatResult.SAT
        if sat:
            depth = self._failure_depth(unroller, k)
            self._share_check_disagreement(depth)
            return self._fail(depth, unroller.extract_trace(depth))
        self._share_publish_depth(k)
        self._share_yield()
        return self._trim_proof(unroller.solver.proof()), unroller

    def _step_refutation(self, searcher: IncrementalUnroller, frame: int,
                         seed: int, fallback: Callable[[], Unroller],
                         **fields
                         ) -> Optional[Tuple[ResolutionProof, Unroller]]:
        """Refute ``searcher``'s current check with ``seed`` in place of the
        prefix below ``frame`` (:meth:`IncrementalUnroller.step`): the
        trimmed refutation and the unroller serving its cuts, or ``None``
        when satisfiable.  A proof-free searcher or a rejected strip falls
        back to ``fallback()``, a fresh check of the same suffix."""
        if searcher.proof_logging:
            with searcher.step(frame, seed) as assumptions:
                if self._solve(searcher.solver, assumptions) is SatResult.SAT:
                    return None
                proof = self._strip_refutation(searcher.solver, assumptions,
                                               searcher.depth, **fields)
            if proof is not None:
                return proof, searcher.unroller
        unroller = fallback()
        if self._solve(unroller.solver) is SatResult.SAT:
            return None
        # Refutation and trimming are separate cooperative turns, as in
        # _bound_refutation.
        self._share_yield()
        return self._trim_proof(unroller.solver.proof()), unroller

    def _refutation_check(self, k: int) -> Unroller:
        """Build bound ``k``'s proof-logged refutation check, unsolved."""
        raise NotImplementedError

    def _failure_depth(self, unroller: Unroller, k: int) -> int:
        """The counterexample depth of a satisfiable refutation check."""
        return k

    def _search_counterexample(self, bound: int) -> Optional[Trace]:
        """Look for a counterexample at ``bound`` on the persistent solver.

        Returns the trace on SAT, ``None`` on UNSAT.  Engines call this once
        per outer bound *before* building the proof-logged check: on UNSAT
        the refutation check is guaranteed UNSAT as well (the incremental
        formula is the monolithic one modulo activation literals), so the
        expensive proof-logged solve never has to hunt for a model.
        """
        if self.share is not None and bound <= self._share_depth:
            # A foreign DepthLemma already covers this bound, so the search
            # would come back UNSAT.  Skip the solve *and* the searcher
            # extension: extend() tolerates deliberately skipped depths, and
            # the first uncovered bound extends straight through the gap.
            self.stats.share_solves_skipped += 1
            if self.tracer.enabled:
                self.tracer.point("share_skip", bound=bound)
            return None
        searcher = self._cex_search_unroller()
        with self.tracer.span("cex_search"):
            searcher.extend_to(bound)
            if self._solve(searcher.solver,
                           searcher.assumptions()) is SatResult.SAT:
                return searcher.extract_trace()
        return None

    # ------------------------------------------------------------------ #
    # Cooperative lemma sharing
    # ------------------------------------------------------------------ #
    # The sharing contract (always on when a port is attached): a foreign
    # depth fact only ever skips a solve of the *proof-free* counterexample
    # searcher whose answer it already decides, and the proof-logged
    # refutation checks never see one — so interpolants, and with them
    # k_fp/j_fp, are identical to a solo run.  Even a lie that slips past
    # validation can only skip a search that would have come back SAT; the
    # proof-logged check then finds the genuine counterexample anyway and
    # _share_check_disagreement retracts every import.

    def _share_attach(self) -> None:
        """Join the bus: fingerprint handshake + validation precompute."""
        assert self.share is not None
        fingerprint = model_fingerprint(self.model)
        if not self.share.register_fingerprint(fingerprint):
            _log.warning("%s: share fingerprint mismatch on %s — sharing "
                         "disabled for this run", self.name, self.model.name)
            self.share = None
            return
        # Precompute the validation simulation now, while the AIG is still
        # the pristine reduced model (engines bloat their private AIGs with
        # interpolant cones later, and simulating those is pure waste).
        self._share_validator = ImportValidator(self.model)
        self._share_validator.prepare()

    def _share_sync(self, boundary: int) -> None:
        """Exchange lemmas with the bus at a bound/obligation boundary.

        Imports are applied *only* here, and every accepted batch is
        committed back keyed by ``boundary`` — which is exactly what makes
        a recorded run replayable (:mod:`repro.share.log`).  May raise
        :class:`repro.share.bus.ShareCancelled` when the surrounding race
        already ended.
        """
        if self.share is None:
            return
        delivered = self.share.sync(boundary)
        if not delivered:
            return
        accepted: List[int] = []
        for shared in delivered:
            reason: Optional[str] = None
            if self._share_distrust:
                reason = "imports distrusted after a disagreement"
            elif self._share_validator is not None:
                reason = self._share_validator.reject_reason(shared.lemma)
            if reason is not None:
                self.stats.lemmas_retracted += 1
                if self.tracer.enabled:
                    self.tracer.point("share_reject", seq=shared.seq,
                                      source=shared.source,
                                      kind=shared.lemma.kind, reason=reason)
                continue
            if not self._share_apply(shared.lemma):
                continue  # sound but not usable by this engine: not accepted
            accepted.append(shared.seq)
            self.stats.lemmas_rx += 1
            if self.tracer.enabled:
                self.tracer.point("share_rx", seq=shared.seq,
                                  source=shared.source, kind=shared.lemma.kind)
        if accepted:
            self.share.commit(boundary, accepted)

    def _share_yield(self) -> None:
        """Heartbeat between solves inside one boundary (no lemma traffic).

        Keeps the cooperative turnstile's work clock fair for
        engines whose boundaries span many solver calls; a no-op solo and
        on every non-cooperative port.  May raise
        :class:`~repro.share.bus.ShareCancelled` mid-boundary — exactly
        the point: a racing loser is preempted between solves, not only at
        its next import boundary.
        """
        if self.share is not None:
            self.share.yield_turn()

    def _share_apply(self, lemma: Lemma) -> bool:
        """Stage one validated foreign depth fact; ``False`` = not usable here.

        Base policy: the fact gates the searcher's solves
        (:meth:`_search_counterexample` skips every bound it covers).
        """
        self._share_depth = max(self._share_depth, lemma.depth)
        return True

    def _share_publish(self, lemma: Lemma) -> None:
        """Offer a lemma to the bus (no-op for solo runs)."""
        if self.share is None:
            return
        self.share.publish(lemma)
        self.stats.lemmas_tx += 1
        if self.tracer.enabled:
            self.tracer.point("share_tx", kind=lemma.kind)

    def _share_publish_depth(self, depth: int) -> None:
        """Publish "no counterexample of length ≤ depth", once per frontier.

        Callers guarantee coverage of every length up to ``depth``: engines
        deepen strictly (each bound refuted in turn), and any skipped bound
        was covered by the foreign DepthLemma that caused the skip.
        """
        if self.share is None or depth <= self._share_published_depth:
            return
        self._share_published_depth = depth
        self._share_publish(DepthLemma(depth))

    def _share_check_disagreement(self, bound: int) -> None:
        """Retract every foreign import after a searcher/proof-check split.

        Called when the proof-logged check found a model at a bound the
        share-aware searcher skipped or refuted.  The proof-logged solver
        saw no foreign fact, so its model is a genuine counterexample and
        the FAIL verdict stands regardless; the imports — which claimed the
        bound unreachable — are distrusted wholesale: the staged depth is
        dropped and no later delivery is accepted.
        """
        if self.share is None or bound > self._share_depth:
            return
        retracted = self.stats.lemmas_rx
        self._share_depth = -1
        self._share_distrust = True
        self.stats.lemmas_retracted += retracted
        if self.tracer.enabled:
            self.tracer.point("share_retract", bound=bound, lemmas=retracted)
        _log.warning("%s: foreign lemmas disagreed with the proof-logged "
                     "check at bound %d — %d import(s) retracted",
                     self.name, bound, retracted)

    # ------------------------------------------------------------------ #
    # Depth-0 check
    # ------------------------------------------------------------------ #
    def _depth_zero_trace(self) -> Optional[Trace]:
        """Return a depth-0 counterexample if an initial state violates p.

        The paper's algorithms start from k = 1, so every engine performs
        this check once up front; it also seeds the persistent incremental
        searcher.
        """
        return self._search_counterexample(0)

    # ------------------------------------------------------------------ #
    # Result packaging
    # ------------------------------------------------------------------ #
    def run(self) -> VerificationResult:
        """Execute the engine and return a :class:`VerificationResult`.

        The wall clock spent preprocessing the model at construction is
        charged here — it counts against ``options.time_limit`` and shows
        up in ``result.time_seconds`` — so preprocess-on and preprocess-off
        runs compare on their true total cost.
        """
        self._start_time = time.monotonic() - self._preprocess_seconds
        self.stats = EngineStats()
        if self.preprocess is not None:
            self.stats.pre_inputs_removed = self.preprocess.inputs_removed
            self.stats.pre_latches_removed = self.preprocess.latches_removed
            self.stats.pre_ands_removed = self.preprocess.ands_removed
            self.stats.fraig_classes = self.preprocess.fraig_classes
            self.stats.fraig_merges = self.preprocess.fraig_merges
            self.stats.fraig_sat_confirms = self.preprocess.fraig_sat_confirms
        self._cex_searcher = None
        self._fixpoint_checker = None
        # Foreign-lemma state is per-run.
        self._share_depth = -1
        self._share_published_depth = -1
        self._share_distrust = False
        _log.info("%s: run starting on %s", self.name, self.model.name)
        try:
            with self.tracer.span("run", engine=self.name,
                                  model=self.model.name):
                result = self._run()
        except OutOfBudget as exc:
            result = VerificationResult(
                verdict=Verdict.OVERFLOW, engine=self.name,
                model_name=self.model.name, k_fp=exc.bound or self._current_bound,
                j_fp=None, message="resource budget exhausted")
        result.time_seconds = self._elapsed()
        result.stats = self.stats
        if self.tracer.enabled:
            self.tracer.point("verdict", engine=self.name,
                              model=self.model.name,
                              verdict=result.verdict.value,
                              k_fp=result.k_fp, j_fp=result.j_fp)
        _log.info("%s: %s on %s (k_fp=%s, j_fp=%s, clauses=%d)",
                  self.name, result.verdict.value, self.model.name,
                  result.k_fp, result.j_fp, self.stats.clauses_added)
        return result

    def _run(self) -> VerificationResult:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Common result constructors
    # ------------------------------------------------------------------ #
    def _pass(self, k_fp: int, j_fp: int) -> VerificationResult:
        return VerificationResult(verdict=Verdict.PASS, engine=self.name,
                                  model_name=self.model.name, k_fp=k_fp, j_fp=j_fp)

    def _fail(self, k_fp: int, trace: Optional[Trace]) -> VerificationResult:
        if trace is not None and self.preprocess is not None:
            # The trace is over the reduced model's variables; lift it back
            # to the original inputs/latches so validation (and the caller)
            # see a counterexample of the *source* model.
            trace = self.preprocess.lift_trace(trace)
        if trace is not None and self.options.validate_traces:
            if not trace.check(self._source_model):
                raise RuntimeError(
                    f"{self.name} produced a counterexample that does not replay "
                    f"on the concrete model {self.model.name}")
        # The paper reports j_fp = 0 for failures.
        return VerificationResult(verdict=Verdict.FAIL, engine=self.name,
                                  model_name=self.model.name, k_fp=k_fp, j_fp=0,
                                  trace=trace)

    def _unknown(self, k_reached: int, message: str) -> VerificationResult:
        return VerificationResult(verdict=Verdict.UNKNOWN, engine=self.name,
                                  model_name=self.model.name, k_fp=k_reached,
                                  j_fp=None, message=message)
