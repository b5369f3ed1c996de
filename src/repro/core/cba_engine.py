"""Interpolation sequences tightly integrated with CBA (Section V, Fig. 5).

The engine interleaves, at every bound ``k``:

1. an abstraction-refinement loop on a localization-abstracted model T_A —
   abstract counterexamples are concretised (EXTEND) and either reported as
   genuine failures or used to re-introduce latches (REFINE);
2. once the abstract depth-``k`` check is unsatisfiable, a *serial*
   interpolation sequence (Fig. 4) computed on the **abstract** model from
   that refutation — on a solo run, the persistent abstract searcher's
   own UNSAT trace, stripped of its activation literals (see
   :mod:`repro.core.base`), so the bound is solved once;
3. the usual matrix-column / fixed-point bookkeeping of Fig. 2, performed on
   the concrete state space (the abstract interpolants are predicates over
   visible latches only, so they translate to the concrete AIG by renaming
   leaves).

Per the paper, refinements are *not* followed by re-proving smaller bounds:
the only purpose of the refinement is to make the depth-``k`` instance
unsatisfiable, which tends to produce smaller refutations and therefore
more abstract (larger) interpolants.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..abstraction.cba import choose_refinement, extend_counterexample
from ..abstraction.localization import LocalizationAbstraction, property_support_latches
from ..aig.aig import FALSE, TRUE, lit_from_var
from ..aig.ops import LiteralMapper
from ..bmc.checks import BmcCheckKind, build_check
from ..bmc.incremental import IncrementalUnroller
from ..sat.types import SatResult
from ..share.lemma import Lemma
from .itpseq_engine import ItpSeqEngine
from .result import VerificationResult
from .sitpseq_engine import compute_serial_sequence

__all__ = ["ItpSeqCbaEngine"]

#: Maximum number of latches re-introduced per refinement step.
REFINE_BATCH = 4


class ItpSeqCbaEngine(ItpSeqEngine):
    """Serial interpolation sequences + counterexample-based abstraction (Fig. 5)."""

    name = "itpseqcba"

    stat_groups = ("solver", "preprocess", "lifecycle", "cba")

    def _prepare_bounds(self) -> None:
        # Persistent incremental searchers: one on the current abstract model
        # (rebuilt whenever a refinement changes the model) and one exact-mode
        # unroller on the concrete model shared by every EXTEND query.
        self._abstract_searcher: Optional[IncrementalUnroller] = None
        self._abstract_searcher_key: Optional[LocalizationAbstraction] = None
        self._extend_searcher: Optional[IncrementalUnroller] = None

        # The initial abstraction keeps the latches in the property's
        # combinational support visible.
        self._abstraction = LocalizationAbstraction(
            self.model, property_support_latches(self.model))
        self.stats.abstract_latches = self._abstraction.num_visible

    def _bound_elements(self, k: int) -> Union[List[int], VerificationResult]:
        """Refine until bound ``k`` is abstractly UNSAT, then Fig. 4 on the
        abstract model, translated to the concrete AIG."""
        refined = self._refinement_loop(self._abstraction, k)
        if isinstance(refined, VerificationResult):
            return refined
        abstraction, proof, unroller = refined
        self._abstraction = abstraction
        self.stats.abstract_latches = abstraction.num_visible
        # The abstract model over-approximates the concrete one, so an
        # abstract bound-k refutation is a concrete "no counterexample up
        # to k" fact — exportable as-is.
        self._share_publish_depth(k)
        with self.tracer.span("itp_extract"):
            elements_abs = compute_serial_sequence(
                self, abstraction.abstract_model, k, proof, unroller,
                self._abstract_searcher)
            return self._translate_elements(abstraction, elements_abs)

    # ------------------------------------------------------------------ #
    # Import policy
    # ------------------------------------------------------------------ #
    def _share_apply(self, lemma: Lemma) -> bool:
        """CBA imports nothing.

        This engine never runs the base counterexample searcher: failures
        are found on the abstract model and concretised through the EXTEND
        unroller, whose refutations drive refinement choices.  A depth fact
        about the concrete model does not decide an abstract search (the
        abstraction may have spurious counterexamples), and the concrete
        EXTEND checks must still run for the refutations refinement reads
        — so there is no solve here a depth fact could skip.
        """
        return False

    # ------------------------------------------------------------------ #
    # Abstraction-refinement loop for one bound
    # ------------------------------------------------------------------ #
    def _abstract_search(self, abstraction: LocalizationAbstraction
                         ) -> IncrementalUnroller:
        """Persistent incremental BMC search over the current abstract model.

        Refinement replaces the abstract model, so the searcher is rebuilt
        whenever the abstraction object changes; within one abstraction it
        carries learned clauses across spurious-counterexample iterations
        and across bounds (the paper never re-proves smaller bounds after a
        refinement, so deepening stays strictly monotonic).  On solo runs
        it logs its proof, so each UNSAT answer is also the bound's
        refutation.
        """
        if self._abstract_searcher_key is not abstraction:
            self._abstract_searcher = IncrementalUnroller(
                abstraction.abstract_model, check_kind=self.options.bmc_check,
                proof_logging=self._group_proof_active())
            self._abstract_searcher_key = abstraction
        return self._abstract_searcher

    def _extend_search(self) -> IncrementalUnroller:
        """The exact-mode concrete unroller shared by every EXTEND query."""
        if self._extend_searcher is None:
            self._extend_searcher = IncrementalUnroller(
                self.model, check_kind=BmcCheckKind.EXACT)
        return self._extend_searcher

    def _refinement_loop(self, abstraction: LocalizationAbstraction, k: int):
        """Iterate abstract check / EXTEND / REFINE until the bound-k abstract
        instance is unsatisfiable (returning the abstraction, its trimmed
        refutation and the unroller serving its cuts) or a concrete
        counterexample is found (returning a FAIL result).

        Every question is answered on the persistent abstract searcher, and
        its UNSAT answer is also the bound's refutation
        (:meth:`_group_refutation`).  A fresh proof-logged abstract check is
        built only when the searcher's trace cannot serve: a strip that
        hits a released group, or a share-attached run.  EXTEND queries go
        through the run's SAT account (:meth:`_try_solve`), so they count
        against the clause and propagation budgets.
        """
        while True:
            self._check_budget()
            # One refinement iteration per cooperative turn — an entire
            # abstract-check/EXTEND/REFINE cascade is several solver calls.
            self._share_yield()
            abstract_trace = None
            with self.tracer.span("cex_search"):
                searcher = self._abstract_search(abstraction)
                searcher.extend_to(k)
                if self._solve(searcher.solver, searcher.assumptions()) \
                        is SatResult.SAT:
                    abstract_trace = searcher.extract_trace()
            if abstract_trace is None:
                proof = self._group_refutation(searcher, k)
                if proof is not None:
                    return abstraction, proof, searcher.unroller
                with self.tracer.span("refutation"):
                    unroller = build_check(self.options.bmc_check,
                                           abstraction.abstract_model, k,
                                           proof_logging=True)
                    result = self._solve(unroller.solver)
                if result is SatResult.UNSAT:
                    proof = self._trim_proof(unroller.solver.proof())
                    return abstraction, proof, unroller
                raise RuntimeError(  # pragma: no cover - defensive
                    "incremental and monolithic abstract checks disagree")
            with self.tracer.span("extend"):
                extension = extend_counterexample(
                    self.model, abstraction, abstract_trace, k,
                    solve=self._try_solve, searcher=self._extend_search())
            if extension.is_real:
                return self._fail(k, extension.concrete_trace)
            if abstraction.is_total():
                # Cannot happen: with every latch visible the abstract model is
                # the concrete model, whose counterexamples always extend.
                raise RuntimeError("spurious counterexample on a total abstraction")
            latches = choose_refinement(abstraction, extension, REFINE_BATCH)
            abstraction = abstraction.refine(latches)
            self.stats.refinements += 1
            if self.tracer.enabled:
                self.tracer.point("refine", latches=len(latches),
                                  visible=abstraction.num_visible)

    # ------------------------------------------------------------------ #
    # Abstract-to-concrete translation of sequence elements
    # ------------------------------------------------------------------ #
    def _translate_elements(self, abstraction: LocalizationAbstraction,
                            elements_abs: List[int]) -> List[int]:
        """Rename abstract-latch leaves to concrete latches in every element."""
        abstract_aig = abstraction.abstract_model.aig
        leaf_map = {abs_var: lit_from_var(conc_var)
                    for conc_var, abs_var in abstraction.latch_map.items()}
        mapper = LiteralMapper(abstract_aig, self.aig, leaf_map)
        translated: List[int] = []
        for element in elements_abs:
            if element in (TRUE, FALSE):
                translated.append(element)
                continue
            translated.append(mapper.copy_lit(element))
        return translated
