"""Unbounded model checking with interpolation sequences (Fig. 2).

This is the ITPSEQVERIF procedure: at every bound ``k`` one exact-k (or
assume-k, per Section III) BMC check is made; a satisfiable answer is a real
counterexample, an unsatisfiable one yields — from its single refutation —
the whole interpolation sequence I^k_0..k+1 (Eq. (2)).

The sequence elements are accumulated into the matrix columns

    ℐⱼ = ⋀_{i ≥ j} Iⁱⱼ

(the column-based conjunction of Section II-C), each column being an
over-approximation of the states reachable in ``j`` steps that excludes
states reaching a failure within ``k - j`` steps.  The columns drive the
same fixed-point test used by standard interpolation: ℐⱼ ⇒ Rⱼ₋₁ proves the
property.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..aig.aig import TRUE
from ..aig.model import Model
from ..bmc.checks import BmcCheckKind, build_check
from ..bmc.unroll import Unroller
from ..itp.sequence import extract_sequence
from ..sat.proof import ResolutionProof
from .base import UmcEngine, initial_states_predicate
from .options import EngineOptions
from .result import VerificationResult

__all__ = ["ItpSeqEngine"]


class ItpSeqEngine(UmcEngine):
    """Parallel interpolation sequences (procedure ITPSEQVERIF of Fig. 2)."""

    name = "itpseq"

    def __init__(self, model: Model, options: Optional[EngineOptions] = None,
                 **kwargs) -> None:
        # Every element past the first cuts the check inside the unrolling,
        # where a bound-k target spanning frames 1..k would leave the cut
        # variables unmapped (and the searcher's steps unsound).
        if options is not None and options.bmc_check is BmcCheckKind.BOUND:
            raise ValueError(
                f"{self.name} needs exact-k or assume-k checks "
                "(BmcCheckKind.ASSUME or BmcCheckKind.EXACT), not bound-k")
        super().__init__(model, options, **kwargs)

    def _run(self) -> VerificationResult:
        """The bound loop of Fig. 2, shared by every sequence engine; they
        differ only in :meth:`_bound_elements`."""
        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)
        self._prepare_bounds()

        init_predicate = initial_states_predicate(self.model)
        columns: Dict[int, int] = {}

        k = 0
        while k < self.options.max_bound:
            k += 1
            # Lemma exchange happens at the bound boundary.
            self._share_sync()
            self._current_bound = k
            self._check_budget()

            with self._bound_span(k):
                elements = self._bound_elements(k)
                if isinstance(elements, VerificationResult):
                    return elements
                outcome = self._update_columns(columns, elements, k,
                                               init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")

    def _prepare_bounds(self) -> None:
        """Per-run setup between the depth-0 check and bound 1 (none here)."""

    def _bound_elements(self, k: int) -> Union[List[int], VerificationResult]:
        """The sequence I^k_0..k+1 of bound ``k``, or its FAIL result."""
        # Counterexample search on the persistent incremental solver; on a
        # solo run its UNSAT trace, stripped, *is* the refutation.
        trace = self._search_counterexample(k)
        if trace is not None:
            return self._fail(k, trace)
        refuted = self._bound_refutation(k)
        if isinstance(refuted, VerificationResult):
            return refuted
        proof, unroller = refuted
        with self.tracer.span("itp_extract"):
            return self._extract_elements(k, proof, unroller)

    def _refutation_check(self, k: int) -> Unroller:
        return build_check(self.options.bmc_check, self.model, k,
                           proof_logging=True)

    def _extract_elements(self, k: int, proof: ResolutionProof,
                          unroller: Unroller) -> List[int]:
        """Eq. (2): every element from the one refutation."""
        cut_maps = {j: unroller.cut_var_map(j) for j in range(1, k + 1)}
        sequence = extract_sequence(proof, k + 1, cut_maps, self.aig)
        elements = list(sequence.elements)
        for j in range(1, k + 1):
            elements[j] = self._register_interpolant(self.aig, elements[j])
        return elements

    # ------------------------------------------------------------------ #
    # Matrix column update and fixed-point detection (shared with CBA)
    # ------------------------------------------------------------------ #
    def _update_columns(self, columns: Dict[int, int], elements, k: int,
                        init_predicate: int) -> Optional[VerificationResult]:
        """Run the j-loop of Fig. 2 for the freshly extracted sequence.

        ``columns`` maps j -> ℐⱼ (AIG literal, over this engine's AIG) and is
        updated in place; returns a PASS result when a fixed point is found.
        """
        # Everything a containment check from here on can mention is S₀,
        # the columns (strengthening conjoins, so their old cones stay
        # live as fanins) and this bound's sequence elements.  What is
        # *not* reachable from these roots — chiefly the R-accumulation
        # OR spines of earlier bounds, rebuilt from scratch below every
        # time — is dead weight on the persistent checker: shed those
        # clause groups before growing the formula further.
        self._shed_fixpoint_groups(
            [init_predicate]
            + [columns[j] for j in sorted(columns)]
            + list(elements[1:k + 1]))
        reached = init_predicate  # R_{j-1}
        for j in range(1, k):
            # One column check per cooperative turn (same rationale as the
            # itp engine's per-refinement yield: keep turns solver-sized).
            self._share_yield()
            columns[j] = self.aig.add_and(columns.get(j, TRUE), elements[j])
            if self._implies(columns[j], reached):
                return self._pass(k, j)
            reached = self.aig.op_or(reached, columns[j])
        columns[k] = elements[k]
        if self._implies(columns[k], reached):
            return self._pass(k, k)
        return None
