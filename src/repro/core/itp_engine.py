"""Standard interpolation-based model checking (McMillan CAV'03, Fig. 1).

The engine follows the paper's Fig. 1 pseudo-code literally:

* the outer loop fixes the BMC bound ``k`` and builds the **bound-k** check
  (the B term forbids a failure at *any* frame 1..k, Eq. (1)) — this is the
  formulation standard interpolation requires for correctness, and the very
  requirement Section III identifies as its computational weakness;
* the inner loop replaces the initial states first by S₀ and then by each
  extracted interpolant, producing the over-approximate forward traversal
  R₀, R₁, …; a fixed point (Iⱼ ⇒ Rⱼ₋₁) proves the property, a satisfiable
  check aborts the traversal and increases ``k``.

The counterexample returned on failure always comes from the first inner
iteration (initial states = S₀), so it is a genuine concrete trace.

On a solo run every check of a bound runs on the bound-k unrolling the
searcher already holds: each image step seeds the interpolant at frame 0
in place of S₀ (:meth:`~repro.bmc.incremental.IncrementalUnroller.step`).
A fresh bound-k check (:meth:`ItpEngine._build_check`) serves a rejected
strip and share-attached runs, whose searcher logs no proof.
"""

from __future__ import annotations

from typing import Optional

from ..bmc.checks import BmcCheckKind, build_check
from ..bmc.unroll import Unroller
from ..itp.craig import InterpolantBuilder
from .base import UmcEngine, initial_states_predicate
from .result import VerificationResult

__all__ = ["ItpEngine"]


class ItpEngine(UmcEngine):
    """McMillan-style interpolation (procedure ITPVERIF of Fig. 1)."""

    name = "itp"

    def _cex_check_kind(self) -> BmcCheckKind:
        """Fig. 1 requires bound-k checks; when the searcher doubles as the
        refutation check (a solo run) it must unroll that formulation —
        otherwise it keeps the cheaper configured search kind, since its
        answer is then only SAT-or-UNSAT."""
        if self._group_proof_active():
            return BmcCheckKind.BOUND
        return self.options.bmc_check

    def _run(self) -> VerificationResult:
        trace = self._depth_zero_trace()
        if trace is not None:
            return self._fail(0, trace)

        init_predicate = initial_states_predicate(self.model)

        k = 0
        while k < self.options.max_bound:
            k += 1
            # Bound boundary: the import point.
            self._share_sync()
            self._current_bound = k
            self._check_budget()
            with self._bound_span(k):
                outcome = self._traverse_at_bound(k, init_predicate)
            if outcome is not None:
                return outcome
        return self._unknown(self.options.max_bound,
                             "bound limit reached without convergence")

    # ------------------------------------------------------------------ #
    # One outer iteration (fixed k)
    # ------------------------------------------------------------------ #
    def _traverse_at_bound(self, k: int, init_predicate: int
                           ) -> Optional[VerificationResult]:
        """Run the inner over-approximate traversal for one bound ``k``.

        Returns a result to report, or ``None`` to continue with ``k + 1``.
        """
        # Counterexample search runs on the persistent incremental solver:
        # a SAT answer there is a real counterexample at exactly this bound
        # (shallower depths were refuted at earlier iterations).
        trace = self._search_counterexample(k)
        if trace is not None:
            return self._fail(k, trace)

        # On a group-proof run the searcher unrolls bound-k itself
        # (_cex_check_kind), so its stripped UNSAT trace is the first inner
        # iteration's refutation.  The bound-k check forbids a failure at
        # any frame 1..k, so its refutation is exactly the "no
        # counterexample up to k" fact _bound_refutation publishes.
        refuted = self._bound_refutation(k)
        if isinstance(refuted, VerificationResult):
            return refuted
        proof, unroller = refuted

        reached = init_predicate  # R_{j-1}
        j = 0
        while True:
            j += 1
            with self.tracer.span("itp_extract"):
                builder = InterpolantBuilder(self.aig, unroller.cut_var_map(1))
                itp = builder.extract(proof, a_partitions=[1])
                itp = self._register_interpolant(self.aig, itp)

            if self._implies(itp, reached):
                return self._pass(k, j)
            reached = self.aig.op_or(reached, itp)

            with self.tracer.span("refutation"):
                refuted = self._step_refutation(
                    self._cex_searcher, 0, itp,
                    lambda: self._build_check(k, init_formula=itp),
                    image_step=j + 1)
            if refuted is None:
                # Spurious (the initial set is an over-approximation): retry
                # with a longer unrolling.
                return None
            proof, unroller = refuted

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _refutation_check(self, k: int) -> Unroller:
        return self._build_check(k, init_formula=None)

    def _build_check(self, k: int, init_formula: Optional[int]) -> Unroller:
        """A fresh proof-logged bound-k check from S₀, or from
        ``init_formula`` at frame 0: the base refutation and the image
        steps of a share-attached run, and the fallback of a rejected
        strip."""
        if init_formula is None:
            initial = None
        else:
            def initial(unroller: Unroller, formula=init_formula) -> None:
                unroller.assert_formula(formula, frame=0, partition=1)
        return build_check(BmcCheckKind.BOUND, self.model, k, proof_logging=True,
                           initial=initial)

    def _failure_depth(self, unroller: Unroller, k: int) -> int:
        """Find the first frame whose bad literal is asserted in the SAT model."""
        for frame in range(1, k + 1):
            # Re-deriving the literal is cheap: the cone is already encoded, so
            # the encoder returns the cached CNF literal without new clauses.
            lit = unroller.bad_literal(frame, partition=k + 1)
            if unroller.solver.model_value(lit):
                return frame
        return k
