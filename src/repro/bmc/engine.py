"""Iterative-deepening BMC falsification engine.

This is the plain bounded model checker the paper treats as the baseline
activity ITPSEQs are so close to: unroll to increasing depths, look for a
counterexample, stop at the first failing depth or at the depth/resource
limit.  :class:`BmcEngine` is a :class:`~repro.core.base.UmcEngine`
front-end: preprocessing, the persistent counterexample search (with its
foreign-depth skips), budgets and SAT accounting, lemma sharing and trace
lifting are the engine base's, and only the depth loop and the
:class:`BmcResult` packaging live here.  It is used directly by the
falsification example, the fuzzer, the cooperative race and several
integration tests.

Two execution modes are offered:

* **incremental** (the default) — the engine base's persistent searcher
  (:class:`~repro.bmc.incremental.IncrementalUnroller`): O(k) total
  encoding work, learned clauses / activities / phases carried across
  depths;
* **fresh-solver** (``incremental=False``) — the original monolithic
  behaviour, one solver and one full re-encoding per depth, kept as the
  reference for equivalence testing.

Both modes produce identical verdicts, failure depths and replayable
traces; ``benchmarks/test_bench_incremental.py`` asserts the O(k²) → O(k)
clause-work drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..aig.model import Model
from ..core.base import UmcEngine
from ..core.options import EngineOptions
from ..core.result import Verdict, VerificationResult
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult
from .cex import Trace
from .checks import BmcCheckKind, build_check
from .unroll import Unroller

__all__ = ["BmcResult", "BmcEngine"]


@dataclass
class BmcResult:
    """Outcome of a bounded falsification run.

    ``status`` is one of ``"fail"`` (counterexample found), ``"no_cex"``
    (no failure up to ``max_depth``) or ``"unknown"`` (resource limit hit).
    ``clause_additions`` / ``conflicts`` aggregate the solver work across
    the whole run (all solvers in fresh-solver mode, the single persistent
    one in incremental mode).
    """

    status: str
    depth: Optional[int] = None
    trace: Optional[Trace] = None
    checked_depth: int = 0
    sat_calls: int = 0
    time_seconds: float = 0.0
    clause_additions: int = 0
    conflicts: int = 0

    @property
    def is_failure(self) -> bool:
        return self.status == "fail"

    @classmethod
    def from_verification(cls, result: VerificationResult) -> "BmcResult":
        """Repackage a :meth:`BmcEngine.verify` result."""
        if result.verdict is Verdict.FAIL:
            status, checked = "fail", result.k_fp
        elif result.verdict is Verdict.OVERFLOW:
            # k_fp is the depth the budget cut short.
            status, checked = "unknown", result.k_fp - 1
        else:
            status, checked = "no_cex", result.k_fp
        stats = result.stats
        return cls(status=status,
                   depth=result.k_fp if status == "fail" else None,
                   trace=result.trace, checked_depth=checked,
                   sat_calls=stats.sat_calls,
                   time_seconds=result.time_seconds,
                   clause_additions=stats.clauses_added,
                   conflicts=stats.conflicts)


class BmcEngine(UmcEngine):
    """Depth-by-depth bounded model checking.

    With ``preprocess=True`` (the default) the engine unrolls the model
    produced by the preprocessing pipeline (:mod:`repro.preprocess`) and
    lifts any counterexample back to the original variables before
    validating and reporting it; failure depths and verdicts are identical
    either way.

    :meth:`run` reports a :class:`BmcResult`; :meth:`verify` reports the
    engine base's :class:`~repro.core.result.VerificationResult`: FAIL at
    the failing depth, UNKNOWN with ``k_fp = max_depth`` when no
    counterexample exists up to it, OVERFLOW at the depth a limit cut
    short.  The depth-0 check always runs, unbudgeted.
    """

    name = "bmc"
    stat_groups = ("solver", "preprocess")

    def __init__(self, model: Model, check_kind: BmcCheckKind = BmcCheckKind.ASSUME,
                 incremental: bool = True,
                 preprocess: bool = True,
                 preprocess_passes: Optional[tuple] = None,
                 tracer=None, share=None) -> None:
        options = EngineOptions(bmc_check=check_kind,
                                preprocess=preprocess,
                                preprocess_passes=preprocess_passes)
        super().__init__(model, options, tracer=tracer, share=share)
        self.incremental = incremental
        self._max_depth = 0

    def _group_proof_active(self) -> bool:
        """Never: BMC extracts no interpolant, so its searcher logs no
        proof."""
        return False

    def run(self, max_depth: int, time_limit: Optional[float] = None,
            conflict_limit: Optional[int] = None) -> BmcResult:
        """Search for a counterexample of length at most ``max_depth``."""
        return BmcResult.from_verification(
            self.verify(max_depth, time_limit, conflict_limit))

    def verify(self, max_depth: int, time_limit: Optional[float] = None,
               conflict_limit: Optional[int] = None) -> VerificationResult:
        """:meth:`run`, reported as a :class:`VerificationResult`."""
        if max_depth < 0:
            raise ValueError(f"max_depth must be non-negative, got {max_depth}")
        self._max_depth = max_depth
        self.options = self.options.with_changes(time_limit=time_limit,
                                                 conflict_limit=conflict_limit)
        return super().run()

    def _run(self) -> VerificationResult:
        for depth in range(self._max_depth + 1):
            self._current_bound = depth
            if depth > 0:
                self._share_sync()
            with self._bound_span(depth):
                trace = (self._search_counterexample(depth) if self.incremental
                         else self._fresh_search(depth))
            if trace is not None:
                return self._fail(depth, trace)
            if depth > self._share_depth:
                # Only depths this run refuted itself are news to the bus.
                self._share_publish_depth(depth)
        return self._unknown(self._max_depth, "no counterexample up to "
                             f"depth {self._max_depth}")

    def _fresh_search(self, depth: int) -> Optional[Trace]:
        """The reference mode's search: a new solver and encoding per depth."""
        with self.tracer.span("cex_search"):
            if depth == 0:
                # build_check starts at bound 1: a throwaway initial check.
                unroller = Unroller(self.model, CdclSolver())
                unroller.assert_initial_state(partition=1)
                unroller.assert_bad(0, partition=1)
                if self.model.constraints:
                    unroller.assert_constraints_at(0, partition=1)
            else:
                unroller = build_check(self.options.bmc_check, self.model,
                                       depth, proof_logging=False)
            if self._solve(unroller.solver) is SatResult.SAT:
                return unroller.extract_trace(depth)
        return None

    # The depth-0 check runs unbudgeted: a run always checks the initial
    # states, whatever its time or conflict limit.
    def _check_budget(self) -> None:
        if self._current_bound:
            super()._check_budget()

    def _sat_budget(self) -> Budget:
        return super()._sat_budget() if self._current_bound else Budget()
