"""Iterative-deepening BMC falsification engine.

This is the plain bounded model checker the paper treats as the baseline
activity ITPSEQs are so close to: unroll to increasing depths, look for a
counterexample, stop at the first failing depth or at the depth/resource
limit.  It is used directly by the falsification example, by the CBA
abstraction loop (on the abstract model) and by several integration tests.

Two execution modes are offered:

* **incremental** (the default) — one persistent solver for the whole run
  via :class:`~repro.bmc.incremental.IncrementalUnroller`: O(k) total
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

import logging
import time
from dataclasses import dataclass
from typing import List, Optional

from ..aig.model import Model
from ..core.result import SPAN_COUNTERS, STAT_GROUPS, EngineStats
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult, SolverStats
from .cex import Trace
from .checks import BmcCheckKind, build_check
from .incremental import IncrementalUnroller
from .unroll import Unroller

__all__ = ["BmcResult", "BmcEngine"]

_log = logging.getLogger("repro.bmc.engine")

#: What the span tracer samples: the SAT counters plus the sharing ones.
_SPAN_COUNTERS = SPAN_COUNTERS + STAT_GROUPS["share"]


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


class BmcEngine:
    """Depth-by-depth bounded model checking.

    With ``preprocess=True`` (the default) the engine unrolls the model
    produced by the preprocessing pipeline (:mod:`repro.preprocess`) and
    lifts any counterexample back to the original variables before
    validating and reporting it; failure depths and verdicts are identical
    either way.  Only the model passes run by default (COI, sweeping,
    rewriting and fraiging; override with ``preprocess_passes``): the
    ``cnf`` pass leaves the model unchanged.
    """

    #: Default pipeline: every model-changing pass, without ``cnf``.
    DEFAULT_PASSES = ("coi", "sweep", "coi", "rewrite", "fraig")

    def __init__(self, model: Model, check_kind: BmcCheckKind = BmcCheckKind.ASSUME,
                 validate_traces: bool = True, incremental: bool = True,
                 preprocess: bool = True,
                 preprocess_passes: Optional[tuple] = None,
                 tracer=None, share=None) -> None:
        from ..obs.tracer import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Counters accumulated over every run of this engine (the SAT and
        #: sharing ones; the rest stay 0).
        self.stats = EngineStats()
        self.tracer.bind_counters(lambda: self.stats.sample(_SPAN_COUNTERS))
        self.source_model = model
        self._preprocess = None
        self._preprocess_seconds = 0.0
        if preprocess:
            from ..preprocess.passes import build_pipeline  # deferred: cycle

            started = time.monotonic()
            with self.tracer.span("preprocess", engine="bmc",
                                  model=model.name):
                self._preprocess = build_pipeline(
                    self.DEFAULT_PASSES if preprocess_passes is None
                    else preprocess_passes).run(model, tracer=self.tracer)
            self._preprocess_seconds = time.monotonic() - started
            self.model = self._preprocess.model
        else:
            self.model = model
        self.check_kind = check_kind
        self.validate_traces = validate_traces
        self.incremental = incremental
        # Cooperative lemma sharing (depth-only policy; incremental mode).
        self.share = share
        self._share_validator = None
        self._share_depth = -1
        self._share_published_depth = -1
        if self.share is not None:
            self._share_attach()

    # ------------------------------------------------------------------ #
    # Cooperative lemma sharing (depth facts only)
    # ------------------------------------------------------------------ #
    def _share_attach(self) -> None:
        """Fingerprint handshake + import validator, as UmcEngine does.

        BMC only ever consumes and produces "no counterexample up to d"
        facts: a covered depth's solve is skipped outright (the foreign
        refutation already answered it) and its frame encodings are
        deferred until the next genuinely attempted depth, which is why
        sharing is wired into the incremental mode only.
        """
        from ..share.adapt import ImportValidator
        from ..share.lemma import model_fingerprint

        fingerprint = model_fingerprint(self.model)
        if not self.share.register_fingerprint(fingerprint):
            _log.warning("bmc: model fingerprint mismatch with the share "
                         "bus — sharing disabled for this run")
            self.share = None
            return
        self._share_validator = ImportValidator(self.model)
        self._share_validator.prepare()

    def _share_sync(self, depth: int) -> None:
        if self.share is None:
            return
        accepted: List[int] = []
        for shared in self.share.sync(depth):
            if self._share_validator is not None:
                reason = self._share_validator.reject_reason(shared.lemma)
                if reason is not None:
                    self.stats.lemmas_retracted += 1
                    if self.tracer.enabled:
                        self.tracer.point("share_reject", seq=shared.seq,
                                          reason=reason)
                    continue
            self._share_depth = max(self._share_depth, shared.lemma.depth)
            self.stats.lemmas_rx += 1
            accepted.append(shared.seq)
        if accepted:
            self.share.commit(depth, accepted)

    def _share_publish_depth(self, depth: int) -> None:
        if self.share is None or depth <= self._share_published_depth:
            return
        from ..share.lemma import DepthLemma

        self._share_published_depth = depth
        self.share.publish(DepthLemma(depth=depth))
        self.stats.lemmas_tx += 1

    def _initial_check(self) -> tuple:
        """Depth-0 check on a throwaway solver; returns ``(trace, stats)``."""
        solver = CdclSolver()
        unroller = Unroller(self.model, solver)
        unroller.assert_initial_state(partition=1)
        unroller.assert_bad(0, partition=1)
        if self.model.constraints:
            unroller.assert_constraints_at(0, partition=1)
        answer = solver.solve()
        trace = unroller.extract_trace(0) if answer is SatResult.SAT else None
        return trace, solver.stats

    def run(self, max_depth: int, time_limit: Optional[float] = None,
            conflict_limit: Optional[int] = None) -> BmcResult:
        """Search for a counterexample of length at most ``max_depth``."""
        with self.tracer.span("run", engine="bmc", model=self.model.name):
            if self.incremental:
                result = self._run_incremental(max_depth, time_limit,
                                               conflict_limit)
            else:
                result = self._run_monolithic(max_depth, time_limit,
                                              conflict_limit)
        if self.tracer.enabled:
            self.tracer.point("verdict", engine="bmc",
                              model=self.model.name, status=result.status,
                              depth=result.depth)
        return result

    # ------------------------------------------------------------------ #
    # Incremental mode: one persistent solver for the whole deepening run
    # ------------------------------------------------------------------ #
    def _run_incremental(self, max_depth: int, time_limit: Optional[float],
                         conflict_limit: Optional[int]) -> BmcResult:
        # Construction-time preprocessing counts against this run's clock
        # and budget (see UmcEngine.run for the same policy).
        start = time.monotonic() - self._preprocess_seconds
        result = BmcResult(status="no_cex")
        unroller = IncrementalUnroller(self.model, check_kind=self.check_kind)

        for depth in range(max_depth + 1):
            # Depth 0 (the initial-states check) runs unconditionally and
            # unbudgeted, mirroring the fresh-solver mode.
            remaining = None
            if depth > 0:
                self._share_sync(depth)
                if depth <= self._share_depth:
                    # A foreign "no counterexample ≤ d" fact covers this
                    # depth: skip its solve and defer its frame encoding
                    # (extend_to below catches up at the next live depth).
                    self.stats.share_solves_skipped += 1
                    result.checked_depth = depth
                    if self.tracer.enabled:
                        self.tracer.point("share_skip", bound=depth)
                    continue
                if time_limit is not None:
                    remaining = time_limit - (time.monotonic() - start)
                    if remaining <= 0:
                        result.status = "unknown"
                        result.checked_depth = depth - 1
                        break
            with self.tracer.span("bound", bound=depth):
                if depth > 0:
                    # Frame encoding is part of the depth's cost, matching
                    # the fresh-solver mode where build_check runs inside
                    # the timer.
                    unroller.extend_to(depth)
                budget = (Budget(max_conflicts=conflict_limit,
                                 max_time=remaining)
                          if depth > 0 else None)
                with self.tracer.span("cex_search"):
                    answer = unroller.solve(budget=budget)
                    result.sat_calls += 1
                    self._account(result, unroller.last_call_stats)
                if answer is SatResult.UNKNOWN:
                    result.status = "unknown"
                    result.checked_depth = depth - 1
                    break
                if answer is SatResult.SAT:
                    trace = self._finish_trace(unroller.extract_trace())
                    result.status = "fail"
                    result.depth = depth
                    result.trace = trace
                    result.checked_depth = depth
                    break
                result.checked_depth = depth
                self._share_publish_depth(depth)
        result.time_seconds = time.monotonic() - start
        return result

    # ------------------------------------------------------------------ #
    # Fresh-solver mode: the original monolithic re-encoding per depth
    # ------------------------------------------------------------------ #
    def _run_monolithic(self, max_depth: int, time_limit: Optional[float],
                        conflict_limit: Optional[int]) -> BmcResult:
        start = time.monotonic() - self._preprocess_seconds
        result = BmcResult(status="no_cex")

        trace, initial_stats = self._initial_check()
        result.sat_calls += 1
        self._account(result, initial_stats)
        if trace is not None:
            result.status = "fail"
            result.depth = 0
            result.trace = self._finish_trace(trace)
            result.time_seconds = time.monotonic() - start
            return result

        for depth in range(1, max_depth + 1):
            remaining = None
            if time_limit is not None:
                remaining = time_limit - (time.monotonic() - start)
                if remaining <= 0:
                    result.status = "unknown"
                    result.checked_depth = depth - 1
                    break
            with self.tracer.span("bound", bound=depth):
                with self.tracer.span("cex_search"):
                    unroller = build_check(self.check_kind, self.model, depth,
                                           proof_logging=False)
                    budget = Budget(max_conflicts=conflict_limit,
                                    max_time=remaining)
                    answer = unroller.solver.solve(budget=budget)
                    result.sat_calls += 1
                    self._account(result, unroller.solver.stats)
                if answer is SatResult.UNKNOWN:
                    result.status = "unknown"
                    result.checked_depth = depth - 1
                    break
                if answer is SatResult.SAT:
                    trace = self._finish_trace(unroller.extract_trace(depth))
                    result.status = "fail"
                    result.depth = depth
                    result.trace = trace
                    result.checked_depth = depth
                    break
                result.checked_depth = depth
        result.time_seconds = time.monotonic() - start
        return result

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _account(self, result: BmcResult, call: SolverStats) -> None:
        result.clause_additions += call.clauses_added
        result.conflicts += call.conflicts
        stats = self.stats
        stats.sat_calls += 1
        stats.clauses_added += call.clauses_added
        stats.conflicts += call.conflicts
        stats.propagations += call.propagations
        if self.tracer.enabled:
            self.tracer.point("sat_call", conflicts=call.conflicts,
                              propagations=call.propagations,
                              clauses_added=call.clauses_added)

    def _finish_trace(self, trace: Trace) -> Trace:
        """Lift a (possibly reduced-model) trace back and validate it."""
        if self._preprocess is not None:
            trace = self._preprocess.lift_trace(trace)
        if self.validate_traces and not trace.check(self.source_model):
            raise RuntimeError(
                "BMC produced a trace that does not replay on the concrete model")
        return trace
