"""Deterministic cooperative racing of heterogeneous engines.

This is the one cooperative mode: the multi-process race
(:mod:`repro.parallel.race`) always runs its members blind.  All engines
run in one process, one at a time, under a turnstile scheduler whose
every decision is a pure function of the engines' own deterministic
progress counters:

* **Turn order.**  An engine surrenders its turn at every share-sync
  boundary (bound openings for the sequence engines, outer-frame openings
  for PDR, depth openings for BMC) and at the finer in-bound yield points
  the engines expose (refinement steps, column checks, obligation pops).
  Once every live engine is waiting, the turn goes to the least advanced
  one — smallest ``(propagations + CLAUSE_WEIGHT * clauses_added,
  registry index)`` — so the race "clock" is solver work, not wall time,
  and two runs of the same race interleave identically on any machine
  and at any CPU count.
* **Construction order.**  Engines are constructed *inside* their first
  turn, so preprocessing, model-fingerprint registration and any
  construction-time publications happen in a deterministic global order.
* **Cancellation.**  With ``first_result_wins`` (the default) the first
  definitive PASS/FAIL cancels the others: their next blocked
  :meth:`arrive` raises :class:`~repro.share.bus.ShareCancelled`, which
  unwinds out of the engine and is synthesised into an ``OVERFLOW``
  result (``"cancelled: lost the race"``).  Because cancellation is
  delivered only at sync boundaries, a loser's partial work — and its
  clause count, which the benchmarks aggregate — is still well-defined.

The blind baseline is the same runner over a
:class:`~repro.share.bus.LocalShareBus` with ``deliver=False``: identical
sync cadence and turn schedule, zero lemma traffic.  Cooperative-vs-blind
clause comparisons therefore isolate the effect of the lemmas themselves.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from .bus import LocalShareBus, ShareCancelled, SharePort

__all__ = ["CoopOutcome", "cooperative_race"]

_log = logging.getLogger("repro.share.coop")

#: Weight of one added clause in the turnstile's progress clock, in
#: propagation-equivalents.  The clock models wall time: CDCL work is
#: propagations, clause-database insertions cost roughly an order of
#: magnitude more memory traffic each.  A pure propagation clock lets an
#: engine whose solves were answered by foreign lemmas spend the freed
#: budget on deeper (encoding-heavy) bounds, inflating the clause totals
#: the benchmarks compare; pricing clauses into the clock bounds that
#: drift to ``saved_propagations / CLAUSE_WEIGHT``.
CLAUSE_WEIGHT = 10


# --------------------------------------------------------------------- #
# Turnstile scheduler
# --------------------------------------------------------------------- #
class _Turnstile:
    """One-at-a-time scheduler with deterministic, progress-driven grants.

    Threads call :meth:`arrive` to surrender the turn and block; the next
    grant is issued only when *every* live engine is waiting (the barrier
    that removes OS scheduling from the picture) and goes to the waiting
    engine with the smallest ``(clock, index)``.  :meth:`finish` retires a
    thread and optionally cancels the rest; a cancelled thread's blocked
    :meth:`arrive` raises :class:`ShareCancelled`.
    """

    def __init__(self, names: List[str]) -> None:
        self._cond = threading.Condition()
        self._index = {name: i for i, name in enumerate(names)}
        self._live: Set[str] = set(names)
        self._waiting: Dict[str, int] = {}
        self._turn: Optional[str] = None
        self._cancelled: Set[str] = set()

    def arrive(self, name: str, clock: int) -> None:
        with self._cond:
            if name in self._cancelled:
                raise ShareCancelled(name)
            if self._turn == name:
                self._turn = None
            self._waiting[name] = clock
            self._maybe_grant()
            while self._turn != name:
                if name in self._cancelled:
                    self._waiting.pop(name, None)
                    self._maybe_grant()
                    raise ShareCancelled(name)
                self._cond.wait()
            del self._waiting[name]

    def finish(self, name: str, cancel_others: bool = False) -> None:
        with self._cond:
            self._live.discard(name)
            self._cancelled.discard(name)
            self._waiting.pop(name, None)
            if self._turn == name:
                self._turn = None
            if cancel_others:
                self._cancelled.update(self._live)
            self._maybe_grant()
            self._cond.notify_all()

    def _maybe_grant(self) -> None:
        # Caller holds the lock.  Cancelled threads are excluded from the
        # barrier (they only ever wake to unwind), so a grant cannot wait
        # on a thread that will never run again.
        if self._turn is not None:
            return
        pending = self._live - self._cancelled
        if not pending or not pending.issubset(self._waiting):
            return
        self._turn = min(pending,
                         key=lambda n: (self._waiting[n], self._index[n]))
        self._cond.notify_all()


class _CoopPort(SharePort):
    """An engine's share port that yields the turn at every sync."""

    def __init__(self, inner, turnstile: _Turnstile) -> None:
        super().__init__(inner.engine)
        self.inner = inner
        self.turnstile = turnstile
        self._clock: Callable[[], int] = lambda: 0

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Install the engine's progress counter (the blended work clock)."""
        self._clock = clock

    @property
    def fingerprint(self) -> Optional[str]:
        return self.inner.fingerprint

    def register_fingerprint(self, fingerprint: str) -> bool:
        return self.inner.register_fingerprint(fingerprint)

    def publish(self, lemma) -> None:
        self.inner.publish(lemma)

    def sync(self):
        self.turnstile.arrive(self.engine, self._clock())
        return self.inner.sync()

    def yield_turn(self) -> None:
        self.turnstile.arrive(self.engine, self._clock())


# --------------------------------------------------------------------- #
# Race outcome
# --------------------------------------------------------------------- #
@dataclass
class CoopOutcome:
    """What a cooperative (or blind) in-process race produced.

    ``winner`` is the first engine — in deterministic turnstile order — to
    return a definitive PASS/FAIL (``None`` when nobody solved);
    ``results`` holds every engine's result, including the synthesised
    ``OVERFLOW`` results of cancelled losers; ``clauses_total`` aggregates
    ``stats.clauses_added`` across all of them, the cooperative-vs-blind
    comparison metric of ``benchmarks/results/race_sharing.txt``.
    """

    winner: Optional[str]
    result: Optional[object]
    results: Dict[str, object] = field(default_factory=dict)
    clauses_total: int = 0


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
def cooperative_race(model, engine_names: Optional[List[str]] = None,
                     options=None, share: bool = True,
                     first_result_wins: bool = True) -> CoopOutcome:
    """Race engines in-process with deterministic cooperative scheduling.

    ``engine_names`` defaults to the full portfolio registry plus
    ``"bmc"``; ``share=False`` runs the blind baseline (same schedule,
    no lemma traffic).
    """
    # Deferred imports: repro.core.base imports this package at module
    # level, so importing repro.core here at import time would cycle.
    from ..bmc.engine import BmcEngine
    from ..core.options import EngineOptions
    from ..core.portfolio import ENGINES
    from ..core.result import EngineStats, Verdict, VerificationResult

    if engine_names is None:
        engine_names = list(ENGINES) + ["bmc"]
    unknown = [n for n in engine_names if n != "bmc" and n not in ENGINES]
    if unknown:
        raise ValueError(f"unknown engines for cooperative race: {unknown}")
    if options is None:
        options = EngineOptions()

    bus = LocalShareBus(deliver=share)
    turnstile = _Turnstile(list(engine_names))
    # Ports exist before any thread starts, so every participant's inbox
    # receives the publications made during construction turns.
    ports = {name: _CoopPort(bus.port(name), turnstile)
             for name in engine_names}

    results: Dict[str, VerificationResult] = {}
    winner_box: List[str] = []
    state_lock = threading.Lock()

    def _snapshot_stats(engine) -> EngineStats:
        return EngineStats() if engine is None else engine.stats

    def _body(name: str) -> None:
        port = ports[name]
        engine = None
        result: Optional[VerificationResult] = None
        try:
            # Startup barrier doubles as the construction turnstile: the
            # engine (preprocessing, fingerprint handshake, validator
            # seeding) is built inside this thread's first granted turn.
            turnstile.arrive(name, 0)
            if name == "bmc":
                engine = BmcEngine(model, share=port)
            else:
                engine = ENGINES[name](model, options=options, share=port)
            port.bind_clock(lambda: engine.stats.propagations
                            + CLAUSE_WEIGHT * engine.stats.clauses_added)
            result = (engine.verify(options.max_bound, options.time_limit,
                                    options.conflict_limit)
                      if name == "bmc" else engine.run())
        except ShareCancelled:
            result = VerificationResult(
                verdict=Verdict.OVERFLOW, engine=name,
                model_name=model.name, stats=_snapshot_stats(engine),
                message="cancelled: lost the race")
        except Exception:
            _log.exception("cooperative race: engine %s crashed", name)
            result = VerificationResult(
                verdict=Verdict.UNKNOWN, engine=name,
                model_name=model.name, stats=_snapshot_stats(engine),
                message="engine crashed")
        finally:
            is_winner = False
            with state_lock:
                if result is not None:
                    results[name] = result
                if (result is not None and result.solved
                        and not winner_box):
                    winner_box.append(name)
                    is_winner = first_result_wins
            turnstile.finish(name, cancel_others=is_winner)

    threads = [threading.Thread(target=_body, args=(name,),
                                name=f"coop-{name}", daemon=True)
               for name in engine_names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    winner = winner_box[0] if winner_box else None
    clauses_total = sum(r.stats.clauses_added for r in results.values())
    return CoopOutcome(winner=winner,
                       result=results.get(winner) if winner else None,
                       results=results, clauses_total=clauses_total)
