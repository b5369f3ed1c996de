"""Race several engines on one model in worker processes.

Each engine runs in its own process and reports its
:class:`~repro.core.result.VerificationResult` back over a private pipe
(one pipe per worker — a shared queue could be left in a locked state if a
loser were terminated mid-``put``).  The parent watches the pipes with
:func:`multiprocessing.connection.wait` and, in first-result-wins mode,
terminates every still-running worker the moment a definitive PASS/FAIL
arrives.

Determinism contract
--------------------
Which engine *wins* a race depends on machine load, but the *verdict*
never does: every engine answers the same decision problem, and the
portfolio's ``run_all`` cross-check enforces their agreement.  When
several definitive answers are on the table at decision time, the one from
the engine earliest in registry order is returned, so a race on an
idle machine degenerates to the sequential choice.

Budgets under cancellation
--------------------------
``options.time_limit`` is granted to every member individually, exactly
as the sequential portfolio grants it to each member in turn — a member's
clock starts when its worker starts, so with fewer lanes than engines
(``jobs`` capped) late starters still receive their full budget.  The
engines enforce the limit themselves and return OVERFLOW; the parent
additionally holds a per-worker deadline of ``time_limit`` plus a small
grace period, after which an unresponsive worker is terminated and its
slot filled with a synthesized OVERFLOW result — a worker that cannot
even time itself out (e.g. stuck in one enormous SAT call) still cannot
hang the race.

Racing is always *blind*: workers exchange nothing but their final
result.  The one cooperative mode is the deterministic in-process
:func:`repro.share.coop.cooperative_race`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Dict, Optional, Sequence

from ..aig.model import Model
from ..core.options import EngineOptions
from ..core.result import Verdict, VerificationResult
from .pool import mp_context, resolve_jobs

__all__ = ["RaceOutcome", "race_engines"]

#: Extra wall-clock seconds granted past ``options.time_limit`` before the
#: parent hard-terminates a worker that has not reported.
_DEADLINE_GRACE = 2.0


@dataclass
class RaceOutcome:
    """Everything a race produced.

    ``winner`` is the registry name of the first engine whose definitive
    answer was accepted (``None`` when nothing solved the instance);
    ``results`` has one entry per raced engine — reported, synthesized
    OVERFLOW for cancelled losers, or synthesized UNKNOWN for crashed
    workers — keyed and ordered by registry order.
    """

    winner: Optional[str]
    results: Dict[str, VerificationResult] = field(default_factory=dict)

    @property
    def result(self) -> VerificationResult:
        """The race's answer: the winner's result, else the last engine's.

        Mirrors the sequential ``run_first_solved`` contract, which returns
        the final engine's result when nothing solves the instance.
        """
        if self.winner is not None:
            return self.results[self.winner]
        return self.results[next(reversed(self.results))]


def _race_worker(conn, engine_name: str, model: Model,
                 options: EngineOptions,
                 events_path: Optional[str] = None) -> None:
    """Worker body: run one engine, send the result, close the pipe.

    Must stay importable at module level so the ``spawn`` start method can
    pickle it.  Any crash is reported as a message rather than a result;
    the parent synthesizes an UNKNOWN so one buggy engine cannot take the
    whole race down with it.

    Tracers hold live file handles and are never pickled: the worker
    receives the *base* events path and builds its own
    :class:`~repro.obs.tracer.Tracer` over a per-engine segment file, which
    the parent merges after the race.  The sink flushes per event line, so
    a terminated loser leaves a clean prefix of complete lines behind.
    """
    from ..core.portfolio import run_engine  # deferred: avoids an import cycle

    tracer = None
    if events_path is not None:
        from ..obs.sinks import JsonlSink, segment_path
        from ..obs.tracer import Tracer

        tracer = Tracer(JsonlSink(segment_path(events_path, engine_name)))
    try:
        result = run_engine(engine_name, model, options, tracer=tracer)
        conn.send(("result", result))
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        if tracer is not None:
            tracer.close()
        conn.close()


def _synthesized(engine_name: str, model_name: str, verdict: Verdict,
                 message: str, elapsed: float) -> VerificationResult:
    return VerificationResult(verdict=verdict, engine=engine_name,
                              model_name=model_name, k_fp=None, j_fp=None,
                              time_seconds=elapsed, message=message)


def race_engines(model: Model, engine_names: Sequence[str],
                 options: Optional[EngineOptions] = None,
                 jobs: Optional[int] = None,
                 first_result_wins: bool = True,
                 events_path: Optional[str] = None) -> RaceOutcome:
    """Run ``engine_names`` on ``model`` concurrently; see module docstring.

    ``jobs`` caps the number of simultaneously running workers (default:
    one per engine); with fewer lanes than engines, pending engines start
    in registry order as lanes free up.  With ``first_result_wins`` the
    race stops at the first definitive answer and losers are cancelled;
    otherwise every engine runs to completion (``run_all`` semantics).

    With ``events_path`` every worker traces into a private segment file
    next to that path; after the race the segments are merged into
    ``events_path`` in registry order (never arrival order), so the merged
    stream's committed form is machine-load independent.
    """
    options = options or EngineOptions()
    engine_names = list(engine_names)
    order = {name: index for index, name in enumerate(engine_names)}
    # A race defaults to one lane per engine: racing more processes than
    # cores is still a race (the OS timeslices them), whereas capping at
    # the core count would quietly serialise on small machines.
    lanes = (len(engine_names) if jobs is None
             else min(resolve_jobs(jobs), len(engine_names)))
    ctx = mp_context()

    started = time.monotonic()

    pending = list(engine_names)          # not yet started, registry order
    running: Dict[str, tuple] = {}        # name -> (process, parent_conn)
    deadlines: Dict[str, float] = {}      # name -> per-worker hard deadline
    results: Dict[str, VerificationResult] = {}
    winner: Optional[str] = None

    def launch_next() -> None:
        while pending and len(running) < lanes:
            name = pending.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(target=_race_worker,
                                  args=(child_conn, name, model, options,
                                        events_path),
                                  daemon=True, name=f"race-{name}")
            process.start()
            child_conn.close()  # the child's end lives in the child now
            running[name] = (process, parent_conn)
            if options.time_limit is not None:
                # The member's own clock: late starters (lanes < engines)
                # get the full budget, like the sequential portfolio.
                deadlines[name] = (time.monotonic() + options.time_limit
                                   + _DEADLINE_GRACE)

    def reap(name: str, terminate: bool, message: str) -> None:
        process, conn = running.pop(name)
        deadlines.pop(name, None)
        if terminate and process.is_alive():
            process.terminate()
        process.join()
        conn.close()
        if name not in results:
            verdict = Verdict.OVERFLOW if terminate else Verdict.UNKNOWN
            results[name] = _synthesized(name, model.name, verdict, message,
                                         time.monotonic() - started)

    try:
        launch_next()
        while running:
            active = [deadlines[n] for n in running if n in deadlines]
            timeout = (max(0.0, min(active) - time.monotonic())
                       if active else None)
            conns = {conn: name for name, (_, conn) in running.items()}
            ready = connection_wait(list(conns), timeout=timeout)
            if not ready:  # some worker's deadline expired without a report
                now = time.monotonic()
                expired = [n for n in list(running)
                           if n in deadlines and deadlines[n] <= now]
                for name in expired:
                    reap(name, terminate=True,
                         message="cancelled: wall-clock deadline expired")
                launch_next()
                continue
            for conn in ready:
                name = conns[conn]
                try:
                    frame = conn.recv()
                except EOFError:  # worker died without reporting
                    frame = ("error", "worker exited without a result")
                kind = frame[0] if isinstance(frame, tuple) and frame else "error"
                payload = frame[1] if len(frame) > 1 else ""
                if kind == "result":
                    results[name] = payload
                else:
                    results[name] = _synthesized(
                        name, model.name, Verdict.UNKNOWN,
                        f"worker failed: {payload}",
                        time.monotonic() - started)
                reap(name, terminate=False, message="")
            if first_result_wins and winner is None:
                solved = [n for n in engine_names
                          if n in results and results[n].solved]
                if solved:
                    winner = min(solved, key=order.__getitem__)
                    for name in list(running):
                        reap(name, terminate=True,
                             message="cancelled: lost the race")
                    break
            launch_next()
    finally:
        # Belt and braces: never leak a worker, whatever the exit path.
        for name in list(running):
            reap(name, terminate=True, message="cancelled: race aborted")

    for name in engine_names:  # lanes never freed up for these
        if name not in results:
            results[name] = _synthesized(name, model.name, Verdict.OVERFLOW,
                                         "cancelled: never started", 0.0)
    if events_path is not None:
        from ..obs.sinks import merge_segments, worker_segments

        merge_segments(worker_segments(events_path, engine_names),
                       events_path, remove=True)
    ordered = {name: results[name] for name in engine_names}
    return RaceOutcome(winner=winner, results=ordered)
