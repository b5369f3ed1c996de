"""The racing portfolio: verdict identity, cancellation, deadlines.

The race may crown a different *engine* than the sequential walk (that is
the point), but never a different *verdict* — asserted here over the full
quick suite.  Cancellation must actually terminate worker processes: a
loser that lingers would serialise the next race and leak memory, so every
test also audits ``multiprocessing.active_children()``.
"""

import multiprocessing
import time

import pytest

from repro.circuits import get_instance, quick_suite
from repro.core import ENGINES, EngineOptions, Portfolio
from repro.core.base import UmcEngine
from repro.core.result import Verdict
from repro.parallel import race_engines
from repro.parallel.pool import mp_context

_FORK_ONLY = pytest.mark.skipif(
    mp_context().get_start_method() != "fork",
    reason="monkeypatched engine registries only reach workers under fork")


def _assert_no_stray_workers(before):
    # Reap anything raced: race_engines joins everything before returning,
    # so any still-alive child here is a genuine leak, not a straggler.
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        strays = [p for p in multiprocessing.active_children()
                  if p not in before]
        if not strays:
            return
        time.sleep(0.05)
    raise AssertionError(f"raced workers leaked: {strays}")


def test_race_matches_sequential_verdict_on_quick_suite():
    options = EngineOptions(max_bound=20, time_limit=None)
    portfolio = Portfolio(options=options)
    before = multiprocessing.active_children()
    for instance in quick_suite():
        model = instance.build()
        sequential = portfolio.run_first_solved(model)
        raced = portfolio.run_first_solved(model, parallel=True)
        assert raced.verdict == sequential.verdict, instance.name
        assert raced.verdict.value == instance.expected, instance.name
        _assert_no_stray_workers(before)


def test_run_all_parallel_matches_sequential():
    options = EngineOptions(max_bound=20, time_limit=None)
    portfolio = Portfolio(options=options)
    model = get_instance("mutex").build()
    sequential = portfolio.run_all(model)
    parallel = portfolio.run_all(model, parallel=True)
    assert list(parallel) == list(sequential)  # registry order preserved
    for name in sequential:
        assert parallel[name].verdict == sequential[name].verdict
        # run_all joins everyone: no synthesized cancellations.
        assert parallel[name].solved


def test_race_jobs_cap_still_answers():
    """Fewer lanes than engines: pending members start as lanes free up."""
    model = get_instance("ring04").build()
    portfolio = Portfolio(options=EngineOptions(max_bound=15))
    result = portfolio.run_first_solved(model, parallel=True, jobs=2)
    assert result.verdict is Verdict.PASS


class _SleepyEngine(UmcEngine):
    """Loses every race by design; long enough that a leak is unmissable."""

    name = "sleepy"

    def _run(self):
        time.sleep(60.0)
        return self._pass(1, 1)  # pragma: no cover - always cancelled


class _LiarEngine(UmcEngine):
    """Reports FAIL on everything (without a trace) to trip the cross-check."""

    name = "liar"

    def _run(self):
        return self._fail(1, None)


@_FORK_ONLY
def test_losers_are_terminated_not_leaked(monkeypatch):
    monkeypatch.setitem(ENGINES, "sleepy", _SleepyEngine)
    before = multiprocessing.active_children()
    started = time.monotonic()
    outcome = race_engines(get_instance("ring04").build(),
                           ["sleepy", "pdr"],
                           EngineOptions(max_bound=15, time_limit=None))
    elapsed = time.monotonic() - started
    assert outcome.winner == "pdr"
    assert outcome.result.verdict is Verdict.PASS
    assert elapsed < 30.0, "loser cancellation did not cut the race short"
    sleepy = outcome.results["sleepy"]
    assert sleepy.verdict is Verdict.OVERFLOW
    assert "lost the race" in sleepy.message
    _assert_no_stray_workers(before)


@_FORK_ONLY
def test_deadline_cancels_unresponsive_workers(monkeypatch):
    """A worker that cannot time itself out is terminated at the deadline."""
    monkeypatch.setitem(ENGINES, "sleepy", _SleepyEngine)
    before = multiprocessing.active_children()
    started = time.monotonic()
    outcome = race_engines(get_instance("ring04").build(), ["sleepy"],
                           EngineOptions(max_bound=15, time_limit=0.5))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    assert outcome.winner is None
    result = outcome.result  # last engine's result, per the contract
    assert result.verdict is Verdict.OVERFLOW
    assert "deadline" in result.message
    _assert_no_stray_workers(before)


@_FORK_ONLY
def test_late_starters_get_their_full_time_budget(monkeypatch):
    """With fewer lanes than engines, each member's clock starts at launch.

    The sequential portfolio grants ``time_limit`` to each member in turn;
    a single-lane race must do the same — the engine queued behind a
    worker that burns its whole budget still gets its own full budget, not
    the dregs of a race-wide deadline.
    """
    monkeypatch.setitem(ENGINES, "sleepy", _SleepyEngine)
    outcome = race_engines(get_instance("ring04").build(), ["sleepy", "pdr"],
                           EngineOptions(max_bound=15, time_limit=1.0),
                           jobs=1)
    # sleepy is terminated at its own deadline; pdr then starts fresh and
    # solves well inside its own 1 s budget.
    assert outcome.winner == "pdr"
    assert outcome.result.verdict is Verdict.PASS
    assert outcome.results["sleepy"].verdict is Verdict.OVERFLOW


@_FORK_ONLY
def test_run_all_parallel_keeps_disagreement_check(monkeypatch):
    monkeypatch.setitem(ENGINES, "liar", _LiarEngine)
    portfolio = Portfolio(engine_names=["pdr", "liar"],
                          options=EngineOptions(max_bound=15))
    with pytest.raises(RuntimeError, match="disagree"):
        portfolio.run_all(get_instance("ring04").build(), parallel=True)


@_FORK_ONLY
def test_crashed_worker_reports_unknown_not_hang(monkeypatch):
    class _CrashEngine(UmcEngine):
        name = "crash"

        def _run(self):
            raise ValueError("boom")

    monkeypatch.setitem(ENGINES, "crash", _CrashEngine)
    outcome = race_engines(get_instance("ring04").build(), ["crash", "pdr"],
                           EngineOptions(max_bound=15))
    assert outcome.winner == "pdr"
    assert outcome.results["crash"].verdict is Verdict.UNKNOWN
    assert "boom" in outcome.results["crash"].message
