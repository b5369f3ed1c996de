"""Live multi-process cooperative races: pipes, logs, kill tolerance.

A live race is not schedule-deterministic (the cooperative in-process
runner is — see ``tests/share/test_coop.py``); what must hold here is
that the duplex share plumbing never changes a verdict, that the parent's
single-writer share log is parseable even after losers were killed
mid-lemma, and that no worker outlives the race.
"""

import multiprocessing
import time

from repro.circuits import get_instance
from repro.core import ENGINES, EngineOptions
from repro.parallel import race_engines
from repro.share.log import read_share_log

ALL_ENGINES = list(ENGINES) + ["bmc"]


def _options():
    return EngineOptions(max_bound=20, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000)


def _assert_no_stray_workers(before):
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        strays = [p for p in multiprocessing.active_children()
                  if p not in before]
        if not strays:
            return
        time.sleep(0.05)
    raise AssertionError(f"raced workers leaked: {strays}")


def test_shared_race_verdict_and_log(tmp_path):
    before = multiprocessing.active_children()
    for name, expected in (("ring04", "pass"), ("mutexbug", "fail")):
        path = tmp_path / f"{name}.jsonl"
        outcome = race_engines(get_instance(name).build(), ALL_ENGINES,
                               options=_options(), share=True,
                               share_log=str(path))
        assert outcome.winner is not None, name
        assert outcome.result.verdict.value == expected, name
        _assert_no_stray_workers(before)
        # Losers were killed the moment the winner reported — possibly
        # mid-lemma — yet the parent-side log stays fully parseable.
        data = read_share_log(str(path))
        assert data.fingerprint is not None
        assert data.engines  # the header recorded the participants
        for seq, pub in data.published.items():
            assert pub.source in ALL_ENGINES
            assert seq >= 0


def test_shared_race_run_all_matches_blind(tmp_path):
    model_name = "mutexbug"
    before = multiprocessing.active_children()
    blind = race_engines(get_instance(model_name).build(), ALL_ENGINES,
                         options=_options(), first_result_wins=False)
    shared = race_engines(get_instance(model_name).build(), ALL_ENGINES,
                          options=_options(), first_result_wins=False,
                          share=True,
                          share_log=str(tmp_path / "share.jsonl"))
    _assert_no_stray_workers(before)
    # Sharing is answer-preserving: every engine's verdict and fixpoint
    # bounds are identical to the blind race.
    for name in ALL_ENGINES:
        b, s = blind.results[name], shared.results[name]
        assert (b.verdict, b.k_fp, b.j_fp) == (s.verdict, s.k_fp, s.j_fp), name
