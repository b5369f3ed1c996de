"""Sharing is answer-preserving — the headline guarantee.

Three legs per instance, for every engine in the portfolio plus bmc:

* **solo** — the engine runs exactly as before sharing existed;
* **cooperative** — a run-all race, where foreign lemmas may skip
  proof-free counterexample searches but never touch a proof-logged
  solve;
* **replay** — each engine re-run alone against the race's share log
  (``ReplayShareBus``), the artefact-regeneration path.

Verdict, ``k_fp`` and ``j_fp`` must be identical across all three on the
quick and redundant suites.  This is the test that pins "sharing defaults
to free speedup, never a different answer".

All three legs run with ``group_proof=False``: attaching a share port
*suspends* group-aware proof logging (see
:meth:`repro.core.base.UmcEngine._group_proof_active`), so the
share-compatible configuration is the fresh-solver pipeline, and
identity is guaranteed relative to it.  Solo *defaults* (group proof on)
may legitimately converge at a neighbouring bound on a few instances —
that on-vs-off relationship is pinned separately in
``tests/core/test_group_proof_identity.py``.
"""

import pytest

from repro.bmc.engine import BmcEngine
from repro.circuits.suite import quick_suite, redundant_suite
from repro.core import EngineOptions
from repro.core.portfolio import ENGINES, run_engine
from repro.share import cooperative_race
from repro.share.bus import LocalShareBus, ReplayShareBus
from repro.share.lemma import DepthLemma
from repro.share.log import read_share_log

MAX_BOUND = 20

ALL_ENGINES = sorted(ENGINES) + ["bmc"]

_INSTANCES = {inst.name: inst for inst in quick_suite() + redundant_suite()}


def _options():
    return EngineOptions(max_bound=MAX_BOUND, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000,
                         group_proof=False)


def _solo(name, model):
    if name == "bmc":
        raw = BmcEngine(model).run(max_depth=MAX_BOUND)
        return (raw.status, raw.depth if raw.status == "fail"
                else raw.checked_depth)
    result = run_engine(name, model, options=_options())
    return (result.verdict.value, result.k_fp, result.j_fp)


def _replayed(name, model, bus):
    port = bus.port(name)
    if name == "bmc":
        raw = BmcEngine(model, share=port).run(max_depth=MAX_BOUND)
        return (raw.status, raw.depth if raw.status == "fail"
                else raw.checked_depth)
    result = run_engine(name, model, options=_options(), share=port)
    return (result.verdict.value, result.k_fp, result.j_fp)


def _from_race(name, result):
    if name == "bmc":
        # Invert _adapt_bmc: UNKNOWN carries no_cex/checked_depth.
        if result.verdict.value == "fail":
            return ("fail", result.k_fp)
        return ("no_cex", result.k_fp)
    return (result.verdict.value, result.k_fp, result.j_fp)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_share_identity(name, tmp_path):
    instance = _INSTANCES[name]
    log_path = tmp_path / "share.jsonl"
    outcome = cooperative_race(instance.build(), options=_options(),
                               first_result_wins=False,
                               log_path=str(log_path))
    bus = ReplayShareBus(read_share_log(str(log_path)))
    for engine in ALL_ENGINES:
        solo = _solo(engine, instance.build())
        raced = _from_race(engine, outcome.results[engine])
        replayed = _replayed(engine, instance.build(), bus)
        assert raced == solo, (name, engine, raced, solo)
        assert replayed == solo, (name, engine, replayed, solo)
        # The suite's planted ground truth holds wherever the engine solved.
        if engine != "bmc" and solo[0] in ("pass", "fail"):
            assert solo[0] == instance.expected, (name, engine)


def test_honest_depth_lemma_skips_searcher_solves_without_changing_answer():
    # The base import path: an accepted DepthLemma answers every search at
    # a bound it covers, so those solves are skipped.  The searcher runs
    # without proof logging while a port is attached, even with group
    # proof requested, and the answer is the solo run's.
    instance = _INSTANCES["ring04"]
    bus = LocalShareBus()
    engine = ENGINES["itpseq"](instance.build(),
                               options=_options().with_changes(group_proof=True),
                               share=bus.port("itpseq"))
    # ring04 is safe, so "no counterexample up to depth 3" is honest.
    bus.port("peer").publish(DepthLemma(depth=3))
    result = engine.run()
    assert result.stats.lemmas_rx == 1
    assert result.stats.lemmas_retracted == 0
    assert result.stats.share_solves_skipped > 0
    assert result.stats.proof_group_solves_saved == 0
    assert not engine._cex_searcher.proof_logging
    assert (result.verdict.value, result.k_fp, result.j_fp) \
        == _solo("itpseq", instance.build())
