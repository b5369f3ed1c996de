"""Sharing is answer-preserving — the headline guarantee.

Two legs per instance, for every engine in the portfolio plus bmc:

* **solo** — the engine runs alone on a share port with no peer
  (``LocalShareBus().port(name)``), so it imports nothing;
* **cooperative** — a run-all race, where foreign lemmas may skip
  proof-free counterexample searches but never touch a proof-logged
  solve.

Verdict, ``k_fp`` and ``j_fp`` must be identical across both on the
quick and redundant suites.  This is the test that pins "sharing defaults
to free speedup, never a different answer".

Attaching a share port *suspends* group-aware proof logging (see
:meth:`repro.core.base.UmcEngine._group_proof_active`): every leg
refutes on fresh checks, so identity is stated against a peerless port.
A run with no port at all refutes on its one proof-logged unrolling and
may converge at a neighbouring bound; its verdict must still be the
same, and ``tests/core/test_group_proof_identity.py`` holds its own
oracle.
"""

import pytest

from repro.bmc.engine import BmcEngine, BmcResult
from repro.circuits.suite import quick_suite, redundant_suite
from repro.core import EngineOptions
from repro.core.portfolio import ENGINES
from repro.share import cooperative_race
from repro.share.bus import LocalShareBus
from repro.share.lemma import DepthLemma

MAX_BOUND = 20

ALL_ENGINES = sorted(ENGINES) + ["bmc"]

_INSTANCES = {inst.name: inst for inst in quick_suite() + redundant_suite()}


def _options():
    return EngineOptions(max_bound=MAX_BOUND, time_limit=None,
                         max_clauses=2_000_000,
                         max_propagations=50_000_000)


def _bmc_outcome(raw):
    return (raw.status, raw.depth if raw.status == "fail"
            else raw.checked_depth)


def _outcome(name, model, port=None):
    if name == "bmc":
        return _bmc_outcome(BmcEngine(model, share=port)
                            .run(max_depth=MAX_BOUND))
    result = ENGINES[name](model, options=_options(), share=port).run()
    return (result.verdict.value, result.k_fp, result.j_fp)


def _solo(name, model):
    return _outcome(name, model, LocalShareBus().port(name))


def _from_race(name, result):
    if name == "bmc":
        return _bmc_outcome(BmcResult.from_verification(result))
    return (result.verdict.value, result.k_fp, result.j_fp)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_share_identity(name):
    instance = _INSTANCES[name]
    outcome = cooperative_race(instance.build(), options=_options(),
                               first_result_wins=False)
    for engine in ALL_ENGINES:
        solo = _solo(engine, instance.build())
        raced = _from_race(engine, outcome.results[engine])
        assert raced == solo, (name, engine, raced, solo)
        default = _outcome(engine, instance.build())
        assert default[0] == solo[0], (name, engine, default, solo)
        # The suite's planted ground truth holds wherever the engine solved.
        if engine != "bmc" and solo[0] in ("pass", "fail"):
            assert solo[0] == instance.expected, (name, engine)


def test_honest_depth_lemma_skips_searcher_solves_without_changing_answer():
    # The base import path: an accepted DepthLemma answers every search at
    # a bound it covers, so those solves are skipped.  The searcher runs
    # without proof logging while a port is attached, and the answer is
    # the peerless run's.
    instance = _INSTANCES["ring04"]
    bus = LocalShareBus()
    engine = ENGINES["itpseq"](instance.build(), options=_options(),
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
