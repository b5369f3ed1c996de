"""BmcEngine as a UmcEngine front-end: per-run stats, tracing, preprocessing."""

import pytest

from repro.bmc import BmcEngine
from repro.circuits import get_instance, token_ring
from repro.core import run_engine
from repro.obs.events import validate_event
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.obs.tracer import Tracer


def test_negative_max_depth_is_rejected():
    engine = BmcEngine(get_instance("cnt08").build())
    with pytest.raises(ValueError, match="max_depth"):
        engine.run(max_depth=-1)


def test_stats_reset_per_run():
    engine = BmcEngine(get_instance("cnt08").build())
    first = engine.run(max_depth=10)
    second = engine.run(max_depth=10)
    assert (second.status, second.depth) == (first.status, first.depth)
    assert second.clause_additions == first.clause_additions
    assert engine.stats.clauses_added == second.clause_additions
    assert engine.stats.sat_calls == second.sat_calls


def test_traced_run_validates_and_reports_the_verdict_point(tmp_path):
    path = str(tmp_path / "bmc.jsonl")
    sink = JsonlSink(path)
    result = BmcEngine(token_ring(4, buggy=True),
                       tracer=Tracer(sink)).run(max_depth=6)
    sink.close()
    events = read_jsonl(path)
    assert events
    for event in events:
        validate_event(event)
    verdict = next(e for e in events if e["name"] == "verdict")
    assert verdict["attrs"]["engine"] == "bmc"
    assert (verdict["attrs"]["verdict"], verdict["attrs"]["k_fp"],
            verdict["attrs"]["j_fp"]) == ("fail", result.depth, 0)


def test_preprocess_stats_match_the_other_engines():
    instance = get_instance("red_dead08bug")
    engine = BmcEngine(instance.build())
    result = engine.run(max_depth=12)
    assert result.status == "fail"
    reference = run_engine("itpseq", instance.build()).stats
    assert engine.stats.pre_latches_removed > 0
    assert engine.stats.pre_latches_removed == reference.pre_latches_removed
    assert engine.stats.pre_ands_removed == reference.pre_ands_removed
