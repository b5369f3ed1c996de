"""Tracing's non-interference and determinism contracts.

Three properties hold the subsystem together:

* verdicts, depth pairs and every deterministic counter are byte-identical
  with tracing on and off (the tracer observes, never steers);
* the deterministic projection of an event stream is identical at any job
  count (suite merges happen in suite x engine order, race merges in
  registry order);
* the itpseq quick-suite trace attributes >=95% of cumulative clause
  additions to named phase spans (the ISSUE's coverage bar for the
  instrumentation itself).
"""

import json

import pytest

from repro.circuits import get_instance, quick_suite
from repro.core import EngineOptions, run_engine
from repro.harness import ExperimentRunner, HarnessConfig
from repro.obs.events import validate_event
from repro.obs.report import attribution, build_spans
from repro.obs.sinks import ListSink, read_jsonl
from repro.obs.tracer import Tracer

_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr")

#: Deterministic budgets only — no wall clock near control flow.
_CONFIG = dict(options=EngineOptions(max_bound=20, max_clauses=5_000_000),
               run_bdds=False, engines=("itpseq", "pdr"))


def _result_fingerprint(result):
    stats = result.stats.as_dict()
    stats.pop("sat_time")  # the one wall-clock (non-deterministic) counter
    return (result.verdict.value, result.k_fp, result.j_fp, stats)


@pytest.mark.parametrize("engine", _ENGINES)
def test_tracing_does_not_change_results(engine):
    model_factory = get_instance("ring04")
    baseline = run_engine(engine, model_factory.build())
    traced = run_engine(engine, model_factory.build(),
                        tracer=Tracer(ListSink()))
    assert _result_fingerprint(traced) == _result_fingerprint(baseline)


def test_traced_counters_match_span_totals():
    """The run span's counter deltas ARE the engine's stats counters."""
    sink = ListSink()
    result = run_engine("itpseq", get_instance("ring04").build(),
                        tracer=Tracer(sink))
    for event in sink.events:
        validate_event(event.as_dict())
    spans, _ = build_spans([e.as_dict() for e in sink.events])
    run_span = next(s for s in spans.values() if s.name == "run")
    stats = result.stats
    assert run_span.counters["clauses_added"] == stats.clauses_added
    assert run_span.counters["conflicts"] == stats.conflicts
    assert run_span.counters["propagations"] == stats.propagations


def test_quick_suite_attribution_meets_the_bar(tmp_path):
    """>=95% of itpseq clause additions land in named phase spans."""
    config = HarnessConfig(events_dir=str(tmp_path), engines=("itpseq",),
                           options=EngineOptions(max_bound=20,
                                                 max_clauses=5_000_000),
                           run_bdds=False)
    ExperimentRunner(config).run_suite(quick_suite(), jobs=1)
    events = read_jsonl(str(tmp_path / "suite.jsonl"))
    assert events, "suite trace is empty"
    for event in events:
        validate_event(event)
    spans, _ = build_spans(events)
    attributed, total, fraction = attribution(spans)
    assert total > 0
    assert fraction >= 0.95, (
        f"only {attributed}/{total} ({fraction:.1%}) of clauses_added "
        f"attributed to named phase spans")


@pytest.fixture(scope="module")
def traced_suite_runs(tmp_path_factory):
    """The quick suite, traced, at jobs=1 and jobs=3 (plus untraced)."""
    runs = {}
    for jobs in (1, 3):
        events_dir = str(tmp_path_factory.mktemp(f"jobs{jobs}"))
        config = HarnessConfig(events_dir=events_dir, **_CONFIG)
        records = ExperimentRunner(config).run_suite(quick_suite(), jobs=jobs)
        runs[jobs] = (records, events_dir)
    untraced = ExperimentRunner(HarnessConfig(**_CONFIG)).run_suite(
        quick_suite(), jobs=1)
    runs["off"] = (untraced, None)
    return runs


def _deterministic_stream(events_dir):
    events = read_jsonl(events_dir + "/suite.jsonl")
    return [{k: v for k, v in e.items() if k != "wall"} for e in events]


def test_records_identical_tracing_on_off(traced_suite_runs):
    traced, _ = traced_suite_runs[1]
    untraced, _ = traced_suite_runs["off"]
    assert [r.as_deterministic_dict() for r in traced] == \
           [r.as_deterministic_dict() for r in untraced]


def test_suite_trace_identical_at_any_job_count(traced_suite_runs):
    _, dir1 = traced_suite_runs[1]
    _, dir3 = traced_suite_runs[3]
    stream1 = _deterministic_stream(dir1)
    stream3 = _deterministic_stream(dir3)
    assert stream1, "serial suite trace is empty"
    assert stream1 == stream3


def test_race_merge_is_registry_ordered(tmp_path):
    from repro.parallel import race_engines

    events_path = str(tmp_path / "race.jsonl")
    outcome = race_engines(get_instance("ring04").build(),
                           ["itpseq", "pdr"], jobs=2,
                           first_result_wins=False, events_path=events_path)
    assert all(r.solved for r in outcome.results.values())
    events = read_jsonl(events_path)
    for event in events:
        validate_event(event)
    # Workers finish in wall-clock order, but the merged stream leads with
    # the registry-first engine's segment.
    run_engines = [e["attrs"]["engine"] for e in events
                   if e["kind"] == "begin" and e["name"] == "run"]
    assert run_engines == ["itpseq", "pdr"]


def test_cancelled_loser_segment_is_complete_lines(tmp_path):
    """A first-result-wins race may kill a worker mid-write; the merged
    stream must still be parseable line by line."""
    from repro.parallel import race_engines

    events_path = str(tmp_path / "race.jsonl")
    race_engines(get_instance("ring04").build(), list(_ENGINES),
                 first_result_wins=True, events_path=events_path)
    with open(events_path) as fh:
        for line in fh:
            assert line.endswith("\n")
            json.loads(line)
