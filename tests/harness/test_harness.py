"""Tests for the experiment harness: runner, records, rendering, figures."""

import pytest

from repro.circuits import SuiteInstance, counter, full_suite, get_instance, quick_suite, token_ring
from repro.core import EngineOptions
from repro.harness import (
    EngineRecord,
    ExperimentRunner,
    HarnessConfig,
    InstanceRecord,
    ascii_curves,
    ascii_scatter,
    fig6_series,
    fig6_summary,
    format_csv,
    format_table,
    render_fig6,
    render_fig7,
    render_table1,
    run_fig7,
    table1_headers,
    table1_rows,
)
from repro.harness.fig7 import Fig7Point


def _tiny_config(**kwargs):
    defaults = dict(engines=("itpseq", "itp"),
                    options=EngineOptions(time_limit=60.0, max_bound=15),
                    run_bdds=True, bdd_time_limit=10.0)
    defaults.update(kwargs)
    return HarnessConfig(**defaults)


def test_suite_contents_and_lookup():
    suite = full_suite()
    names = [inst.name for inst in suite]
    assert len(names) == len(set(names)), "duplicate instance names"
    assert len(suite) >= 30
    assert all(inst.expected in ("pass", "fail") for inst in suite)
    assert any(inst.category == "industrial" for inst in suite)
    assert get_instance("ring04").expected == "pass"
    with pytest.raises(KeyError):
        get_instance("does_not_exist")
    assert 5 <= len(quick_suite()) <= len(suite)


def test_suite_build_renames_model():
    instance = get_instance("mutex")
    model = instance.build()
    assert model.name == "mutex"


def test_runner_single_instance_pass_and_fail():
    runner = ExperimentRunner(_tiny_config())
    record = runner.run_instance(get_instance("ring04"))
    assert record.verdict_consistent()
    assert record.bdd is not None and record.bdd.is_pass
    assert set(record.engines) == {"itpseq", "itp"}
    assert all(rec.solved for rec in record.engines.values())

    record = runner.run_instance(get_instance("mutexbug"))
    assert record.verdict_consistent()
    assert all(rec.verdict == "fail" for rec in record.engines.values())
    assert record.engines["itpseq"].k_fp == 2


def test_runner_detects_verdict_mismatch():
    runner = ExperimentRunner(_tiny_config(run_bdds=False))
    wrong = SuiteInstance("wrong", lambda: token_ring(4), "fail", "academic")
    with pytest.raises(RuntimeError):
        runner.run_instance(wrong)


def test_runner_rejects_unknown_engine():
    with pytest.raises(KeyError):
        ExperimentRunner(HarnessConfig(engines=("nope",)))


def test_runner_respects_custom_engine_options():
    options = EngineOptions(max_bound=12, time_limit=30.0)
    config = HarnessConfig(engines=("itpseq",), options=options,
                           run_bdds=False)
    runner = ExperimentRunner(config)
    record = runner.run_instance(get_instance("arb03"))
    assert record.engines["itpseq"].solved


def _sample_records():
    runner = ExperimentRunner(_tiny_config(run_bdds=False))
    instances = [get_instance(n) for n in ("ring04", "mutex", "cnt08")]
    return runner.run_suite(instances)


def test_run_suite_with_progress_callback():
    seen = []
    runner = ExperimentRunner(_tiny_config(run_bdds=False))
    runner.run_suite([get_instance("ring04")],
                     progress=lambda name, elapsed, rec: seen.append((name, elapsed)))
    assert seen and seen[0][0] == "ring04"


def test_table1_rendering_and_csv():
    records = _sample_records()
    headers = table1_headers(("itpseq", "itp"))
    rows = table1_rows(records, ("itpseq", "itp"))
    assert len(rows) == 3
    assert len(rows[0]) == len(headers)
    text = render_table1(records, ("itpseq", "itp"))
    assert "ring04" in text and "Table I" in text
    csv = render_table1(records, ("itpseq", "itp"), as_csv=True)
    assert csv.splitlines()[0].startswith("Name,")
    assert len(csv.splitlines()) == 4


def test_fig6_series_and_summary():
    records = _sample_records()
    series = fig6_series(records, ("itpseq", "itp"), time_limit=60.0)
    assert set(series) == {"itpseq", "itp"}
    for curve in series.values():
        assert curve == sorted(curve)
        assert len(curve) == 3
    summary = fig6_summary(records, ("itpseq", "itp"))
    assert all(row[2] == 3 for row in summary)      # everything solved
    text = render_fig6(records, ("itpseq", "itp"), time_limit=60.0)
    assert "sorted runtimes" in text
    csv = render_fig6(records, ("itpseq", "itp"), time_limit=60.0, as_csv=True)
    assert csv.splitlines()[0] == "rank,itpseq,itp"


def test_fig7_run_and_render():
    instances = [get_instance(n) for n in ("ring04", "mutexbug")]
    points = run_fig7(instances, time_limit=60.0, max_bound=15)
    assert len(points) == 2
    for point in points:
        assert point.exact_verdict == point.assume_verdict
    text = render_fig7(points)
    assert "assume-k" in text
    csv = render_fig7(points, as_csv=True)
    assert csv.splitlines()[0].startswith("name,")


def test_engine_record_from_result_and_dict():
    from repro.core import run_engine
    result = run_engine("itpseq", token_ring(4), EngineOptions(max_bound=10))
    record = EngineRecord.from_result(result)
    assert record.solved and record.verdict == "pass"
    as_dict = record.as_dict()
    assert as_dict["engine"] == "itpseq"
    assert "k_fp" in as_dict


def test_instance_record_as_dict_includes_engines():
    records = _sample_records()
    row = records[0].as_dict()
    assert row["name"] == "ring04"
    assert "itpseq_time" in row and "itp_verdict" in row


def test_format_table_and_csv_alignment():
    table = format_table(["a", "bb"], [[1, None], [2.5, "x"]], title="t")
    lines = table.splitlines()
    assert lines[0] == "t"
    assert "-" in lines[2]
    assert "2.500" in table
    csv = format_csv(["a", "b"], [[1, None]])
    assert csv == "a,b\n1,-"


def test_ascii_plots_handle_empty_and_nonempty_input():
    assert ascii_scatter([]) == "(no points)"
    assert ascii_curves({}) == "(no series)"
    scatter = ascii_scatter([(1.0, 2.0), (3.0, 1.0)])
    assert "*" in scatter
    curves = ascii_curves({"e1": [0.1, 0.5, 1.0], "e2": [0.2, 0.3]})
    assert "e1" in curves and "e2" in curves


def test_fig7_point_winner_flag():
    point = Fig7Point("x", exact_time=2.0, assume_time=1.0,
                      exact_verdict="pass", assume_verdict="pass")
    assert point.assume_wins
    point = Fig7Point("x", exact_time=1.0, assume_time=2.0,
                      exact_verdict="pass", assume_verdict="pass")
    assert not point.assume_wins
