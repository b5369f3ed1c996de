"""``python -m repro.obs.bench``: parsing and summaries on canned output.

No benchmark runs here: the parser is fed text in the shape
``perfbench/run.py`` prints, and the summary is computed from parsed runs.
"""

import json

import pytest

from repro.obs.bench import Pair, parse_run, parse_seeds, quartiles, summarise


def _output(workload, suite_s, rss, fingerprint="86b943bf9f5b9017",
            failed=0):
    metrics = {"setup_s": {"value": 0.18, "unit": "s"},
               "suite_s": {"value": suite_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        f"workload {workload} seed 3: 20 cells, budgets max_clauses=None",
        "cell itpseq/ring06 0.123 s clauses 411",
        "raw pass = 3.5 .. 3.7 s (not gated), speed factor median 1.0625",
        f"fingerprint {workload} = {fingerprint} (2 untraced passes)",
        f"failed_frac = 0.0 ratio ({failed} of 20 cells)",
        f"metric suite_s = {suite_s!r} s",
        json.dumps({"correct": failed == 0, "attempted": 20,
                    "failed": failed, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_the_json_line_and_the_fingerprint():
    run = parse_run(_output("itp_deep", 3.52, 38.6), "itp_deep")
    assert run.metrics == {"setup_s": 0.18, "suite_s": 3.52,
                           "peak_rss_mb": 38.6}
    assert run.units["peak_rss_mb"] == "MB"
    assert run.fingerprint == "86b943bf9f5b9017"
    assert run.speed_factor == 1.0625
    assert run.correct and run.attempted == 20 and run.failed == 0


def test_parse_run_without_a_result_line_fails():
    with pytest.raises(ValueError):
        parse_run("perfbench: no program to measure\n", "itp_deep")


def test_quartiles_and_seeds():
    q = quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (q["median"], q["q1"], q["q3"], q["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert quartiles([7.0])["iqr"] == 0.0
    assert parse_seeds("101-104,9") == [101, 102, 103, 104, 9]


def test_summarise_counts_pair_wins_in_the_metric_direction():
    pairs = []
    for seed, (before, after) in enumerate([(4.0, 3.5), (4.2, 3.6),
                                            (3.9, 4.0)]):
        parent = parse_run(_output("itp_deep", before, 39.0), "itp_deep")
        change = parse_run(_output("itp_deep", after, 38.5,
                                   fingerprint="86b943bf9f5b9017"),
                           "itp_deep")
        pairs.append(Pair(seed, "parent" if seed % 2 == 0 else "change",
                          parent, change))
    summary = summarise(pairs, {"suite_s": "lower", "setup_s": "lower",
                                "peak_rss_mb": "lower"})
    suite = summary["metrics"]["suite_s"]
    assert suite["change_wins"] == 2 and suite["pairs"] == 3
    assert suite["parent"]["median"] == 4.0
    assert suite["change"]["median"] == 3.6
    assert suite["median_delta_frac"] == pytest.approx(-0.1)
    # Equal values are not a win.
    assert summary["metrics"]["setup_s"]["change_wins"] == 0
    assert summary["fingerprints"] == {"parent": ["86b943bf9f5b9017"],
                                       "change": ["86b943bf9f5b9017"]}
    assert summary["all_correct"] and summary["failed"] == {"parent": 0,
                                                            "change": 0}
    higher = summarise(pairs, {"suite_s": "higher"})
    assert higher["metrics"]["suite_s"]["change_wins"] == 1
