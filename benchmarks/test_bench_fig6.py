"""Benchmark: regenerate Fig. 6 (sorted per-engine effort curves).

The full suite is run with all five engines (no BDD baseline — Fig. 6 only
compares the SAT-based techniques).  The committed artefact is the
deterministic form (sorted clause-addition curves plus the solved-instance
summary without time columns); the paper's wall-clock form goes to
``results/timing/``.  Runs budget on ``max_clauses`` and fan out over
``--jobs`` workers — neither shows up in the committed bytes.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import full_suite, quick_suite
from repro.core import EngineOptions
from repro.harness import (
    HarnessConfig,
    ExperimentRunner,
    fig6_series,
    fig6_summary,
    render_fig6,
)

pytestmark = pytest.mark.benchmark(group="fig6")

_CONFIG = HarnessConfig(options=EngineOptions(max_bound=25,
                                              max_clauses=CLAUSE_BUDGET,
                                              max_propagations=PROP_BUDGET),
                        run_bdds=False)


def _run(instances, jobs, config=_CONFIG):
    return ExperimentRunner(config).run_suite(instances, jobs=jobs)


def test_fig6_full_suite(benchmark, save_artifact, save_timing, jobs,
                         with_events):
    config = with_events(_CONFIG, "fig6_full")
    records = benchmark.pedantic(_run, args=(full_suite(), jobs, config),
                                 rounds=1, iterations=1)
    save_artifact("fig6_full.txt", render_fig6(records, deterministic=True))
    save_artifact("fig6_full.csv",
                  render_fig6(records, deterministic=True, as_csv=True))
    save_timing("fig6_full.txt", render_fig6(records))
    save_timing("fig6_full.csv", render_fig6(records, as_csv=True))
    series = fig6_series(records)
    # Every engine produced a monotone curve over the same population.
    for engine, curve in series.items():
        assert curve == sorted(curve)
        assert len(curve) == len(records)
    # Sanity on the headline claim: every engine solves most of the suite.
    for row in fig6_summary(records):
        engine, total, solved = row[0], row[1], row[2]
        assert solved >= total // 2, f"{engine} solved too few instances"


def test_fig6_quick_subset(benchmark, save_artifact, save_timing, jobs,
                           with_events):
    config = with_events(_CONFIG, "fig6_quick")
    records = benchmark.pedantic(_run, args=(quick_suite(), jobs, config),
                                 rounds=1, iterations=1)
    save_artifact("fig6_quick.txt", render_fig6(records, deterministic=True))
    save_timing("fig6_quick.txt", render_fig6(records))
    assert len(records) == len(quick_suite())
