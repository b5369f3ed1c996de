"""Benchmark: regenerate Table I (per-instance engine comparison).

Two granularities are provided:

* ``test_table1_academic_block`` / ``test_table1_industrial_block`` run the
  full Table I protocol (BDD baseline + the five engines) on each block of
  the suite and archive the rendered table under ``benchmarks/results/``
  (deterministic columns; the wall-clock variant goes to ``results/timing/``);
* the ``test_table1_row_*`` benchmarks time a handful of representative
  single rows, which is what pytest-benchmark's statistics are most useful
  for.

The block runs budget on ``max_clauses`` instead of a wall clock and fan
out over ``--jobs`` workers: both choices are invisible in the committed
artefact (same cells, same bytes), which is exactly what the CI staleness
gate checks.
"""

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import academic_suite, get_instance, industrial_suite
from repro.core import EngineOptions
from repro.harness import HarnessConfig, ExperimentRunner, render_table1

pytestmark = pytest.mark.benchmark(group="table1")

_CONFIG = HarnessConfig(options=EngineOptions(max_bound=25,
                                              max_clauses=CLAUSE_BUDGET,
                                              max_propagations=PROP_BUDGET),
                        bdd_node_limit=200_000, bdd_time_limit=None)


def _run_block(instances, jobs, config=_CONFIG):
    runner = ExperimentRunner(config)
    return runner.run_suite(instances, jobs=jobs)


def _save_block(records, stem, save_artifact, save_timing):
    save_artifact(f"{stem}.txt", render_table1(records, deterministic=True))
    save_artifact(f"{stem}.csv",
                  render_table1(records, deterministic=True, as_csv=True))
    save_timing(f"{stem}.txt", render_table1(records))
    save_timing(f"{stem}.csv", render_table1(records, as_csv=True))


def test_table1_academic_block(benchmark, save_artifact, save_timing, jobs,
                               with_events):
    config = with_events(_CONFIG, "table1_academic")
    records = benchmark.pedantic(_run_block,
                                 args=(academic_suite(), jobs, config),
                                 rounds=1, iterations=1)
    _save_block(records, "table1_academic", save_artifact, save_timing)
    assert all(record.verdict_consistent() for record in records)


def test_table1_industrial_block(benchmark, save_artifact, save_timing, jobs,
                                 with_events):
    config = with_events(_CONFIG, "table1_industrial")
    records = benchmark.pedantic(_run_block,
                                 args=(industrial_suite(), jobs, config),
                                 rounds=1, iterations=1)
    _save_block(records, "table1_industrial", save_artifact, save_timing)
    assert all(record.verdict_consistent() for record in records)


@pytest.mark.parametrize("name", ["ring04", "mutex", "traffic1", "modcnt12", "cnt08"])
def test_table1_row(benchmark, name):
    instance = get_instance(name)
    runner = ExperimentRunner(_CONFIG)
    record = benchmark.pedantic(runner.run_instance, args=(instance,),
                                rounds=1, iterations=1)
    assert record.verdict_consistent()
