"""Benchmark: parallel-vs-serial identity, with the speedup for the record.

Correctness is judged by identity, per the repo convention: a pooled
harness run must regenerate *every* Table I cell byte-identically to the
serial reference run, and a racing portfolio must return the sequential
verdict on every instance.  Those identities are the committed artefact.
The measured speedups are archived under ``results/timing/`` for the
record only — they depend on the runner's core count (a single-core CI
box will even show a slowdown from process overhead) and are asserted
nowhere.
"""

import os
import time

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.circuits import academic_suite
from repro.core import EngineOptions, Portfolio
from repro.harness import (
    ExperimentRunner,
    HarnessConfig,
    format_table,
    render_table1,
)

pytestmark = pytest.mark.benchmark(group="parallel")

_CONFIG = HarnessConfig(options=EngineOptions(max_bound=25,
                                              max_clauses=CLAUSE_BUDGET,
                                              max_propagations=PROP_BUDGET),
                        run_bdds=False)


def test_parallel_harness_identity(benchmark, save_artifact, save_timing, jobs):
    """Every artefact cell identical at jobs=1 and jobs=N; speedup recorded."""
    instances = academic_suite()
    fanout = jobs or (os.cpu_count() or 1)  # 0 = all cores

    def _both():
        serial_started = time.monotonic()
        serial = ExperimentRunner(_CONFIG).run_suite(instances, jobs=1)
        serial_elapsed = time.monotonic() - serial_started
        pooled_started = time.monotonic()
        pooled = ExperimentRunner(_CONFIG).run_suite(instances,
                                                     jobs=max(2, fanout))
        pooled_elapsed = time.monotonic() - pooled_started
        return serial, pooled, serial_elapsed, pooled_elapsed

    serial, pooled, serial_elapsed, pooled_elapsed = benchmark.pedantic(
        _both, rounds=1, iterations=1)

    serial_table = render_table1(serial, deterministic=True)
    pooled_table = render_table1(pooled, deterministic=True)
    assert serial_table == pooled_table
    serial_rows = [r.as_deterministic_dict() for r in serial]
    pooled_rows = [r.as_deterministic_dict() for r in pooled]
    assert serial_rows == pooled_rows
    cells = sum(len(row) for row in serial_rows)

    save_artifact("parallel_identity.txt", format_table(
        ["property", "value"],
        [["instances", len(instances)],
         ["engines per instance", len(_CONFIG.engines)],
         ["deterministic cells compared", cells],
         ["cells identical serial vs pooled", all(
             s == p for s, p in zip(serial_rows, pooled_rows))]],
        title="parallel harness: jobs=N vs jobs=1 artefact identity"))
    save_timing("parallel_speedup.txt", format_table(
        ["mode", "jobs", "wall_clock_s"],
        [["serial", 1, round(serial_elapsed, 2)],
         ["pooled", max(2, fanout), round(pooled_elapsed, 2)],
         ["speedup", "-", round(serial_elapsed / max(pooled_elapsed, 1e-9), 2)]],
        title="parallel harness speedup (informational; core-count dependent)"))


def test_racing_portfolio_identity(save_artifact, save_timing):
    """The race returns the sequential verdict on every academic instance."""
    options = EngineOptions(max_bound=25, time_limit=None,
                            max_clauses=CLAUSE_BUDGET,
                            max_propagations=PROP_BUDGET)
    portfolio = Portfolio(options=options)
    rows = []
    sequential_total = race_total = 0.0
    for instance in academic_suite():
        model = instance.build()
        started = time.monotonic()
        sequential = portfolio.run_first_solved(model)
        sequential_elapsed = time.monotonic() - started
        started = time.monotonic()
        raced = portfolio.run_first_solved(model, parallel=True)
        race_elapsed = time.monotonic() - started
        sequential_total += sequential_elapsed
        race_total += race_elapsed
        assert raced.verdict == sequential.verdict, instance.name
        rows.append([instance.name, sequential.verdict.value,
                     raced.verdict.value,
                     raced.verdict == sequential.verdict])
    save_artifact("portfolio_race_identity.txt", format_table(
        ["instance", "sequential_verdict", "race_verdict", "identical"],
        rows, title="racing portfolio vs sequential portfolio (verdicts)"))
    save_timing("portfolio_race_speedup.txt", format_table(
        ["mode", "total_wall_clock_s"],
        [["sequential", round(sequential_total, 2)],
         ["race", round(race_total, 2)],
         ["speedup", round(sequential_total / max(race_total, 1e-9), 2)]],
        title="racing portfolio speedup (informational; core-count dependent)"))
