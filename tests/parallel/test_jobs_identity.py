"""Harness fan-out determinism: jobs>1 must be invisible in the records.

The whole value of ``HarnessConfig(jobs=N)`` rests on one property: the
records (and every artefact rendered from them) are identical to the
serial reference run, except for measured wall-clock fields.  These tests
pin that down on the full quick suite, deterministic renders included, and
cover the guard rails around the pooled path.
"""

import pytest

from repro.circuits import SuiteInstance, get_instance, quick_suite, token_ring
from repro.core import EngineOptions
from repro.harness import (
    ExperimentRunner,
    HarnessConfig,
    render_fig6,
    render_fig7,
    render_table1,
    run_fig7,
)

# Deterministic budget config: no wall clock anywhere near the control
# flow, so serial and pooled runs cannot diverge even on a loaded machine.
_CONFIG = dict(options=EngineOptions(max_bound=20, max_clauses=5_000_000),
               run_bdds=True, bdd_time_limit=None)


@pytest.fixture(scope="module")
def quick_records():
    config = HarnessConfig(**_CONFIG)
    serial = ExperimentRunner(config).run_suite(quick_suite(), jobs=1)
    pooled = ExperimentRunner(config).run_suite(quick_suite(), jobs=3)
    return serial, pooled


def test_records_bit_identical_modulo_time(quick_records):
    serial, pooled = quick_records
    assert len(serial) == len(pooled) == len(quick_suite())
    assert [r.as_deterministic_dict() for r in serial] == \
           [r.as_deterministic_dict() for r in pooled]


def test_deterministic_artefacts_identical_at_any_job_count(quick_records):
    serial, pooled = quick_records
    for as_csv in (False, True):
        assert render_table1(serial, deterministic=True, as_csv=as_csv) == \
               render_table1(pooled, deterministic=True, as_csv=as_csv)
    assert render_fig6(serial, deterministic=True) == \
           render_fig6(pooled, deterministic=True)


def test_config_jobs_field_is_used(quick_records):
    serial, _ = quick_records
    config = HarnessConfig(jobs=2, **_CONFIG)
    pooled = ExperimentRunner(config).run_suite(quick_suite())
    assert [r.as_deterministic_dict() for r in pooled] == \
           [r.as_deterministic_dict() for r in serial]


def test_fig7_jobs_identical():
    instances = [get_instance(n) for n in ("ring04", "mutexbug", "modcnt06")]
    kwargs = dict(time_limit=None, max_bound=20, max_clauses=5_000_000)
    serial = run_fig7(instances, jobs=1, **kwargs)
    pooled = run_fig7(instances, jobs=2, **kwargs)
    assert render_fig7(serial, deterministic=True) == \
           render_fig7(pooled, deterministic=True)
    for s, p in zip(serial, pooled):
        assert (s.name, s.exact_verdict, s.assume_verdict,
                s.exact_clauses, s.assume_clauses,
                s.exact_conflicts, s.assume_conflicts) == \
               (p.name, p.exact_verdict, p.assume_verdict,
                p.exact_clauses, p.assume_clauses,
                p.exact_conflicts, p.assume_conflicts)


def test_pooled_run_rejects_ad_hoc_instances():
    """Workers rebuild models by registry name; ad-hoc specs must fail fast."""
    runner = ExperimentRunner(HarnessConfig(engines=("pdr",), run_bdds=False))
    ad_hoc = SuiteInstance("not_in_registry", lambda: token_ring(4),
                           "pass", "academic")
    with pytest.raises(ValueError, match="registry"):
        runner.run_suite([ad_hoc], jobs=2)
    # Same spec, serial path: runs fine (the reference semantics).
    records = runner.run_suite([ad_hoc], jobs=1)
    assert records[0].engines["pdr"].verdict == "pass"


def test_progress_callback_fires_in_suite_order():
    seen = []
    config = HarnessConfig(engines=("pdr",), run_bdds=False,
                           options=EngineOptions(max_bound=20))
    instances = [get_instance(n) for n in ("ring04", "mutexbug", "arb03")]
    ExperimentRunner(config).run_suite(
        instances, jobs=2,
        progress=lambda name, elapsed, record: seen.append(name))
    assert seen == ["ring04", "mutexbug", "arb03"]
