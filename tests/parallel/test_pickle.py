"""Pickle round-trips for everything that crosses a process boundary.

The parallel subsystem ships models and configs *to* workers and results
and records *back*; all of them must survive pickling unchanged.  Solvers
and engines deliberately never cross (workers rebuild them locally), and
suite instances cannot (their factories are lambdas) — which is exactly
why harness cells travel as instance *names*.
"""

import pickle

import pytest

from repro.bmc import BmcCheckKind
from repro.bmc.cex import Trace
from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine
from repro.core.result import EngineStats, Verdict, VerificationResult
from repro.harness import EngineRecord, HarnessConfig, InstanceRecord


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def test_engine_stats_roundtrip():
    stats = EngineStats(sat_calls=7, sat_time=0.25, itp_nodes=42,
                        clauses_added=1234, max_call_conflicts=9)
    assert _roundtrip(stats) == stats


def test_trace_roundtrip_and_replay():
    model = get_instance("mutexbug").build()
    result = run_engine("itpseq", model, EngineOptions(max_bound=10))
    assert result.verdict is Verdict.FAIL and result.trace is not None
    trace = _roundtrip(result.trace)
    assert trace == result.trace
    # Not just structurally equal: the unpickled trace still replays.
    assert trace.check(model)


def test_verification_result_roundtrip_pass_and_fail():
    for name, engine in (("ring04", "pdr"), ("mutexbug", "itp")):
        result = run_engine(engine, get_instance(name).build(),
                            EngineOptions(max_bound=10))
        clone = _roundtrip(result)
        assert clone == result
        assert clone.verdict is result.verdict
        assert clone.stats == result.stats


def test_engine_options_roundtrip():
    options = EngineOptions(max_bound=12, time_limit=3.5, max_clauses=1000,
                            bmc_check=BmcCheckKind.EXACT, alpha_s=0.25)
    assert _roundtrip(options) == options


def test_model_roundtrip_verifies_identically():
    model = get_instance("ring04").build()
    clone = _roundtrip(model)
    assert clone.name == model.name
    assert clone.num_latches == model.num_latches
    original = run_engine("pdr", model, EngineOptions(max_bound=10))
    mirrored = run_engine("pdr", clone, EngineOptions(max_bound=10))
    assert (original.verdict, original.k_fp, original.j_fp,
            original.stats.clauses_added) == \
           (mirrored.verdict, mirrored.k_fp, mirrored.j_fp,
            mirrored.stats.clauses_added)


def test_harness_config_and_records_roundtrip():
    config = HarnessConfig(engines=("itp", "pdr"), jobs=4,
                           options=EngineOptions(max_clauses=5000))
    assert _roundtrip(config) == config
    result = run_engine("pdr", get_instance("ring04").build(),
                        EngineOptions(max_bound=10))
    engine_record = EngineRecord.from_result(result)
    assert _roundtrip(engine_record) == engine_record
    record = InstanceRecord(name="ring04", category="academic",
                            expected="pass", num_inputs=1, num_latches=4,
                            engines={"pdr": engine_record})
    assert _roundtrip(record) == record


def test_suite_instances_do_not_pickle():
    """The design constraint behind name-based cell shipping, pinned down.

    Suite factories are lambdas; if this ever starts passing, the
    name-based indirection in the harness pool could be simplified away.
    """
    with pytest.raises(Exception):
        pickle.dumps(get_instance("ring04"))
