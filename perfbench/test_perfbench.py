"""Tests of the benchmark itself: wrapper installation, layer coverage, oracle.

Run from the root of the repository::

    python -m pytest perfbench -q

The layer-coverage test runs one untraced and one traced pass of every
workload (under two minutes).
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import speed
import workloads as wl

wl.prepare_imports()

#: Layers each workload exists to exercise: their self time must be > 0.
EXERCISED = {
    "itp_deep": ("sat.solve_s", "sat.proof_solve_s", "cnf.encode_s",
                 "proof.trim_s", "proof.strip_s", "itp.extract_s",
                 "itp.compact_s", "core.fixpoint_s", "bmc.build_check_s",
                 "preprocess.passes_s", "aig.simulate_s",
                 "core.engine_self_s"),
    "pdr_deep": ("sat.solve_s", "cnf.encode_s", "pdr.generalize_s",
                 "bmc.extend_s", "bmc.trace_check_s", "preprocess.passes_s",
                 "aig.simulate_s", "core.engine_self_s"),
    "fuzz_small": ("sat.solve_s", "sat.proof_solve_s", "cnf.encode_s",
                   "proof.trim_s", "proof.strip_s", "itp.extract_s",
                   "core.fixpoint_s", "bmc.extend_s", "bmc.build_check_s",
                   "bmc.trace_check_s", "pdr.generalize_s",
                   "preprocess.passes_s", "preprocess.fraig_s",
                   "aig.simulate_s", "abstraction.refine_s",
                   "core.engine_self_s"),
}

#: Layers a workload bypasses by design: their self time must be exactly 0.
BYPASSED = {
    "itp_deep": ("pdr.generalize_s",),
    "pdr_deep": ("itp.extract_s", "proof.trim_s", "proof.strip_s",
                 "core.fixpoint_s", "sat.proof_solve_s"),
    "fuzz_small": (),
}


def _traced_pass(workload):
    cells = wl.workload_cells(workload)
    models = wl.build_models(cells)
    options = wl.engine_options()
    rng = random.Random(0)
    plain = wl.run_pass(cells, models, options, rng)
    tracer = layers.LayerTracer()
    with tracer:
        traced = wl.run_pass(cells, models, options, rng, tracer=tracer)
    metrics = tracer.pass_metrics([(c.engine, st) for c, st in traced.stats.items()
                                   if st is not None])
    return plain, traced, metrics


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_each_layer_is_timed_on_the_workload_that_exercises_it(workload):
    plain, traced, metrics = _traced_pass(workload)
    assert all(o.problem is None for o in plain.outcomes.values())
    assert wl.fingerprint(traced.outcomes) == wl.fingerprint(plain.outcomes)
    for name in EXERCISED[workload]:
        assert metrics[name] > 0, f"{name} is 0 on {workload}"
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, f"{name} is {metrics[name]} on {workload}"
    assert set(metrics) | {"trace.overhead_frac"} == {n for n, _ in layers.METRICS}


def test_install_wraps_every_binding_and_uninstall_restores_it():
    from repro.core import itpseq_engine
    from repro.itp import sequence

    original = sequence.extract_sequence
    tracer = layers.LayerTracer()
    with tracer:
        assert sequence.extract_sequence is not original
        assert itpseq_engine.extract_sequence is sequence.extract_sequence
    assert sequence.extract_sequence is original
    assert itpseq_engine.extract_sequence is original


def test_install_fails_when_an_entry_point_is_missing():
    missing = (("itp.extract", "repro.itp.sequence", "extract_all", ()),)
    with pytest.raises(layers.LayerError, match="extract_all"):
        layers.LayerTracer(missing).install()
    renamed = (("itp.extract", "repro.itp.craig", "InterpolantBuilder.extract_all", ()),)
    with pytest.raises(layers.LayerError, match="extract_all"):
        layers.LayerTracer(renamed).install()


def test_install_fails_when_an_importer_rebinds_the_name(monkeypatch):
    from repro.core import itpseq_engine
    from repro.itp import sequence

    monkeypatch.setattr(itpseq_engine, "extract_sequence", lambda *a, **k: None)
    with pytest.raises(layers.LayerError, match="repro.core.itpseq_engine"):
        layers.LayerTracer().install()
    # Nothing was patched before the check failed.
    assert not hasattr(sequence.extract_sequence, "__wrapped__")


def test_oracle_rejects_a_wrong_depth():
    cell = wl.Cell("bmc", "cnt08")
    model, row = wl.build_models([cell])["cnt08"]
    outcome, _ = wl.run_cell(cell, model, row, wl.engine_options())
    assert outcome.problem is None and outcome.k_fp == 8
    row.expected_depth = 7
    outcome, _ = wl.run_cell(cell, model, row, wl.engine_options())
    assert "depth" in outcome.problem


def test_sampled_pass_reports_its_speed_factor():
    cells = [wl.Cell("bmc", "cnt08"), wl.Cell("pdr", "arb05")]
    models = wl.build_models(cells)
    options = wl.engine_options()
    with speed.SpeedSampler(0.005) as sampler:
        record = wl.run_pass(cells, models, options, random.Random(0),
                             sampler=sampler)
    assert sampler.samples and record.speed > 0
    assert all(o.problem is None for o in record.outcomes.values())
    assert record.reference_seconds == speed.at_reference(record.seconds,
                                                          record.speed)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    without printing a result."""
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pdr_deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
