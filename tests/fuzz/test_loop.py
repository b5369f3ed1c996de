"""The differential loop itself: agreement, determinism, disagreement path.

The disagreement path is exercised by monkeypatching the loop's engine
runner to lie about one engine's verdict — the loop must then report the
problem, shrink the witness under its internal-conflict predicate, write
a repro bundle, and exit nonzero from the CLI.
"""

import json
import os

from repro.fuzz import FuzzConfig, FuzzParams, render_summary, run_fuzz
from repro.fuzz import loop as loop_mod
from repro.fuzz.__main__ import main
from repro.fuzz.loop import ENGINE_ORDER, RunRecord


def _small_config(**overrides):
    config = dict(seed=0, iterations=2, jobs=1, mutators=("unflatten",),
                  shrink=False, bundle_dir=None)
    config.update(overrides)
    return FuzzConfig(**config)


def test_small_campaign_agrees():
    report = run_fuzz(_small_config())
    assert not report.problems
    # 2 seeds x (base + 1 mutant) x 6 engines x preprocessing on/off.
    assert report.runs == 2 * 2 * len(ENGINE_ORDER) * 2


def test_summary_is_byte_identical_across_job_counts():
    reports = [run_fuzz(_small_config(jobs=jobs)) for jobs in (1, 2)]
    summaries = [render_summary(report) for report in reports]
    assert summaries[0] == summaries[1]
    assert summaries[0].startswith("fuzz: seeds 0..1 ")
    assert "disagreements=0" in summaries[0]


def test_cli_exit_codes(capsys):
    assert main(["--seed", "0", "--iterations", "1", "--jobs", "1",
                 "--mutators", "doubleneg", "--no-shrink"]) == 0
    out = capsys.readouterr().out
    assert "disagreements=0" in out
    assert main(["--list-mutators"]) == 0
    assert "unflatten" in capsys.readouterr().out


def test_cli_usage_errors_exit_3(capsys):
    import pytest
    for argv in (["--iterations", "0"], ["--jobs", "-1"],
                 ["--mutators", "nonesuch"], ["--seed", "-1"],
                 ["--max-bound", "0"], ["--bmc-depth", "-1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 3
    capsys.readouterr()


def _first_fail_seed():
    return next(seed for seed in range(50)
                if FuzzParams.from_seed(seed).expected == "fail")


def test_lying_engine_is_caught_shrunk_and_bundled(monkeypatch, tmp_path):
    seed = _first_fail_seed()
    real_run_one = loop_mod._run_one

    def lying_run_one(engine, model, pre, config):
        if engine == "pdr":
            return RunRecord(engine, pre, "pass", None), None, None
        return real_run_one(engine, model, pre, config)

    monkeypatch.setattr(loop_mod, "_run_one", lying_run_one)
    config = FuzzConfig(seed=seed, iterations=1, jobs=1, mutators=(),
                        shrink=True, shrink_checks=8,
                        bundle_dir=str(tmp_path))
    report = run_fuzz(config)

    assert report.problems
    assert any(p.engine == "pdr" and p.kind == "verdict"
               for p in report.problems)
    seed_report = report.seeds[0]
    assert seed_report.shrunk is not None
    assert seed_report.bundle is not None

    bundle = seed_report.bundle
    assert os.path.isfile(os.path.join(bundle, "base.aig"))
    with open(os.path.join(bundle, "repro.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["seed"] == seed
    assert f"--seed {seed}" in manifest["command"]
    assert manifest["problems"]

    summary = render_summary(report)
    assert "DISAGREE" in summary
    assert "shrunk" in summary


def test_lying_engine_fails_the_cli(monkeypatch, tmp_path, capsys):
    seed = _first_fail_seed()

    def lying_run_one(engine, model, pre, config):
        return RunRecord(engine, pre, "pass", None), None, None

    monkeypatch.setattr(loop_mod, "_run_one", lying_run_one)
    code = main(["--seed", str(seed), "--iterations", "1", "--jobs", "1",
                 "--mutators", "", "--no-shrink",
                 "--bundle-dir", str(tmp_path)])
    assert code == 1
    assert "repro bundle:" in capsys.readouterr().out
