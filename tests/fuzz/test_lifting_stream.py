"""Every PDR lift over the quick suite and a fuzz stream, checked twice.

The longer variant of ``tests/pdr/test_lifting.py``: each cube that
ternary-simulation lifting returns must be proved sound by a fresh SAT
solver (every state of it violates the property, or reaches the successor
cube under the same inputs) and must equal the scalar sequential greedy
lift of that module.  indA2_ring16 is here for its one lift whose
combined check fails, the only one in the full suite, quick suite and fuzz
seeds 0-59 that reaches the greedy pass.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.circuits import fuzz_instance, get_instance, quick_suite
from repro.core import EngineOptions

_ORACLE = Path(__file__).resolve().parents[1] / "pdr" / "test_lifting.py"

FUZZ_SEEDS = range(60)
CHUNK = 15


def _oracle():
    spec = importlib.util.spec_from_file_location("_lifting_oracle", _ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def _check(instances, monkeypatch):
    run_with_lift_oracle = _oracle().run_with_lift_oracle
    options = EngineOptions(max_bound=40, time_limit=120.0)
    totals = {"bad": 0, "pred": 0, "dropped": 0}
    for instance in instances:
        result, lifts = run_with_lift_oracle(instance.build(), monkeypatch,
                                             options)
        assert result.verdict.value == instance.expected, instance.name
        for key in totals:
            totals[key] += lifts[key]
    return totals


def test_quick_suite_lifts_are_sound_and_greedy(monkeypatch):
    totals = _check(quick_suite(), monkeypatch)
    assert totals["bad"] > 0 and totals["pred"] > 0 and totals["dropped"] > 0


@pytest.mark.parametrize("first", range(FUZZ_SEEDS.start, FUZZ_SEEDS.stop,
                                        CHUNK))
def test_fuzz_stream_lifts_are_sound_and_greedy(first, monkeypatch):
    totals = _check([fuzz_instance(seed) for seed in range(first,
                                                           first + CHUNK)],
                    monkeypatch)
    assert totals["bad"] > 0


def test_ring16_greedy_fallback_is_sound_and_greedy(monkeypatch):
    totals = _check([get_instance("indA2_ring16")], monkeypatch)
    assert totals["dropped"] > 0
