"""Generated and mutated circuits against the preprocessing-kernel references.

The longer variant of ``tests/preprocess/test_kernel_oracles.py``: 200
generator seeds, plus every ``repro.fuzz.mutate`` mutator on every tenth
seed, each checked by that module's references (COI, the fraig loop that
SAT-checks every pair, the pipeline's models, maps and counters, the
three simulation kernels and trace replay).  The generated circuits'
default signatures leave no false candidate pair, so each circuit is also
swept under the module's narrow signatures, where most pairs are refuted:
some of them must be answered by resimulating a counterexample.  No miter
may exceed its conflict budget: an abandoned pair is the one case where
the kernel's merges could differ from the reference's.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.fuzz.generate import generate
from repro.fuzz.mutate import MUTATORS, apply_mutator

_ORACLE = (Path(__file__).resolve().parents[1] / "preprocess"
           / "test_kernel_oracles.py")


def _oracle():
    spec = importlib.util.spec_from_file_location("_kernel_oracle", _ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


SEEDS = 200
CHUNK = 20


def _builds(first):
    for seed in range(first, first + CHUNK):
        yield seed, lambda seed=seed: generate(seed)[0]
        if seed % 10 == 0:
            for name in MUTATORS:
                yield seed, (lambda seed=seed, name=name:
                             apply_mutator(name, generate(seed)[0], seed).model)


@pytest.mark.parametrize("first", range(0, SEEDS, CHUNK))
def test_generated_circuits_match_the_references(first, monkeypatch):
    oracle = _oracle()
    resimulated = 0
    for seed, build in _builds(first):
        found = oracle.check_preprocessing(build, monkeypatch)
        assert found.abandoned == 0, seed
        resimulated += oracle.check_narrow_fraig(build).resim_answered
        model = build()
        oracle.check_simulation(model.aig, seed)
        oracle.check_traces(model, seed, max_depth=9)
    assert resimulated > 0
