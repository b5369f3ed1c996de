"""Long seeded query streams against the kept assumption trail.

The longer variant of ``tests/sat/test_assumption_trail.py``: 200 streams
of 300 queries each, every other stream on a proof-logging solver, all
checked by that module's fresh-solver oracles (answers, models, cores,
stripped refutations and trail consistency) and its reference
final-conflict analysis.
"""

import importlib.util
from pathlib import Path

import pytest

_ORACLE = (Path(__file__).resolve().parents[1] / "sat"
           / "test_assumption_trail.py")


def _oracle():
    spec = importlib.util.spec_from_file_location("_trail_oracle", _ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


STREAMS = 200
QUERIES = 300
CHUNK = 20


@pytest.mark.parametrize("first", range(1000, 1000 + STREAMS, CHUNK))
def test_long_query_streams_match_fresh_solvers(first, monkeypatch):
    oracle = _oracle()
    run_stream = oracle.run_stream
    compared = oracle.check_analyze_final(monkeypatch)
    answered = 0
    for seed in range(first, first + CHUNK):
        outcomes = run_stream(seed, QUERIES, proof_logging=seed % 2 == 0)
        answered += outcomes["sat"] + outcomes["unsat"]
    assert answered > 0.9 * CHUNK * QUERIES
    assert compared["cores"] > 0
