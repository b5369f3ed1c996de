"""Unit tests for engine options, results and shared base utilities."""

import dataclasses

import pytest

from repro.aig import Aig, lit_negate
from repro.bmc import BmcCheckKind
from repro.bmc.engine import BmcEngine
from repro.circuits import counter, token_ring
from repro.core import (
    EngineOptions,
    OutOfBudget,
    Verdict,
    VerificationResult,
    implies,
    initial_states_predicate,
)
from repro.core.result import STAT_GROUPS, EngineStats


def test_options_defaults_follow_paper():
    options = EngineOptions()
    assert options.alpha_s == 0.5
    assert options.bmc_check is BmcCheckKind.ASSUME


def test_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(alpha_s=1.5)
    with pytest.raises(ValueError):
        EngineOptions(max_bound=0)
    with pytest.raises(ValueError):
        EngineOptions(time_limit=-1.0)
    # NaN fails every comparison, so it must be rejected explicitly.
    with pytest.raises(ValueError, match="time_limit"):
        EngineOptions(time_limit=float("nan"))
    with pytest.raises(ValueError, match="time_limit"):
        BmcEngine(token_ring(4)).run(max_depth=3, time_limit=float("nan"))
    # A zero limit is valid: it forces an immediate overflow.
    assert EngineOptions(time_limit=0.0).time_limit == 0.0
    with pytest.raises(ValueError):
        EngineOptions(conflict_limit=-1)
    with pytest.raises(ValueError):
        BmcEngine(token_ring(4)).run(max_depth=3, conflict_limit=-5)
    # Zero is valid: no conflict above decision level 0 is allowed.
    assert EngineOptions(conflict_limit=0).conflict_limit == 0
    # A non-finite count would switch its bound off without a word.
    for name in ("max_bound", "conflict_limit", "max_clauses",
                 "max_propagations"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                EngineOptions(**{name: value})
    with pytest.raises(ValueError, match="conflict_limit"):
        BmcEngine(token_ring(4)).run(max_depth=3, conflict_limit=float("nan"))
    with pytest.raises(ValueError, match="conflict_limit"):
        BmcEngine(token_ring(4)).run(max_depth=3, conflict_limit=float("inf"))


def test_options_with_changes_returns_copy():
    options = EngineOptions(max_bound=10)
    changed = options.with_changes(alpha_s=0.25)
    assert changed.alpha_s == 0.25
    assert changed.max_bound == 10
    assert options.alpha_s == 0.5


def test_result_properties_and_depth_pair():
    result = VerificationResult(verdict=Verdict.PASS, engine="itp", model_name="m",
                                k_fp=3, j_fp=2)
    assert result.is_pass and result.solved and not result.is_fail
    assert result.depth_pair() == "3 2"
    ovf = VerificationResult(verdict=Verdict.OVERFLOW, engine="itp", model_name="m",
                             k_fp=7)
    assert ovf.is_overflow and not ovf.solved
    assert ovf.depth_pair() == "(7) -"
    unknown = VerificationResult(verdict=Verdict.UNKNOWN, engine="itp",
                                 model_name="m")
    assert unknown.depth_pair() == "- -"


def test_engine_stats_as_dict():
    stats = EngineStats(sat_calls=3, sat_time=1.23456, itp_extractions=2)
    data = stats.as_dict()
    assert data["sat_calls"] == 3
    assert data["sat_time"] == 1.2346
    assert data["itp_extractions"] == 2


def test_engine_stats_as_dict_follows_field_order():
    names = [f.name for f in dataclasses.fields(EngineStats)]
    assert list(EngineStats().as_dict()) == names


def test_stat_groups_list_every_counter_exactly_once():
    # A counter missing from every group would vanish from ``--stats``.
    grouped = [name for names in STAT_GROUPS.values() for name in names]
    assert sorted(grouped) == sorted(f.name for f in dataclasses.fields(EngineStats))


def test_initial_states_predicate_describes_init_values():
    from repro.aig import lit_value, simulate_comb

    model = counter(width=3, target=7)
    predicate = initial_states_predicate(model)
    zero_state = {var: 0 for var in model.latch_vars}
    one_state = dict(zero_state)
    one_state[model.latch_vars[0]] = 1
    assert lit_value(simulate_comb(model.aig, {}, zero_state), predicate) == 1
    assert lit_value(simulate_comb(model.aig, {}, one_state), predicate) == 0


def test_initial_states_predicate_ignores_free_latches():
    aig = Aig()
    free = aig.add_latch(init=None)
    fixed = aig.add_latch(init=1)
    aig.set_latch_next(free, free)
    aig.set_latch_next(fixed, fixed)
    aig.add_bad(free)
    from repro.aig import Model
    predicate = initial_states_predicate(Model(aig))
    # Predicate must equal "fixed == 1", independent of the free latch.
    assert predicate == fixed


def test_implies_check():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    conj = aig.add_and(a, b)
    assert implies(aig, conj, a)
    assert implies(aig, conj, b)
    assert not implies(aig, a, conj)
    assert implies(aig, a, a)
    assert implies(aig, 0, a)            # FALSE implies anything
    assert implies(aig, conj, 1)         # anything implies TRUE


def test_engine_overflow_verdict_carries_last_bound():
    from repro.core import ItpSeqEngine
    from repro.circuits import modular_counter

    options = EngineOptions(max_bound=30, time_limit=0.0)
    result = ItpSeqEngine(modular_counter(4, 12, 13), options).run()
    assert result.verdict is Verdict.OVERFLOW
    assert "ovf" in result.verdict.value
    assert not result.solved


def test_engines_report_model_name():
    from repro.core import run_engine

    result = run_engine("itpseq", token_ring(4), EngineOptions(max_bound=10))
    assert result.model_name.startswith("ring4")
    assert "itpseq" in str(result)
