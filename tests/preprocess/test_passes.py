"""Unit and property tests for the individual preprocessing passes."""

import random

import pytest

from repro.aig import Model, lit_value
from repro.aig.simulate import SequentialSimulator
from repro.circuits import (
    dead_cone_counter,
    duplicated_pattern,
    full_suite,
    stuck_gate_counter,
    token_ring,
)
from repro.preprocess import (
    DEFAULT_PASSES,
    CnfEliminationPass,
    CoiPass,
    ModelMap,
    Pipeline,
    RewritePass,
    SweepPass,
    build_pipeline,
    ternary_latch_fixpoint,
)
from repro.share import model_fingerprint


def assert_property_equivalent(original: Model, reduced: Model, model_map,
                               frames: int = 10, seeds=(0, 1, 2)) -> None:
    """Random-simulation check: the bad literal agrees cycle by cycle.

    Original inputs are driven randomly; the reduced model receives the
    values of the inputs it kept (through the model map).  Equality of the
    bad-literal waveform is the semantic contract of every pass.
    """
    input_map = model_map.input_map
    for seed in seeds:
        rng = random.Random(seed)
        sim_orig = SequentialSimulator(original.aig)
        sim_red = SequentialSimulator(reduced.aig)
        for _ in range(frames):
            stimulus = {var: rng.getrandbits(1) for var in original.input_vars}
            reduced_stimulus = {input_map[var]: value
                                for var, value in stimulus.items()
                                if var in input_map}
            values_orig = sim_orig.step(stimulus)
            values_red = sim_red.step(reduced_stimulus)
            assert (lit_value(values_orig, original.bad_literal)
                    == lit_value(values_red, reduced.bad_literal))


def test_coi_pass_drops_dead_cone():
    model = dead_cone_counter(4, 8)
    result = CoiPass().apply(model)
    assert result.model.num_latches == 4
    assert result.model.num_inputs == 1
    assert result.stats.latches_removed == 8
    assert_property_equivalent(model, result.model, result.model_map)


def test_ternary_fixpoint_finds_stuck_latches():
    model = stuck_gate_counter(4, 4)
    fixpoint = ternary_latch_fixpoint(model)
    stuck = {model.aig.latch(var).name for var, value in fixpoint.items()
             if value is not None}
    assert stuck == {"stuck0", "stuck1", "stuck2", "stuck3"}
    assert all(value is False for value in fixpoint.values()
               if value is not None)


def test_sweep_pass_removes_stuck_latches_and_keeps_semantics():
    model = stuck_gate_counter(4, 4)
    result = SweepPass().apply(model)
    assert result.stats.latches_removed == 4
    assert_property_equivalent(model, result.model, result.model_map)


def test_sweep_pass_is_identity_without_stuck_latches():
    model = token_ring(4)
    result = SweepPass().apply(model)
    assert result.model is model
    assert result.stats.latches_removed == 0


def test_rewrite_pass_merges_duplicated_matchers():
    model = duplicated_pattern(6, 3)
    result = RewritePass().apply(model)
    # Three structurally distinct matchers collapse to one sorted chain.
    assert result.model.aig.num_ands <= model.aig.num_ands - 8
    assert_property_equivalent(model, result.model, result.model_map)


def test_rewrite_pass_never_grows_the_model():
    for instance in full_suite():
        model = instance.build()
        result = RewritePass().apply(model)
        assert result.model.aig.num_ands <= model.aig.num_ands, instance.name


def test_cnf_pass_is_model_identity():
    for instance in full_suite():
        model = instance.build()
        result = CnfEliminationPass().apply(model)
        assert result.model is model, instance.name
        assert result.model_map == ModelMap.identity(model), instance.name
        assert result.stats.extra == {}, instance.name
        # Dropping the trailing ``cnf`` pass reduces to the same model.
        with_cnf = build_pipeline().run(model).model
        without_cnf = build_pipeline(DEFAULT_PASSES[:-1]).run(model).model
        assert model_fingerprint(with_cnf) == model_fingerprint(without_cnf), \
            instance.name


def test_default_pipeline_semantics_preserved_across_suite():
    for instance in full_suite():
        model = instance.build()
        result = build_pipeline().run(model)
        assert_property_equivalent(model, result.model, result.model_map,
                                   frames=8, seeds=(3, 4))


def test_pipeline_composes_stats():
    result = build_pipeline().run(stuck_gate_counter(4, 4))
    assert [s.name for s in result.passes] == ["coi", "sweep", "coi",
                                               "rewrite", "fraig", "cnf"]
    assert result.latches_removed == 8          # 4 stuck + 4 churn
    assert result.inputs_removed == 8


def test_pipeline_returns_private_model_even_when_noop():
    model = token_ring(4)
    result = Pipeline([SweepPass()]).run(model)   # sweep no-ops on ring04
    assert result.model is not model
    assert result.model.aig is not model.aig


def test_build_pipeline_rejects_unknown_names():
    with pytest.raises(ValueError):
        build_pipeline(["coi", "nonsense"])


def test_options_validate_pass_names():
    from repro.core import EngineOptions
    with pytest.raises(ValueError):
        EngineOptions(preprocess_passes=("coi", "nope"))
    options = EngineOptions(preprocess_passes=["coi", "rewrite"])
    assert options.preprocess_passes == ("coi", "rewrite")
