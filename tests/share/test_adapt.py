"""Import-side lemma validation: honest lemmas pass, malicious ones fail."""

from repro.circuits import get_instance
from repro.share.adapt import ImportValidator
from repro.share.lemma import DepthLemma


def _validator(model):
    validator = ImportValidator(model)
    validator.prepare()
    return validator


def test_depth_lemma_honest_accepted_malicious_rejected():
    # red_dead08bug is a free-running counter that reaches its target at
    # depth 5 under *any* stimulus, so simulation refutes bad depth claims
    # deterministically.
    model = get_instance("red_dead08bug").build()
    validator = _validator(model)
    assert validator.reject_reason(DepthLemma(depth=4)) is None
    reason = validator.reject_reason(DepthLemma(depth=10))
    assert reason is not None and "bad state" in reason
    assert validator.reject_reason(DepthLemma(depth=-1)) is not None


def test_depth_claims_are_refuted_exactly_from_the_failure_depth_up_to_the_horizon():
    # red_dead08bug fails at depth 5 under any stimulus: every claim below
    # 5 is honest, every claim from 5 on is refuted — as long as the
    # simulation reaches depth 5.  A shorter horizon cannot see the bad
    # state, so it lets every claim through.
    model = get_instance("red_dead08bug").build()
    validator = _validator(model)
    for depth in range(12):
        refuted = validator.reject_reason(DepthLemma(depth=depth)) is not None
        assert refuted == (depth >= 5), depth
    short = ImportValidator(model, steps=4)
    assert all(short.reject_reason(DepthLemma(depth=depth)) is None
               for depth in range(12))


def test_validation_is_deterministic():
    model = get_instance("red_dead08bug").build()
    first = _validator(model).reject_reason(DepthLemma(depth=10))
    second = _validator(model).reject_reason(DepthLemma(depth=10))
    assert first == second
