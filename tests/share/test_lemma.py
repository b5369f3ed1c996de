"""Lemma model fingerprints."""

from repro.circuits import get_instance, token_ring
from repro.share.lemma import model_fingerprint


def _ring():
    return token_ring(4)


def test_model_fingerprint_distinguishes_models_and_is_stable():
    ring_a, ring_b = _ring(), _ring()
    assert model_fingerprint(ring_a) == model_fingerprint(ring_b)
    other = get_instance("arb03").build()
    assert model_fingerprint(other) != model_fingerprint(ring_a)
