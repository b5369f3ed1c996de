"""Proof trimming must never change an answer — only its cost.

Trimming is the one lifecycle stage with an off switch
(``EngineOptions.proof_reduce``).  It changes the refutation the
interpolants come from, so with it on (the default) vs. off every
interpolation engine must still produce bit-identical verdicts *and*
fixpoint depth pairs (k_fp, j_fp) across the quick + redundant suites;
this identity is asserted empirically, cell by cell.  Compaction and the
persistent fixpoint checker are always on; the checker's answers are
checked against the one-shot oracle in ``test_containment_oracle.py``.
"""

import pytest

from repro.circuits import get_instance, quick_suite, redundant_suite
from repro.core import EngineOptions, run_engine

_ITP_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")
_INSTANCES = quick_suite() + redundant_suite()

_ON = dict(proof_reduce=True)
_OFF = dict(proof_reduce=False)


def _options(toggles) -> EngineOptions:
    return EngineOptions(max_bound=20, time_limit=120.0, **toggles)


@pytest.mark.parametrize("engine_name", _ITP_ENGINES)
def test_lifecycle_on_off_verdict_and_depth_identity(engine_name):
    for instance in _INSTANCES:
        on = run_engine(engine_name, instance.build(), _options(_ON))
        off = run_engine(engine_name, instance.build(), _options(_OFF))
        assert on.verdict.value == instance.expected, (instance.name, on.message)
        assert (on.verdict, on.k_fp, on.j_fp) == \
            (off.verdict, off.k_fp, off.j_fp), instance.name
        if instance.expected == "fail":
            assert on.trace is not None
            assert on.trace.check(instance.build()), instance.name


def test_lifecycle_counters_only_move_when_enabled():
    """Trimming off keeps the ring fixpoint bit-identical and counts
    nothing trimmed; the persistent checker reuses encodings either way."""
    ring = get_instance("ring06")
    on = run_engine("itpseq", ring.build(), _options(_ON))
    off = run_engine("itpseq", ring.build(), _options(_OFF))
    assert (on.verdict, on.k_fp, on.j_fp) == (off.verdict, off.k_fp, off.j_fp)
    assert off.stats.proof_nodes_trimmed == 0
    assert on.stats.fixpoint_encodings_reused > 0
    assert off.stats.fixpoint_encodings_reused > 0
