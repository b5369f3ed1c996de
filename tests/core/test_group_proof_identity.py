"""Group-aware proof logging must never change an answer — only its cost.

Acceptance property of the one-solve-per-bound overhaul
(``EngineOptions.group_proof``): with the incremental search's stripped
refutation feeding interpolation (the default) vs. the historical fresh
proof-logged re-solve per bound, every engine reports the same verdict on
the quick + redundant suites, FAIL cells land on the same depth with a
replayable trace, and the refutation-solve counter accounts exactly for
the SAT calls that disappeared.

Fixpoint depth pairs are bit-identical *except* on the pinned cells.
The stripped refutation is a different proof of the same
unsatisfiability — for itpseq a strictly stronger one: its interpolant
implies the fresh solve's at every cut, never conversely, and stronger
sequence columns shrink the accumulated reached set, so containment
there closes one bound later.  The serial and image steps solve on the
searcher with the toggle on and on a fresh check each with it off, so
their interpolants differ as well.  Those cells are pinned exactly
rather than exempted, so any *drift* in either configuration still
fails loudly.  On two ITP FAIL cells the depths agree but the image
steps do not, so their SAT-call counts are pinned the same way.

CBA's abstract searcher serves its bounds the same way: on ring04 every
refuted bound is a saved solve, and a strip forced to fail on that
searcher falls back to the fresh abstract check on every bound with the
``group_proof=False`` answer.

The strip itself is verified semantically at the bottom: the refutation
the engines consume passes the independent proof checker, and the
interpolants extracted from it satisfy the Craig / sequence-chain
conditions by fresh SAT calls (repro.itp.verify).
"""

import pytest

from repro.bmc.checks import BmcCheckKind
from repro.bmc.incremental import IncrementalUnroller, grouped_refutation
from repro.circuits import get_instance, quick_suite, redundant_suite
from repro.core import ENGINES, EngineOptions, VerificationResult, run_engine
from repro.core import base
from repro.core.base import UmcEngine
from repro.core.cba_engine import ItpSeqCbaEngine
from repro.itp.craig import InterpolantBuilder
from repro.itp.sequence import extract_sequence
from repro.itp.verify import check_craig_conditions, check_sequence_conditions
from repro.sat import check_proof
from repro.sat.proof import ActivationDependencyError
from repro.sat.types import SatResult

_INSTANCES = quick_suite() + redundant_suite()

#: The cells whose convergence depths differ across the toggle, pinned
#: exactly: (instance, engine) -> ((on k_fp, j_fp), (off k_fp, j_fp)).
#: Different proofs of the same unsatisfiability give different
#: interpolants: the searcher's stripped refutations (strictly stronger
#: for itpseq: smaller reached sets, later containment), and the serial
#: and image steps, which the off path solves on a fresh check each.
#: ``benchmarks/test_bench_proof_group.py`` reads this table too.
PINNED = {
    ("traffic1", "itpseq"): ((11, 9), (11, 10)),
    ("traffic1", "sitpseq"): ((3, 3), (4, 4)),
    ("mutex", "itp"): ((1, 3), (1, 4)),
    ("mutex", "sitpseq"): ((5, 5), (6, 6)),
    ("modcnt06", "sitpseq"): ((6, 5), (7, 6)),
    ("modcnt06", "itpseqcba"): ((6, 5), (7, 6)),
    ("red_dead08", "itpseq"): ((8, 8), (7, 7)),
    ("red_dead08", "sitpseq"): ((8, 8), (7, 7)),
    ("red_dead08", "itpseqcba"): ((8, 8), (7, 7)),
    ("red_stuck04", "itpseq"): ((8, 8), (7, 7)),
    ("red_stuck04", "sitpseq"): ((8, 8), (7, 7)),
    ("red_stuck04", "itpseqcba"): ((8, 8), (7, 7)),
    ("red_dup06", "itp"): ((1, 3), (1, 6)),
    ("red_dup06", "sitpseq"): ((3, 3), (11, 7)),
    ("red_dup06", "itpseqcba"): ((3, 3), (11, 7)),
    ("red_dup10", "itp"): ((1, 3), (1, 10)),
    ("red_dup10", "itpseq"): ((18, 12), (17, 11)),
    ("red_dup10", "sitpseq"): ((3, 3), (17, 11)),
    ("red_dup10", "itpseqcba"): ((3, 3), (17, 11)),
}

#: The cells that walk the same bounds on and off but not the same image
#: steps, pinned exactly: (instance, engine) -> (on sat_calls, off
#: sat_calls).  ITP refines each bound below the failure depth until its
#: interpolants reach a fixpoint or turn spurious, and those interpolants
#: differ across the toggle.
_PINNED_CALLS = {
    ("cnt08", "itp"): (41, 50),
    ("red_dup10bug", "itp"): (47, 54),
}


def _options(group_proof: bool) -> EngineOptions:
    return EngineOptions(max_bound=20, time_limit=120.0,
                         group_proof=group_proof)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_group_proof_on_off_identity(engine_name):
    for instance in _INSTANCES:
        on = run_engine(engine_name, instance.build(), _options(True))
        off = run_engine(engine_name, instance.build(), _options(False))
        assert on.verdict.value == instance.expected, (instance.name,
                                                       on.message)
        assert on.verdict == off.verdict, instance.name
        pinned = PINNED.get((instance.name, engine_name))
        if pinned is not None:
            assert ((on.k_fp, on.j_fp), (off.k_fp, off.j_fp)) == pinned, \
                instance.name
        else:
            assert (on.k_fp, on.j_fp) == (off.k_fp, off.j_fp), instance.name
        if instance.expected == "fail":
            assert on.k_fp == off.k_fp == instance.expected_depth
            assert on.trace is not None
            assert on.trace.check(instance.build()), instance.name
        # The counter accounts exactly for the solves that disappeared
        # (only meaningful where both runs walked the same bounds).
        assert off.stats.proof_group_solves_saved == 0
        assert on.stats.proof_group_fallbacks == 0
        pinned_calls = _PINNED_CALLS.get((instance.name, engine_name))
        if pinned_calls is not None:
            assert (on.stats.sat_calls, off.stats.sat_calls) == \
                pinned_calls, instance.name
        elif on.stats.proof_group_solves_saved and pinned is None:
            assert off.stats.sat_calls - on.stats.sat_calls == \
                on.stats.proof_group_solves_saved, instance.name


def test_group_proof_counters_gate_on_toggle():
    ring = get_instance("ring04")
    on = run_engine("itpseq", ring.build(), _options(True))
    off = run_engine("itpseq", ring.build(), _options(False))
    assert on.stats.proof_group_solves_saved > 0
    assert on.stats.sat_calls < off.stats.sat_calls
    assert on.stats.clauses_added < off.stats.clauses_added
    assert off.stats.proof_group_solves_saved == 0
    assert off.stats.proof_chains_stripped == 0
    assert off.stats.proof_group_fallbacks == 0


def _count_refuted_bounds(monkeypatch):
    """Count the bounds CBA's refinement loop refutes (one entry each)."""
    refuted = []
    loop = ItpSeqCbaEngine._refinement_loop

    def refinement_loop(self, abstraction, k):
        outcome = loop(self, abstraction, k)
        if not isinstance(outcome, VerificationResult):
            refuted.append(k)
        return outcome

    monkeypatch.setattr(ItpSeqCbaEngine, "_refinement_loop", refinement_loop)
    return refuted


def test_cba_engine_refutes_on_its_abstract_searcher(monkeypatch):
    # Every bound's refutation comes from the abstract searcher's own
    # trace: no fresh abstract check is built.
    refuted = _count_refuted_bounds(monkeypatch)
    result = run_engine("itpseqcba", get_instance("ring04").build(),
                        _options(True))
    assert result.verdict.value == "pass"
    assert refuted
    assert result.stats.proof_group_solves_saved == len(refuted)
    assert result.stats.proof_group_fallbacks == 0


def test_cba_forced_strip_failure_falls_back_on_every_bound(monkeypatch):
    # A strip the abstract searcher's trace cannot pass leaves CBA on its
    # fresh proof-logged check, which answers exactly like --no-group-proof.
    instance = get_instance("ring04")
    off = run_engine("itpseqcba", instance.build(), _options(False))
    refuted = _count_refuted_bounds(monkeypatch)
    strip = UmcEngine._strip_refutation

    def rejecting(solver, active):
        raise ActivationDependencyError("forced for the test")

    def strip_refutation(self, solver, assumptions, bound, **fields):
        if not fields:
            # A bound's refutation (serial steps carry their step number).
            with monkeypatch.context() as patch:
                patch.setattr(base, "grouped_refutation", rejecting)
                return strip(self, solver, assumptions, bound, **fields)
        return strip(self, solver, assumptions, bound, **fields)

    monkeypatch.setattr(UmcEngine, "_strip_refutation", strip_refutation)
    forced = run_engine("itpseqcba", instance.build(), _options(True))
    assert refuted
    assert forced.stats.proof_group_fallbacks == len(refuted)
    assert forced.stats.proof_group_solves_saved == 0
    assert (forced.verdict, forced.k_fp, forced.j_fp) == \
        (off.verdict, off.k_fp, off.j_fp)


# --------------------------------------------------------------------- #
# Semantic verification of the refutation the engines consume
# --------------------------------------------------------------------- #
def test_stripped_refutation_satisfies_sequence_conditions():
    # Drive the searcher exactly as the sequence engines do (assume-k),
    # then check Definition 2's chain condition on interpolants extracted
    # from the stripped refutation — by fresh SAT calls, not construction.
    model = get_instance("ring04").build()
    searcher = IncrementalUnroller(model, check_kind=BmcCheckKind.ASSUME,
                                   proof_logging=True)
    k = searcher.extend_to(3)
    assert searcher.solve() is SatResult.UNSAT
    stripped, stats = grouped_refutation(searcher.solver,
                                         searcher.assumptions())
    check_proof(stripped)
    assert stats.nodes_after <= stats.nodes_before

    aig = model.aig
    cut_maps = {j: searcher.unroller.cut_var_map(j) for j in range(1, k + 1)}
    sequence = extract_sequence(stripped, k + 1, cut_maps, aig)
    assert check_sequence_conditions(stripped, list(sequence.elements),
                                     cut_maps, aig)


def test_stripped_refutation_satisfies_craig_conditions():
    # Same for the itp engine's bound-k formulation at cut 1.
    model = get_instance("ring04").build()
    searcher = IncrementalUnroller(model, check_kind=BmcCheckKind.BOUND,
                                   proof_logging=True)
    searcher.extend_to(3)
    assert searcher.solve() is SatResult.UNSAT
    stripped, _ = grouped_refutation(searcher.solver, searcher.assumptions())
    check_proof(stripped)

    aig = model.aig
    cut_map = searcher.unroller.cut_var_map(1)
    itp = InterpolantBuilder(aig, cut_map).extract(stripped,
                                                  a_partitions=[1])
    a_implies, b_inconsistent = check_craig_conditions(
        stripped, [1], itp, aig, cut_map)
    assert a_implies and b_inconsistent
