"""Group-aware proof logging: one oracle for the solo path.

A solo run refutes every bound on its one incremental unrolling: the
counterexample searcher logs its proof, and its UNSAT answer, stripped
of activation literals, is the bound's labelled refutation.  On the
quick and redundant suites every interpolating engine must report the
suite's verdict, land a FAIL on the planted depth with a replayable
trace, never fall back to a fresh check, and save exactly one solve per
refuted bound: ``k_fp`` of them on PASS, ``k_fp - 1`` on FAIL.  PDR keeps
the verdict check.

The fresh checks serve a rejected strip (and share-attached runs,
covered in ``tests/share``).  A strip forced to fail on every bound
falls back on every bound, for ITP, ITPSEQ and CBA's abstract searcher,
and still answers with the suite's verdict.

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


def _options() -> EngineOptions:
    return EngineOptions(max_bound=20, time_limit=120.0)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_group_proof_oracle(engine_name):
    for instance in _INSTANCES:
        result = run_engine(engine_name, instance.build(), _options())
        assert result.verdict.value == instance.expected, (instance.name,
                                                           result.message)
        if instance.expected == "fail":
            assert result.k_fp == instance.expected_depth, instance.name
            assert result.trace is not None
            assert result.trace.check(instance.build()), instance.name
        if engine_name == "pdr":
            continue
        # One saved solve per refuted bound: all bounds up to k_fp on PASS,
        # those below the failure depth on FAIL.
        refuted = result.k_fp - (instance.expected == "fail")
        assert result.stats.proof_group_fallbacks == 0, instance.name
        assert result.stats.proof_group_solves_saved == refuted, \
            instance.name


def _count_refuted_bounds(monkeypatch, engine_cls, method):
    """Count the bounds ``engine_cls.method`` refutes (one entry each)."""
    refuted = []
    wrapped = getattr(engine_cls, method)

    def counting(self, *args):
        outcome = wrapped(self, *args)
        if not isinstance(outcome, VerificationResult):
            refuted.append(args[-1])
        return outcome

    monkeypatch.setattr(engine_cls, method, counting)
    return refuted


def _reject_bound_strips(monkeypatch):
    """Make every bound's strip fail; steps (which carry their step
    number in ``fields``) still strip."""
    strip = UmcEngine._strip_refutation

    def rejecting(solver, active):
        raise ActivationDependencyError("forced for the test")

    def strip_refutation(self, solver, assumptions, bound, **fields):
        if not fields:
            with monkeypatch.context() as patch:
                patch.setattr(base, "grouped_refutation", rejecting)
                return strip(self, solver, assumptions, bound, **fields)
        return strip(self, solver, assumptions, bound, **fields)

    monkeypatch.setattr(UmcEngine, "_strip_refutation", strip_refutation)


def test_cba_engine_refutes_on_its_abstract_searcher(monkeypatch):
    # Every bound's refutation comes from the abstract searcher's own
    # trace: no fresh abstract check is built.
    refuted = _count_refuted_bounds(monkeypatch, ItpSeqCbaEngine,
                                    "_refinement_loop")
    result = run_engine("itpseqcba", get_instance("ring04").build(),
                        _options())
    assert result.verdict.value == "pass"
    assert refuted
    assert result.stats.proof_group_solves_saved == len(refuted)
    assert result.stats.proof_group_fallbacks == 0


def test_cba_forced_strip_failure_falls_back_on_every_bound(monkeypatch):
    # A strip the abstract searcher's trace cannot pass leaves CBA on its
    # fresh proof-logged check, which converges where the default run does.
    instance = get_instance("ring04")
    default = run_engine("itpseqcba", instance.build(), _options())
    refuted = _count_refuted_bounds(monkeypatch, ItpSeqCbaEngine,
                                    "_refinement_loop")
    _reject_bound_strips(monkeypatch)
    forced = run_engine("itpseqcba", instance.build(), _options())
    assert refuted
    assert forced.stats.proof_group_fallbacks == len(refuted)
    assert forced.stats.proof_group_solves_saved == 0
    assert (forced.verdict, forced.k_fp, forced.j_fp) == \
        (default.verdict, default.k_fp, default.j_fp)


@pytest.mark.parametrize("engine_name", ["itpseq", "itp"])
def test_forced_strip_failure_refutes_every_bound_fresh(monkeypatch,
                                                        engine_name):
    # _bound_refutation's fresh branch: a rejected strip builds the bound's
    # monolithic proof-logged check and answers from it.
    instance = get_instance("ring04")
    refuted = _count_refuted_bounds(monkeypatch, UmcEngine,
                                    "_bound_refutation")
    _reject_bound_strips(monkeypatch)
    forced = run_engine(engine_name, instance.build(), _options())
    assert forced.verdict.value == instance.expected
    assert refuted
    assert forced.stats.proof_group_fallbacks == len(refuted)
    assert forced.stats.proof_group_solves_saved == 0


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
