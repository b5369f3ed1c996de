"""Integration tests: all four UMC engines on safe and unsafe circuits."""

import pytest

from repro.bmc import BmcCheckKind
from repro.circuits import (
    bounded_queue,
    counter,
    get_instance,
    modular_counter,
    mutual_exclusion,
    parity_chain,
    pipeline_valid,
    round_robin_arbiter,
    token_ring,
    traffic_light,
)
from repro.core import (
    ENGINES,
    EngineOptions,
    ItpEngine,
    ItpSeqCbaEngine,
    ItpSeqEngine,
    Portfolio,
    SerialItpSeqEngine,
    Verdict,
    run_engine,
)
from repro.core import VerificationResult, base, cba_engine
from repro.itp.sequence import extract_sequence
from repro.itp.verify import check_sequence_conditions
from repro.sat import check_proof
from repro.sat.solver import CdclSolver
from repro.share.bus import LocalShareBus

ALL_ENGINES = list(ENGINES)

SAFE_MODELS = [
    ("token_ring4", lambda: token_ring(4)),
    ("traffic1", lambda: traffic_light(extra_delay_bits=1)),
    ("parity3", lambda: parity_chain(3)),
    ("mutex", lambda: mutual_exclusion()),
    ("arbiter3", lambda: round_robin_arbiter(3)),
    ("pipeline3", lambda: pipeline_valid(3)),
    ("modcounter6", lambda: modular_counter(width=3, modulus=6, target=7)),
]

UNSAFE_MODELS = [
    ("counter_t4", lambda: counter(width=4, target=4), 4),
    ("ring4_bug", lambda: token_ring(4, buggy=True), 1),
    ("mutex_bug", lambda: mutual_exclusion(buggy=True), 2),
    ("pipe3_bug", lambda: pipeline_valid(3, buggy=True), 1),
    ("queue2_bug", lambda: bounded_queue(2, guarded=False), 4),
]


def _options(**kwargs):
    defaults = dict(max_bound=20, time_limit=120.0)
    defaults.update(kwargs)
    return EngineOptions(**defaults)


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("model_name,factory", SAFE_MODELS)
def test_engines_prove_safe_models(engine_name, model_name, factory):
    result = run_engine(engine_name, factory(), _options())
    assert result.verdict is Verdict.PASS, (engine_name, model_name, result.message)
    assert result.k_fp is not None and result.k_fp >= 1
    assert result.j_fp is not None and result.j_fp >= 1
    assert result.time_seconds >= 0


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
@pytest.mark.parametrize("model_name,factory,depth", UNSAFE_MODELS)
def test_engines_find_counterexamples(engine_name, model_name, factory, depth):
    model = factory()
    result = run_engine(engine_name, model, _options())
    assert result.verdict is Verdict.FAIL, (engine_name, model_name, result.message)
    assert result.k_fp == depth, (engine_name, model_name)
    assert result.j_fp == 0
    assert result.trace is not None
    assert result.trace.check(model)


def test_itp_engine_uses_more_sat_calls_than_one():
    result = ItpEngine(token_ring(4), _options()).run()
    assert result.verdict is Verdict.PASS
    assert result.stats.sat_calls >= 2
    assert result.stats.itp_extractions >= 1
    assert result.stats.itp_nodes >= 0


def test_itpseq_engine_with_exact_checks():
    options = _options(bmc_check=BmcCheckKind.EXACT)
    result = ItpSeqEngine(traffic_light(extra_delay_bits=1), options).run()
    assert result.verdict is Verdict.PASS


@pytest.mark.parametrize("engine_cls", [ItpSeqEngine, SerialItpSeqEngine,
                                        ItpSeqCbaEngine])
def test_sequence_engines_reject_bound_checks(monkeypatch, engine_cls):
    # Bound-k targets span frames 1..k, so no cut inside the unrolling has
    # latch-only shared variables: the option is refused up front, before
    # the model is preprocessed.
    def no_pipeline(*args, **kwargs):
        raise AssertionError("preprocessing ran")

    monkeypatch.setattr(base, "build_pipeline", no_pipeline)
    options = _options(bmc_check=BmcCheckKind.BOUND)
    with pytest.raises(ValueError, match="ASSUME.*EXACT"):
        engine_cls(token_ring(4), options)


def test_itp_engine_keeps_bound_checks():
    # Solo, and on a share port with no peer (fresh bound-k checks).
    options = _options(bmc_check=BmcCheckKind.BOUND)
    for share in (None, LocalShareBus().port("itp")):
        engine = ItpEngine(token_ring(4), options, share=share)
        assert engine.run().verdict is Verdict.PASS


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_serial_engine_alpha_sweep(alpha):
    options = _options(alpha_s=alpha)
    result = SerialItpSeqEngine(parity_chain(3), options).run()
    assert result.verdict is Verdict.PASS


def test_cba_engine_reports_abstraction_stats():
    result = ItpSeqCbaEngine(round_robin_arbiter(3), _options()).run()
    assert result.verdict is Verdict.PASS
    assert result.stats.abstract_latches >= 1
    assert result.stats.abstract_latches <= round_robin_arbiter(3).num_latches


def test_cba_engine_refines_on_spurious_counterexamples(monkeypatch):
    # Start from the empty abstraction so at least one refinement is needed
    # on a design whose property depends on latch behaviour.
    monkeypatch.setattr(cba_engine, "property_support_latches",
                        lambda model: set())
    # Keep every refutation the rebuilt (refined) searcher's trace served.
    served = []
    loop = ItpSeqCbaEngine._refinement_loop

    def refinement_loop(self, abstraction, k):
        outcome = loop(self, abstraction, k)
        if not isinstance(outcome, VerificationResult):
            refined, proof, unroller = outcome
            if refined.num_visible and \
                    unroller is self._abstract_searcher.unroller:
                cut_maps = {j: unroller.cut_var_map(j)
                            for j in range(1, k + 1)}
                served.append((k, proof, cut_maps,
                               refined.abstract_model.aig))
        return outcome

    monkeypatch.setattr(ItpSeqCbaEngine, "_refinement_loop", refinement_loop)
    result = ItpSeqCbaEngine(token_ring(4), _options()).run()
    assert result.verdict is Verdict.PASS
    assert result.stats.refinements >= 1
    assert result.stats.proof_group_solves_saved > 0
    assert result.stats.proof_group_fallbacks == 0
    assert served
    # The served refutation is a genuine proof of the refined abstract
    # bound, and its sequence meets Definition 2 by fresh SAT calls.
    k, proof, cut_maps, aig = served[0]
    check_proof(proof)
    sequence = extract_sequence(proof, k + 1, cut_maps, aig)
    assert check_sequence_conditions(proof, list(sequence.elements),
                                     cut_maps, aig)


@pytest.mark.parametrize("name", ("mutexbug", "queue02bug", "lock03"))
def test_cba_engine_accounts_every_sat_call(monkeypatch, name):
    # EXTEND, abstract, suffix and containment solves all reach the run's
    # account: per-call sums over every solve equal the engine's counters.
    engine = ItpSeqCbaEngine(get_instance(name).build(), _options())
    calls = []
    solve = CdclSolver.solve

    def counted(self, *args, **kwargs):
        answer = solve(self, *args, **kwargs)
        call = self.last_call_stats
        calls.append((call.clauses_added, call.propagations))
        return answer

    monkeypatch.setattr(CdclSolver, "solve", counted)
    result = engine.run()
    assert result.verdict is Verdict.FAIL
    assert len(calls) == result.stats.sat_calls
    assert sum(c for c, _ in calls) == result.stats.clauses_added
    assert sum(p for _, p in calls) == result.stats.propagations


def test_cba_engine_refines_to_the_planted_failure_by_default():
    # The property-support abstraction misses the occupancy counter's
    # overflow: default options refine before the genuine FAIL.
    instance = get_instance("queue02bug")
    result = ItpSeqCbaEngine(instance.build(), _options()).run()
    assert result.verdict is Verdict.FAIL
    assert result.k_fp == instance.expected_depth
    assert result.stats.refinements >= 1


def test_overflow_verdict_on_tiny_time_limit():
    options = EngineOptions(max_bound=30, time_limit=0.0)
    result = ItpSeqEngine(modular_counter(width=4, modulus=12, target=13), options).run()
    assert result.verdict is Verdict.OVERFLOW


def test_unknown_verdict_on_tiny_bound():
    options = EngineOptions(max_bound=1, time_limit=60.0)
    result = ItpSeqEngine(modular_counter(width=4, modulus=12, target=13), options).run()
    assert result.verdict in (Verdict.UNKNOWN, Verdict.PASS)


def test_depth_zero_failure_reported():
    model = counter(width=3, target=0)
    for engine_name in ALL_ENGINES:
        result = run_engine(engine_name, model, _options())
        assert result.verdict is Verdict.FAIL
        assert result.k_fp == 0


@pytest.mark.parametrize("engine_name", ALL_ENGINES)
def test_depth_zero_trace_replays(engine_name):
    # The depth-0 check runs on the persistent incremental searcher; the
    # trace it yields must be a genuine zero-step violation of the source.
    model = counter(width=3, target=0)
    result = run_engine(engine_name, model, _options())
    assert result.verdict is Verdict.FAIL
    assert result.trace is not None
    assert result.trace.depth == 0
    assert result.trace.check(counter(width=3, target=0))


def test_engines_do_not_mutate_source_model():
    model = token_ring(4)
    ands_before = model.aig.num_ands
    run_engine("itpseq", model, _options())
    assert model.aig.num_ands == ands_before


def test_portfolio_first_solved_and_run_all():
    portfolio = Portfolio(["itpseq", "itp"], _options())
    model = token_ring(4)
    first = portfolio.run_first_solved(model)
    assert first.verdict is Verdict.PASS
    results = portfolio.run_all(model)
    assert set(results) == {"itpseq", "itp"}
    assert all(r.verdict is Verdict.PASS for r in results.values())


def test_portfolio_rejects_unknown_engine():
    with pytest.raises(KeyError):
        Portfolio(["nonexistent"])
    with pytest.raises(KeyError):
        run_engine("nonexistent", token_ring(3))


def test_result_depth_pair_rendering():
    result = run_engine("itpseq", token_ring(4), _options())
    rendered = result.depth_pair()
    assert str(result.k_fp) in rendered
