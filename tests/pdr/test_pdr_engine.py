"""PDR engine correctness: ground truth, four-engine agreement, trace replay.

Three cross-checks anchor the engine:

* exact BDD reachability (``bdd/checker.py``) must agree with every PDR
  verdict on the full circuit suite (where the BDD engine fits in its
  node budget);
* the four interpolation engines must agree bit-identically wherever they
  produce a definitive answer within their time budget;
* every FAIL trace must replay to a concrete property violation under
  ``aig/simulate`` — asserted here directly, not only through the
  engine's own replay in ``UmcEngine._fail``.

The suite also audits the tentpole's structural claim: a whole run
executes on ONE persistent solver, verified through the ``SolverStats``
counters rather than by trusting the implementation.
"""

import pytest

from repro.bdd import check_with_bdds
from repro.circuits import full_suite, get_instance
from repro.core import EngineOptions, PdrEngine, Verdict, pdr_engine, run_engine

INSTANCES = [instance.name for instance in full_suite()]
FAIL_INSTANCES = [instance.name for instance in full_suite()
                  if instance.expected == "fail"]
INTERPOLATION_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")


def _options(**kwargs):
    defaults = dict(max_bound=40, time_limit=60.0)
    defaults.update(kwargs)
    return EngineOptions(**defaults)


@pytest.fixture(scope="module")
def pdr_results():
    """One PDR run per suite instance, shared by the agreement tests."""
    return {instance.name: run_engine("pdr", instance.build(), _options())
            for instance in full_suite()}


def test_pdr_matches_expected_verdict_on_full_suite(pdr_results):
    for instance in full_suite():
        result = pdr_results[instance.name]
        assert result.verdict.value == instance.expected, (
            instance.name, result.message)


def test_pdr_agrees_with_bdd_reachability(pdr_results):
    # A small node budget keeps the exact checker fast; the handful of
    # instances whose BDDs overflow it are cross-checked by the
    # interpolation engines below instead.
    compared = 0
    for instance in full_suite():
        ground_truth = check_with_bdds(instance.build(), max_nodes=50_000)
        if ground_truth.status == "overflow":
            continue
        compared += 1
        assert pdr_results[instance.name].verdict.value == ground_truth.status, \
            instance.name
    assert compared >= 30  # the BDD budget must cover most of the suite


# The deep-diameter rings need minutes per sequence-engine run (they are
# the scenario class PDR was added for), so only the fast standard-
# interpolation engine covers them here; they are also cross-checked by
# BDD reachability above.  Everything else must answer *and* agree —
# no overflow tolerance, so the test cannot rot into vacuity.
DEEP_RING_INSTANCES = {"indA1_ring12", "indA2_ring16"}


@pytest.mark.parametrize("engine_name", INTERPOLATION_ENGINES)
def test_pdr_agrees_with_interpolation_engines(pdr_results, engine_name):
    options = _options(time_limit=120.0)
    for instance in full_suite():
        if engine_name != "itp" and instance.name in DEEP_RING_INSTANCES:
            continue
        result = run_engine(engine_name, instance.build(), options)
        assert result.verdict in (Verdict.PASS, Verdict.FAIL), (
            engine_name, instance.name, result.message)
        assert result.verdict is pdr_results[instance.name].verdict, (
            engine_name, instance.name)


@pytest.mark.parametrize("name", FAIL_INSTANCES)
def test_fail_traces_replay_to_property_violation(name):
    model = get_instance(name).build()
    result = run_engine("pdr", model, _options())
    assert result.verdict is Verdict.FAIL
    assert result.trace is not None
    assert result.trace.depth == result.k_fp
    assert result.trace.check(model), name  # simulates on the concrete AIG
    assert result.j_fp == 0  # the paper's convention for failures


@pytest.mark.parametrize("name", ["ring06", "modcnt12", "cnt08"])
def test_whole_run_executes_on_one_persistent_solver(name):
    engine = PdrEngine(get_instance(name).build(), _options())
    result = engine.run()
    assert result.verdict in (Verdict.PASS, Verdict.FAIL)
    solver_stats = engine.frames.solver.stats
    # Every SAT query of the run hit the frames' solver: the engine-side
    # and solver-side call counters are the same number.
    assert engine.stats.sat_calls == solver_stats.solve_calls
    # ... and so is the clause work (clauses added after the final solve
    # call belong to no per-call snapshot, hence the small slack).
    assert engine.stats.clauses_added <= solver_stats.clauses_added \
        <= engine.stats.clauses_added + 5
    assert engine.stats.blocked_cubes > 0


def test_solver_count_is_independent_of_frame_count(monkeypatch):
    # Instances whose proofs need 4 and 12 frames must both construct
    # exactly one solver — the count does not scale with depth.
    import repro.pdr.frames as frames_module

    created = []
    original = frames_module.CdclSolver

    class CountingSolver(original):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(frames_module, "CdclSolver", CountingSolver)
    for name, min_frames in (("ring04", 4), ("indA1_ring12", 12)):
        created.clear()
        engine = PdrEngine(get_instance(name).build(), _options())
        result = engine.run()
        assert result.verdict is Verdict.PASS
        assert engine.frames.k >= min_frames
        assert len(created) == 1, name


@pytest.mark.parametrize("budget", [0, 2])
def test_pdr_gen_budget_preserves_verdicts(monkeypatch, budget):
    monkeypatch.setattr(pdr_engine, "GEN_BUDGET", budget)
    for name in ("ring04", "mutex", "mutexbug", "modcnt06", "cnt08"):
        instance = get_instance(name)
        result = run_engine("pdr", instance.build(), _options())
        assert result.verdict.value == instance.expected, (name, budget)


def _saturating_counter_with_constraint():
    # 0 -> 1 -> 2 -> 2, bad at count 1, invariant constraint !(count == 2).
    # The genuine counterexample 0 -> 1 satisfies the constraint at every
    # trace frame, but the bad state's only successor (count 2) violates
    # it — a bad-state query that asserts constraints at the *next* step
    # would wrongly report the model safe.
    from repro.aig import Aig, Model, lit_negate

    aig = Aig("sat_counter")
    b0 = aig.add_latch(init=0, name="b0")
    b1 = aig.add_latch(init=0, name="b1")
    zero = aig.op_and(lit_negate(b0), lit_negate(b1))
    aig.set_latch_next(b0, zero)
    aig.set_latch_next(b1, lit_negate(zero))
    aig.add_bad(aig.op_and(b0, lit_negate(b1)))
    aig.add_constraint(lit_negate(aig.op_and(lit_negate(b0), b1)))
    return Model(aig)


def test_constraints_do_not_require_bad_state_successor():
    model = _saturating_counter_with_constraint()
    result = run_engine("pdr", model, _options())
    reference = run_engine("itp", _saturating_counter_with_constraint(),
                           _options())
    assert reference.verdict is Verdict.FAIL
    assert result.verdict is Verdict.FAIL
    assert result.k_fp == 1
    assert result.trace.check(_saturating_counter_with_constraint())


def test_generalization_budget_trades_sat_calls_for_clauses(monkeypatch):
    # With no literal dropping each blocked clause is weaker, so the run
    # needs at least as many blocked cubes as the generalizing run.
    def blocked_cubes(budget):
        monkeypatch.setattr(pdr_engine, "GEN_BUDGET", budget)
        engine = PdrEngine(get_instance("ring06").build(), _options())
        assert engine.run().verdict is Verdict.PASS
        return engine.stats.blocked_cubes

    assert blocked_cubes(0) >= blocked_cubes(32)
