"""Oracle checks for the steps that refute a suffix of the searcher's unrolling.

Every serial step after the first, the parallel remainder (Fig. 4) and
every image step of standard interpolation after the first (Fig. 1) is
refuted on the run's proof-logged searcher, with the step's seed predicate
in place of the prefix below it (``IncrementalUnroller.step``; see
:mod:`repro.core.sitpseq_engine` and :mod:`repro.core.itp_engine`).  Its
soundness rests on facts checked here by independent means rather than by
construction:

* each stripped refutation, and its trimmed form, is a genuine resolution
  proof (:func:`repro.sat.check_proof`);
* its interpolants meet the right condition by fresh SAT calls
  (:mod:`repro.itp.verify`): Eq. (3)'s Craig conditions for a serial step
  (A = partitions 1..j, B = the rest), the chain condition Iᵢ ∧ Aᵢ₊₁ ⇒ Iᵢ₊₁
  for the remainder, cut-1 Craig for an image step — on the step's own
  refutation, and for the steps on a fresh check of the same suffix built
  by the reference builders;
* the step's active groups exclude S₀'s group and every frame group below
  the seed: the refutation cannot use the Init-free prefix.  The searcher's
  own assumptions list S₀, the frames bottom-up and the target, so the
  groups are read from them.

The fallback to a fresh check is exercised by forcing one
:class:`~repro.sat.proof.ActivationDependencyError` on a serial step and on
an image step.
"""

import pytest

from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine
from repro.core import base, itp_engine, sitpseq_engine
from repro.core.base import UmcEngine
from repro.itp.craig import InterpolantBuilder
from repro.itp.verify import check_craig_conditions, check_sequence_conditions
from repro.obs.sinks import ListSink
from repro.obs.tracer import Tracer
from repro.sat import check_proof
from repro.sat.proof import ActivationDependencyError
from repro.sat.types import SatResult

_INSTANCES = ("ring04", "ring06", "modcnt06", "traffic1")
_ALPHAS = (0.5, 1.0)
_MAX_BOUND = 20


def _options(alpha_s: float = 0.5) -> EngineOptions:
    return EngineOptions(max_bound=_MAX_BOUND, time_limit=120.0,
                         alpha_s=alpha_s)


def _record_steps(monkeypatch):
    """Spy on every step refutation and every serial sequence of a run.

    Returns ``(steps, sequences)``: one dict per step (the engine, its
    bound, seed frame, seed and trace fields, the searcher's own
    assumptions, the step's assumptions and stripped proof, and the
    returned refutation) and one ``(k, elements)`` per serial sequence.
    """
    steps, sequences = [], []
    strip = base.grouped_refutation
    step_refutation = UmcEngine._step_refutation
    compute = sitpseq_engine.compute_serial_sequence

    def grouped_refutation(solver, assumptions):
        proof, stats = strip(solver, assumptions)
        if steps and "refuted" not in steps[-1]:
            steps[-1].update(assumptions=list(assumptions), stripped=proof)
        return proof, stats

    def spy_step(self, searcher, frame, seed, fallback, **fields):
        steps.append({"engine": self, "k": searcher.depth, "frame": frame,
                      "seed": seed, "fields": fields,
                      "searcher": searcher.assumptions(),
                      "unroller": searcher.unroller, "assumptions": None})
        refuted = step_refutation(self, searcher, frame, seed, fallback,
                                  **fields)
        steps[-1]["refuted"] = refuted
        return refuted

    def compute_serial_sequence(engine, model, k, proof, unroller, searcher):
        elements = compute(engine, model, k, proof, unroller, searcher)
        sequences.append((k, elements))
        return elements

    monkeypatch.setattr(base, "grouped_refutation", grouped_refutation)
    monkeypatch.setattr(UmcEngine, "_step_refutation", spy_step)
    monkeypatch.setattr(sitpseq_engine, "compute_serial_sequence",
                        compute_serial_sequence)
    return steps, sequences


def _check_step_groups(step):
    """The step solved on the searcher, under the target, the frames from
    the seed's up and the seed, with S₀ and the lower frames held false."""
    proof, cuts = step["refuted"]
    assert cuts is step["unroller"]
    check_proof(step["stripped"])
    check_proof(proof)
    init, frames, target = (step["searcher"][0], step["searcher"][1:-1],
                            step["searcher"][-1])
    frame = step["frame"]
    assert len(frames) == step["k"] + 1
    active = {lit for lit in step["assumptions"] if lit > 0}
    held_false = {-lit for lit in step["assumptions"] if lit < 0}
    seeds = active - set(step["searcher"])
    assert len(seeds) == 1
    assert active == {target, *frames[frame:], *seeds}
    assert held_false == {init, *frames[:frame]}
    assert step["assumptions"][:len(frames) - frame + 2] == \
        [target, *reversed(frames[frame:]), *seeds]


def _fresh_refutation(unroller):
    """Solve a freshly built reference check; return its refutation."""
    assert unroller.solver.solve() is SatResult.UNSAT
    return unroller.solver.proof()


@pytest.mark.parametrize("alpha_s", _ALPHAS)
@pytest.mark.parametrize("name", _INSTANCES)
def test_suffix_refutations_are_sound(monkeypatch, name, alpha_s):
    steps, sequences = _record_steps(monkeypatch)
    instance = get_instance(name)
    result = run_engine("sitpseq", instance.build(), _options(alpha_s))
    assert result.verdict.value == instance.expected, result.message
    assert result.stats.proof_group_fallbacks == 0
    assert steps, "no serial step ran"

    by_bound = dict(sequences)
    for step in steps:
        _check_step_groups(step)
        engine, k, seed = step["engine"], step["k"], step["seed"]
        j = step["frame"] + 1
        assert step["fields"] == {"serial_step": j}
        elements = by_bound[k]
        aig = engine.aig
        proof, cuts = step["refuted"]
        n_serial = min(int(alpha_s * (k + 1)), k)
        fresh = sitpseq_engine._build_suffix_check(engine, engine.model,
                                                   seed, k - j + 1)
        fresh_proof = _fresh_refutation(fresh)
        if j <= n_serial:
            # Serial step j: Eq. (3) with A = partitions 1..j, cut at
            # frame j — and on the fresh suffix check, cut 1.
            assert check_craig_conditions(
                proof, range(1, j + 1), elements[j], aig,
                cuts.cut_var_map(j)) == (True, True), (name, k, j)
            assert check_craig_conditions(
                fresh_proof, [1], elements[j], aig,
                fresh.cut_var_map(1)) == (True, True), (name, k, j)
        else:
            # The parallel remainder from cut j = n_serial + 1 on.
            assert j == n_serial + 1, (name, k, j)
            remainder = [elements[0]] + elements[j:k + 1] + [elements[-1]]
            cut_maps = {cut: cuts.cut_var_map(cut) for cut in range(j, k + 1)}
            assert check_sequence_conditions(proof, remainder, cut_maps, aig,
                                             first_cut=j), (name, k, j)
            fresh_maps = {cut: fresh.cut_var_map(cut)
                          for cut in range(1, k - j + 2)}
            assert check_sequence_conditions(fresh_proof, remainder,
                                             fresh_maps, aig), (name, k, j)


@pytest.mark.parametrize("name", _INSTANCES)
def test_image_step_refutations_are_sound(monkeypatch, name):
    steps, _ = _record_steps(monkeypatch)
    instance = get_instance(name)
    result = run_engine("itp", instance.build(), _options())
    assert result.verdict.value == instance.expected, result.message
    assert result.stats.proof_group_fallbacks == 0
    refuted = [step for step in steps if step["refuted"] is not None]
    assert refuted, "no image step was refuted"

    for step in refuted:
        _check_step_groups(step)
        engine, k, seed = step["engine"], step["k"], step["seed"]
        assert step["frame"] == 0 and "image_step" in step["fields"]
        aig = engine.aig
        proof, cuts = step["refuted"]
        itp = InterpolantBuilder(aig, cuts.cut_var_map(1)).extract(
            proof, a_partitions=[1])
        assert check_craig_conditions(proof, [1], itp, aig,
                                      cuts.cut_var_map(1)) == (True, True)
        fresh = engine._build_check(k, init_formula=seed)
        assert check_craig_conditions(_fresh_refutation(fresh), [1], itp,
                                      aig, fresh.cut_var_map(1)) == \
            (True, True), (name, k)


def _force_one_strip_failure(monkeypatch, field, nth):
    """Reject the ``nth`` strip of a step labelled ``field``; return the
    seed frames of every such step's strip."""
    strip = UmcEngine._strip_refutation
    calls = []

    def rejecting(solver, assumptions):
        raise ActivationDependencyError("forced for the test")

    def strip_refutation(self, solver, assumptions, bound, **fields):
        if field in fields:
            calls.append(fields[field])
            if len(calls) == nth:
                with monkeypatch.context() as patch:
                    patch.setattr(base, "grouped_refutation", rejecting)
                    return strip(self, solver, assumptions, bound, **fields)
        return strip(self, solver, assumptions, bound, **fields)

    monkeypatch.setattr(UmcEngine, "_strip_refutation", strip_refutation)
    return calls


def _run_with_one_fallback(monkeypatch, engine_name, field, nth):
    instance = get_instance("ring06")
    reference = run_engine(engine_name, instance.build(), _options())
    calls = _force_one_strip_failure(monkeypatch, field, nth)
    sink = ListSink()
    result = run_engine(engine_name, instance.build(), _options(),
                        tracer=Tracer(sink, wall_clock=False))
    assert len(calls) >= nth
    assert result.verdict == reference.verdict
    assert result.stats.proof_group_fallbacks == 1
    fallbacks = [event.attrs for event in sink.events
                 if event.name == "group_proof_fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0][field] == calls[nth - 1]


@pytest.mark.parametrize("engine_name", ("sitpseq", "itpseqcba"))
def test_forced_strip_failure_falls_back_for_one_step(monkeypatch,
                                                      engine_name):
    _run_with_one_fallback(monkeypatch, engine_name, "serial_step", 3)


def test_forced_strip_failure_falls_back_for_one_image_step(monkeypatch):
    built = []
    build_check = itp_engine.build_check

    def counting(*args, **kwargs):
        built.append(kwargs.get("initial"))
        return build_check(*args, **kwargs)

    monkeypatch.setattr(itp_engine, "build_check", counting)
    _run_with_one_fallback(monkeypatch, "itp", "image_step", 1)
    # Only the rejected step built a fresh check, seeded at frame 0.
    assert len(built) == 1 and built[0] is not None
