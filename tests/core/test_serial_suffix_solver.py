"""Oracle checks for the serial sequences' one-solver-per-bound suffix path.

Every serial step after the first, and the parallel remainder, is refuted
on one proof-logged :class:`~repro.bmc.incremental.SuffixUnroller` per
bound (see :mod:`repro.core.sitpseq_engine`).  Its soundness rests on two
facts checked here by independent means rather than by construction:

* each stripped refutation is a genuine resolution proof
  (:func:`repro.sat.check_proof`) whose interpolants meet the Craig
  conditions of Eq. (3) — A = partitions 1..j, B = the rest — and, for the
  remainder, the chain condition Iᵢ ∧ Aᵢ₊₁ ⇒ Iᵢ₊₁, by fresh SAT calls
  (:mod:`repro.itp.verify`);
* the Init-free prefix is gone before each step: after step j no group of
  a frame below j−1 is still open in the solver.

The fallback to a fresh suffix solver is exercised by forcing one
:class:`~repro.sat.proof.ActivationDependencyError`.
"""

import pytest

from repro.bmc.checks import BmcCheckKind
from repro.bmc.incremental import SuffixUnroller
from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine
from repro.core import base, sitpseq_engine
from repro.core.base import UmcEngine
from repro.itp.verify import check_craig_conditions, check_sequence_conditions
from repro.obs.sinks import ListSink
from repro.obs.tracer import Tracer
from repro.sat import check_proof
from repro.sat.proof import ActivationDependencyError

_INSTANCES = ("ring04", "ring06", "modcnt06", "traffic1")
_ALPHAS = (0.5, 1.0)
_MAX_BOUND = 20


def _options(alpha_s: float) -> EngineOptions:
    return EngineOptions(max_bound=_MAX_BOUND, time_limit=120.0,
                         alpha_s=alpha_s)


def _record_steps(monkeypatch):
    """Spy on every suffix refutation and every serial sequence of a run.

    Returns ``(steps, sequences)``: one dict per suffix refutation (its
    bound, step, stripped proof, cut unroller and the open groups right
    after it) and one ``(k, aig, elements)`` per computed sequence.
    """
    steps, sequences = [], []
    frame_groups = {}
    strip = base.grouped_refutation
    refute = sitpseq_engine._suffix_refutation
    compute = sitpseq_engine.compute_serial_sequence

    def grouped_refutation(solver, active):
        proof, stats = strip(solver, active)
        if steps and solver is steps[-1]["solver"]:
            steps[-1]["stripped"] = proof
        return proof, stats

    def suffix_refutation(engine, model, suffix, j, seed):
        if suffix not in frame_groups:
            # A bound's first step arms frame 1: every frame's group is
            # open, and the assumptions end with all of them, frame 1 last.
            assert suffix.first == 1
            assumptions = suffix.assumptions()
            frame_groups[suffix] = {
                frame: assumptions[len(assumptions) - frame]
                for frame in range(1, suffix.depth)}
        steps.append({"k": suffix.depth, "j": j, "solver": suffix.solver,
                      "stripped": None})
        proof, cuts, shift = refute(engine, model, suffix, j, seed)
        groups = frame_groups[suffix]
        steps[-1].update(
            proof=proof, cuts=cuts, shift=shift, first=suffix.first,
            assumptions=set(suffix.assumptions()),
            active=suffix.solver.active_groups(),
            released={groups[f] for f in range(1, j - 1)})
        return proof, cuts, shift

    def compute_serial_sequence(engine, model, k, proof, unroller):
        elements = compute(engine, model, k, proof, unroller)
        sequences.append((k, model.aig, elements))
        return elements

    monkeypatch.setattr(base, "grouped_refutation", grouped_refutation)
    monkeypatch.setattr(sitpseq_engine, "_suffix_refutation",
                        suffix_refutation)
    monkeypatch.setattr(sitpseq_engine, "compute_serial_sequence",
                        compute_serial_sequence)
    return steps, sequences


def _check_suffix_refutations(monkeypatch, name, options):
    steps, sequences = _record_steps(monkeypatch)
    instance = get_instance(name)
    result = run_engine("sitpseq", instance.build(), options)
    assert result.verdict.value == instance.expected, result.message
    assert result.stats.proof_group_fallbacks == 0
    assert steps, "no suffix step ran"

    by_bound = {k: (aig, elements) for k, aig, elements in sequences}
    for step in steps:
        k, j = step["k"], step["j"]
        aig, elements = by_bound[k]
        n_serial = min(int(options.alpha_s * (k + 1)), k)
        assert step["shift"] == 0, (name, k, j)
        check_proof(step["stripped"])
        check_proof(step["proof"])

        # The prefix below the seed's frame is released for good.
        assert step["first"] == j - 1
        assert step["active"] == step["assumptions"], (name, k, j)
        assert not step["released"] & step["active"], (name, k, j)

        cuts = step["cuts"]
        if j <= n_serial:
            # Serial step j: Eq. (3) with A = partitions 1..j, cut at frame j.
            a_implies, b_inconsistent = check_craig_conditions(
                step["proof"], range(1, j + 1), elements[j], aig,
                cuts.cut_var_map(j))
            assert a_implies and b_inconsistent, (name, k, j)
        else:
            # The parallel remainder from cut j = n_serial + 1 on.
            assert j == n_serial + 1, (name, k, j)
            cut_maps = {cut: cuts.cut_var_map(cut) for cut in range(j, k + 1)}
            remainder = [elements[0]] + elements[j:k + 1] + [elements[-1]]
            assert check_sequence_conditions(step["proof"], remainder,
                                             cut_maps, aig, first_cut=j), \
                (name, k, j)


@pytest.mark.parametrize("alpha_s", _ALPHAS)
@pytest.mark.parametrize("name", _INSTANCES)
def test_suffix_refutations_are_sound(monkeypatch, name, alpha_s):
    _check_suffix_refutations(monkeypatch, name, _options(alpha_s))


@pytest.mark.parametrize("name", ("ring04", "traffic1"))
def test_bound_check_suffix_refutations_are_sound(monkeypatch, name):
    # Bound-k suffixes re-arm a bad-state disjunction group per step; fully
    # serial, because bound-k checks support only the serial cut.
    options = _options(1.0).with_changes(bmc_check=BmcCheckKind.BOUND)
    _check_suffix_refutations(monkeypatch, name, options)


@pytest.mark.parametrize("engine_name", ("sitpseq", "itpseqcba"))
def test_forced_strip_failure_falls_back_for_one_step(monkeypatch,
                                                      engine_name):
    instance = get_instance("ring06")
    reference = run_engine(engine_name, instance.build(), _options(0.5))

    strip = UmcEngine._strip_refutation
    calls = []

    def rejecting(solver, active):
        raise ActivationDependencyError("forced for the test")

    def strip_refutation(self, grouped, bound, **fields):
        if isinstance(grouped, SuffixUnroller):
            calls.append(grouped.first)
            if len(calls) == 3:
                with monkeypatch.context() as patch:
                    patch.setattr(base, "grouped_refutation", rejecting)
                    return strip(self, grouped, bound, **fields)
        return strip(self, grouped, bound, **fields)

    monkeypatch.setattr(UmcEngine, "_strip_refutation", strip_refutation)
    sink = ListSink()
    result = run_engine(engine_name, instance.build(), _options(0.5),
                        tracer=Tracer(sink, wall_clock=False))
    assert len(calls) > 3
    assert result.verdict == reference.verdict
    assert result.stats.proof_group_fallbacks == 1
    fallbacks = [event.attrs for event in sink.events
                 if event.name == "group_proof_fallback"]
    assert len(fallbacks) == 1
    assert fallbacks[0]["serial_step"] == calls[2] + 1
