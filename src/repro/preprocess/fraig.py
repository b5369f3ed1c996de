"""SAT sweeping (fraiging): merge combinationally equivalent AIG nodes.

Structural hashing only shares *syntactically* identical gates; two cones
computing the same function through different gate associations — or a
cone that is provably constant — survive every structural pass.  Fraiging
(the FRAIG "functionally reduced AIG" construction of Mishchenko et al.)
closes that gap with the classic simulate↔SAT refinement loop:

1. **Signature bucketing.**  Seeded 64-lane random simulation
   (:mod:`repro.aig.simulate`) assigns every node a signature — its value
   words over all rounds, side by side in one integer.  Purely combinational rounds draw
   inputs *and* latch words at random; a sequential random-stimulus pass
   (:func:`~repro.aig.simulate.random_stimulus_rounds`) adds
   reachable-biased rounds.  Nodes are bucketed by *phase-canonical*
   signature (a word and its complement share a bucket), so candidate
   classes cover both ``a ≡ b`` and ``a ≡ ¬b``; the constant node is a
   class member like any other, which is how ``node ≡ FALSE/TRUE``
   conjectures arise.
2. **Incremental SAT confirmation, refined by each counterexample.**  One
   persistent :class:`~repro.sat.solver.CdclSolver` carries the Tseitin
   encoding of every cone ever examined; each candidate pair gets a
   two-clause miter (``a ≠ b`` is satisfiable?) under a retractable
   activation-literal clause group
   (:meth:`~repro.sat.solver.CdclSolver.new_group`), released after the
   answer either way.  UNSAT proves the pair equivalent and records a
   merge.  SAT yields a counterexample leaf assignment, which is simulated
   at once into one lane of the round's per-node words; every later pair
   of the round that those words already tell apart (phase-adjusted) is
   answered without a SAT call (``resim_answered``), as in the FRAIG
   construction.  The round's words then become the next signature round,
   splitting every class they distinguish; the loop re-buckets and
   re-sweeps until no candidate pair is left (classes only ever split, so
   it terminates).  ``sat_refutes`` counts only the miters that answered
   SAT, one per counterexample lane.  A class holds every node equivalent
   to its members, so each merge targets the earliest unmerged equivalent
   node, whichever pairs the counterexamples answer (unless a miter
   exceeds its conflict budget and its pair is abandoned).
3. **Merged-model rebuild.**  Every SAT-proven node redirects to its class
   representative (the topologically earliest member, possibly
   complemented, possibly a constant); the observed cones are rewritten
   over representatives through
   :func:`~repro.preprocess.rebuild.rebuild_model`'s redirect support.
   The input/latch interface is untouched, so the returned
   :class:`~repro.preprocess.modelmap.ModelMap` keeps trace lift-back
   exact.

Merging is sound *sequentially* although the equivalence is proven
*combinationally*: latch leaves are free in the miter, so proven-equal
nodes agree in every state, reachable or not, and substituting one for the
other preserves the transition and property functions exactly — verdicts,
depths and counterexamples are unchanged, only the amount of logic every
engine pays for shrinks.

Everything is deterministic: a fixed seed, sorted iteration orders and the
deterministic solver make the pass — and therefore the committed benchmark
artefacts — byte-identical across machines and job counts.  The pass's own
SAT work happens on a private solver and is *not* charged to the engine's
clause/propagation budgets (preprocessing is charged wall-clock, like every
other pass); its effort is reported instead through the
``fraig_classes`` / ``fraig_merges`` / ``fraig_sat_confirms`` counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..aig.aig import lit_from_var, lit_negate
from ..aig.model import Model
from ..aig.ops import cone_gates
from ..aig.simulate import (random_leaf_words, random_stimulus_rounds,
                            simulate_comb)
from ..cnf.tseitin import TseitinEncoder
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult
from .modelmap import ModelMap
from .passes import Pass, PassResult
from .rebuild import rebuild_model

__all__ = ["FraigConfig", "FraigResult", "FraigPass", "find_equivalences"]


@dataclass(frozen=True)
class FraigConfig:
    """Tuning knobs of the fraiging pass (defaults match the artefacts)."""

    #: Seed of the random-pattern generator; fixed so artefacts reproduce.
    seed: int = 0xF4A16
    #: Purely combinational random rounds (inputs and latch words free).
    comb_rounds: int = 4
    #: Sequential random-stimulus cycles appended as reachable-biased rounds.
    seq_steps: int = 8
    #: Lanes per round (bits per simulation word).
    width: int = 64
    #: Per-miter conflict budget; an UNKNOWN abandons the pair (soundly —
    #: a missed merge only costs reduction, never correctness).
    conflict_limit: int = 10_000


@dataclass
class FraigResult:
    """What the equivalence search found."""

    #: AND variable -> replacement literal (over the same AIG).
    merges: Dict[int, int] = field(default_factory=dict)
    #: Candidate classes examined by the SAT stage, cumulative over
    #: refinement rounds.
    classes: int = 0
    #: Miter UNSAT answers (each one proved a merge).
    sat_confirms: int = 0
    #: Miter SAT answers (each one contributed a splitting pattern).
    sat_refutes: int = 0
    #: Candidate pairs answered "not equivalent" by the current round's
    #: counterexample patterns, with no SAT call.
    resim_answered: int = 0
    #: Miters that exceeded the conflict budget; their pairs were abandoned.
    abandoned: int = 0
    #: Simulation rounds evaluated (initial + one per refinement round).
    rounds: int = 0


def find_equivalences(model: Model,
                      config: Optional[FraigConfig] = None) -> FraigResult:
    """Run the simulate↔SAT loop; return the proven merges and counters."""
    config = config or FraigConfig()
    aig = model.aig
    result = FraigResult()
    roots = ([latch.next for latch in aig.latches]
             + [aig.bad[model.property_index]] + list(aig.constraints))
    gates = sorted(cone_gates(aig, roots))
    if not gates:
        return result
    inputs = sorted(aig.input_vars())
    latch_vars = sorted(latch.var for latch in aig.latches)
    # Bucketing order doubles as the representative rule: class members are
    # kept in this (topological: fanins precede fanouts) order and the
    # first one — the constant node, a leaf, or the earliest gate — is the
    # representative everything else redirects to.
    ordered = [0] + sorted(set(inputs) | set(latch_vars) | set(gates))
    gate_set = set(gates)

    # A node's signature is one int: its value words of all rounds side by
    # side, the first round in the lowest bits.  ``width`` is their total.
    sigs: Dict[int, int] = dict.fromkeys(ordered, 0)
    width = 0

    def append_round(values: Union[Dict[int, int], List[int]],
                     lanes: int) -> None:
        nonlocal width
        for var in ordered:
            sigs[var] |= values[var] << width
        width += lanes
        result.rounds += 1

    rng = random.Random(config.seed)
    for _ in range(config.comb_rounds):
        input_words = random_leaf_words(rng, inputs, config.width)
        state_words = random_leaf_words(rng, latch_vars, config.width)
        append_round(simulate_comb(aig, input_words, state_words,
                                   config.width), config.width)
    if aig.latches and config.seq_steps:
        for values in random_stimulus_rounds(aig, config.seq_steps,
                                             config.width, rng=rng):
            append_round(values, config.width)

    solver = CdclSolver()
    encoder = TseitinEncoder(aig, solver.new_var, solver.add_cnf,
                             allocate_leaves=True)
    abandoned: Set[Tuple[int, int]] = set()
    # The cone's gates as (var, left, right) rows in topological order: the
    # per-counterexample simulation below walks them once per pattern.
    table = aig.gate_table()
    rows = [(var, table[var].left, table[var].right) for var in gates]
    leaves = inputs + latch_vars

    while True:
        # Bucket the unmerged nodes by phase-canonical signature: the
        # phase is the node's value in the first lane.
        classes: Dict[int, List[int]] = {}
        phases: Dict[int, int] = {}
        mask = (1 << width) - 1
        for var in ordered:
            if var in result.merges:
                continue
            signature = sigs[var]
            phase = signature & 1
            phases[var] = phase
            classes.setdefault(signature ^ mask if phase else signature,
                               []).append(var)

        # Confirm every candidate pair (representative vs. member).  Each
        # SAT counterexample is simulated at once into this round's words,
        # one lane per pattern; a later pair those words already tell apart
        # needs no SAT call.
        words = [0] * aig.num_vars
        lanes = 0
        for members in classes.values():
            representative = members[0]
            mergeable = [m for m in members[1:]
                         if m in gate_set
                         and (representative, m) not in abandoned]
            if not mergeable:
                continue
            result.classes += 1
            rep_lit = lit_from_var(representative)
            for member in mergeable:
                same_phase = phases[member] == phases[representative]
                if lanes:
                    differ = words[member] ^ words[representative]
                    if not same_phase:
                        differ ^= (1 << lanes) - 1
                    if differ:
                        result.resim_answered += 1
                        continue
                target = rep_lit if same_phase else lit_negate(rep_lit)
                member_cnf = encoder.literal(lit_from_var(member))
                target_cnf = encoder.literal(target)
                group = solver.new_group()
                solver.add_clause([member_cnf, target_cnf], group=group)
                solver.add_clause([-member_cnf, -target_cnf], group=group)
                answer = solver.solve(
                    assumptions=[group],
                    budget=Budget(max_conflicts=config.conflict_limit))
                solver.release_group(group)
                if answer is SatResult.UNSAT:
                    result.merges[member] = target
                    result.sat_confirms += 1
                elif answer is SatResult.SAT:
                    result.sat_refutes += 1
                    _simulate_pattern(
                        _leaf_pattern(solver, encoder, leaves), rows, words,
                        1 << lanes)
                    lanes += 1
                else:
                    result.abandoned += 1
                    abandoned.add((representative, member))
        if not lanes:
            return result

        # The round's words are the next signature round: every refuted or
        # resimulated pair lands in different buckets, so the partition
        # strictly refines and the loop terminates.
        append_round(words, lanes)


def _simulate_pattern(pattern: Sequence[int], rows: Sequence[Tuple[int, int, int]],
                      words: List[int], lane: int) -> None:
    """Set bit ``lane`` of ``words`` on every node one leaf pattern makes 1.

    ``pattern`` lists the leaf variables the pattern sets; every other leaf
    is 0.  ``rows`` are the cone's gates in topological order.
    """
    bits = [0] * len(words)
    for var in pattern:
        bits[var] = 1
        words[var] |= lane
    for var, left, right in rows:
        if bits[left >> 1] ^ (left & 1) and bits[right >> 1] ^ (right & 1):
            bits[var] = 1
            words[var] |= lane


def _leaf_pattern(solver: CdclSolver, encoder: TseitinEncoder,
                  leaves: Sequence[int]) -> List[int]:
    """The leaf variables the miter model sets to 1.

    Leaves outside the encoded cones have no CNF variable; they are 0,
    which is deterministic and irrelevant to the pair the model refutes.
    """
    return [var for var in leaves
            if encoder.has_var(var)
            and solver.model_value(encoder.cnf_var(var))]


class FraigPass(Pass):
    """Merge SAT-proven equivalent nodes onto class representatives."""

    name = "fraig"

    def __init__(self, config: Optional[FraigConfig] = None) -> None:
        self.config = config or FraigConfig()

    def apply(self, model: Model) -> PassResult:
        found = find_equivalences(model, self.config)
        extra = {
            "fraig_classes": found.classes,
            "fraig_merges": len(found.merges),
            "fraig_sat_confirms": found.sat_confirms,
        }
        if not found.merges:
            stats = self._stats(model, model)
            stats.extra = extra
            return PassResult(model, ModelMap.identity(model), stats)

        aig = model.aig
        result, model_map = rebuild_model(
            interface=model,
            src=aig,
            src_inputs=[(var, var) for var in aig.input_vars()],
            src_latches=[(latch, latch.var, latch.next)
                         for latch in aig.latches],
            src_bad=aig.bad[model.property_index],
            src_constraints=aig.constraints,
            redirects=found.merges)
        stats = self._stats(model, result)
        stats.extra = extra
        return PassResult(result, model_map, stats)
