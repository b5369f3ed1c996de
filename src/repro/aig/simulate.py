"""Bit-parallel simulation of AIGs.

Simulation serves four purposes in the library:

* validating counterexample traces produced by the BMC and UMC engines on
  the *concrete* circuit;
* cross-checking the CNF encoding and the SAT solver on random stimuli in
  the test-suite;
* providing cheap semantic signatures used by a few structural utilities;
* driving the equivalence-candidate bucketing of the fraiging pass
  (:mod:`repro.preprocess.fraig`) with seeded random patterns.

Values are Python integers used as bit-vectors, so ``width`` independent
simulation patterns are evaluated per call (bit *i* of every signal word is
pattern *i*).  The module also hosts the *ternary* lane-parallel kernel:
each node carries two words ``(value, known)`` — lane *i* is 0/1 when bit
*i* of ``known`` is set, X otherwise — which is what retires the old
per-bit 0/1/X evaluation of the sweeping pass.

The kernels (:func:`simulate_comb`, :func:`ternary_simulate_comb` and
:meth:`SequentialSimulator.step`) walk the AIG's gate table in creation
(topological) order and evaluate each fanin literal with bit operations:
``lit >> 1`` is its variable and ``lit & 1`` selects the complement, which
flips the word against the lane mask (or, ternary, against ``known``).  No
helper is called per gate.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .aig import Aig, lit_sign, lit_var

__all__ = [
    "simulate_comb",
    "simulate_sequence",
    "SequentialSimulator",
    "random_leaf_words",
    "random_stimulus_rounds",
    "ternary_simulate_comb",
    "ternary_lit_value",
]


def _mask(width: int) -> int:
    return (1 << width) - 1


def _lit_value(values: Mapping[int, int], lit: int, mask: int) -> int:
    """Evaluate a literal against a value map; ``mask`` is ``(1<<width)-1``.

    The mask is a parameter (not recomputed from a width) because this runs
    once per literal in the hot loops below — callers hoist it per call.
    """
    value = values[lit_var(lit)]
    if lit_sign(lit):
        value = ~value & mask
    return value


def simulate_comb(
    aig: Aig,
    input_values: Mapping[int, int],
    state_values: Optional[Mapping[int, int]] = None,
    width: int = 1,
) -> Dict[int, int]:
    """Evaluate the combinational logic for one clock cycle.

    Parameters
    ----------
    aig:
        The circuit.
    input_values:
        Mapping from input *variable* to a ``width``-bit integer value.
    state_values:
        Mapping from latch *variable* to its current value; defaults to the
        latch initial values (uninitialised latches default to 0).
    width:
        Number of parallel simulation patterns.

    Returns
    -------
    dict
        Mapping from every variable in the circuit to its value word.
    """
    mask = _mask(width)
    values: Dict[int, int] = {0: 0}
    for var in aig.input_vars():
        values[var] = input_values.get(var, 0) & mask
    for latch in aig.latches:
        if state_values is not None and latch.var in state_values:
            values[latch.var] = state_values[latch.var] & mask
        else:
            init = latch.init if latch.init is not None else 0
            values[latch.var] = mask if init else 0
    # A complemented fanin flips its word: ``flip[lit & 1]`` is 0 or mask.
    flip = (0, mask)
    for var, gate in aig.gate_table().items():
        left = gate.left
        right = gate.right
        values[var] = ((values[left >> 1] ^ flip[left & 1])
                       & (values[right >> 1] ^ flip[right & 1]))
    return values


def lit_value(values: Mapping[int, int], lit: int, width: int = 1) -> int:
    """Evaluate a literal against a value map produced by :func:`simulate_comb`."""
    return _lit_value(values, lit, _mask(width))


class SequentialSimulator:
    """Cycle-accurate simulator that tracks latch state across clock ticks."""

    def __init__(self, aig: Aig, width: int = 1) -> None:
        self.aig = aig
        self.width = width
        self.state: Dict[int, int] = {}
        self.reset()

    def reset(self) -> None:
        """Load the initial state (uninitialised latches become 0)."""
        mask = _mask(self.width)
        self.state = {}
        for latch in self.aig.latches:
            init = latch.init if latch.init is not None else 0
            self.state[latch.var] = mask if init else 0

    def step(self, input_values: Mapping[int, int]) -> Dict[int, int]:
        """Apply one clock cycle; return the full value map *before* the tick."""
        values = simulate_comb(self.aig, input_values, self.state, self.width)
        flip = (0, _mask(self.width))
        self.state = {latch.var: values[latch.next >> 1] ^ flip[latch.next & 1]
                      for latch in self.aig.latches}
        return values

    def run(self, input_sequence: Sequence[Mapping[int, int]]) -> List[Dict[int, int]]:
        """Simulate a sequence of input maps; return the per-cycle value maps."""
        return [self.step(frame) for frame in input_sequence]


def simulate_sequence(
    aig: Aig,
    input_sequence: Sequence[Mapping[int, int]],
    width: int = 1,
) -> List[Dict[int, int]]:
    """Simulate from the initial state; convenience wrapper over the class."""
    sim = SequentialSimulator(aig, width)
    return sim.run(input_sequence)


# ---------------------------------------------------------------------- #
# Seeded random-pattern driving (the fraiging signature source)
# ---------------------------------------------------------------------- #
def random_leaf_words(rng: random.Random, variables: Iterable[int],
                      width: int) -> Dict[int, int]:
    """One ``width``-lane random word per variable, drawn from ``rng``.

    The draw order is the iteration order of ``variables``, so callers that
    need byte-identical artefacts must pass the variables in a canonical
    (sorted) order along with a deterministically seeded ``rng``.
    """
    return {var: rng.getrandbits(width) for var in variables}


def random_stimulus_rounds(
    aig: Aig,
    steps: int,
    width: int = 64,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> List[Dict[int, int]]:
    """Drive the circuit ``steps`` cycles from reset on random inputs.

    Every cycle evaluates ``width`` independent trajectories in parallel
    (all lanes share the initial state but diverge on their random inputs)
    and contributes one full value map, so the result is ``steps`` rounds
    of *reachable-biased* simulation patterns — the complement to purely
    combinational random rounds, where latch words are free.  Seeding is
    deterministic: the same ``seed`` (or caller-provided ``rng`` state)
    reproduces the exact pattern sequence on any machine.
    """
    rng = rng if rng is not None else random.Random(seed)
    inputs = sorted(aig.input_vars())
    sim = SequentialSimulator(aig, width)
    return [sim.step(random_leaf_words(rng, inputs, width))
            for _ in range(steps)]


# ---------------------------------------------------------------------- #
# Lane-parallel ternary (0/1/X) evaluation
# ---------------------------------------------------------------------- #
def _ternary_lit(values: Mapping[int, Tuple[int, int]], lit: int,
                 mask: int) -> Tuple[int, int]:
    value, known = values[lit_var(lit)]
    if lit_sign(lit):
        value = ~value & known & mask
    return value, known


def ternary_lit_value(values: Mapping[int, Tuple[int, int]], lit: int,
                      width: int = 1) -> Tuple[int, int]:
    """Evaluate a literal against a :func:`ternary_simulate_comb` value map."""
    return _ternary_lit(values, lit, _mask(width))


def ternary_simulate_comb(
    aig: Aig,
    input_values: Optional[Mapping[int, Tuple[int, int]]] = None,
    state_values: Optional[Mapping[int, Tuple[int, int]]] = None,
    width: int = 1,
) -> Dict[int, Tuple[int, int]]:
    """Evaluate the combinational logic over the ternary 0/1/X lattice.

    Every node is a pair of ``width``-lane words ``(value, known)``: lane
    *i* holds the Boolean ``value`` bit when the ``known`` bit is set and X
    otherwise.  Value bits are normalised to 0 on unknown lanes, so equal
    ternary words compare equal as integers.  The AND lattice rule is
    evaluated bitwise across all lanes at once::

        known(a & b) = (known a & known b) | (known a & ~a) | (known b & ~b)

    (both sides known, or either side a known 0).  Inputs default to X,
    latches default to their initial value (X when uninitialised) — the
    exact abstraction of the classic stuck-latch ternary fixpoint, which
    :func:`repro.preprocess.sweep.ternary_latch_fixpoint` now runs on this
    kernel instead of a per-node ``Optional[bool]`` interpretation.
    """
    mask = _mask(width)
    values: Dict[int, Tuple[int, int]] = {0: (0, mask)}
    for var in aig.input_vars():
        if input_values is not None and var in input_values:
            value, known = input_values[var]
            values[var] = (value & known & mask, known & mask)
        else:
            values[var] = (0, 0)
    for latch in aig.latches:
        if state_values is not None and latch.var in state_values:
            value, known = state_values[latch.var]
            values[latch.var] = (value & known & mask, known & mask)
        elif latch.init is None:
            values[latch.var] = (0, 0)
        else:
            values[latch.var] = (mask if latch.init else 0, mask)
    for var, gate in aig.gate_table().items():
        left = gate.left
        right = gate.right
        left_v, left_k = values[left >> 1]
        if left & 1:
            left_v ^= left_k
        right_v, right_k = values[right >> 1]
        if right & 1:
            right_v ^= right_k
        known = ((left_k & right_k)
                 | (left_k & ~left_v)
                 | (right_k & ~right_v)) & mask
        values[var] = (left_v & right_v & known, known)
    return values
