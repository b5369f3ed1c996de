"""Counterexample traces.

A :class:`Trace` is the witness returned by a failing BMC or UMC run: the
initial latch values plus one primary-input valuation per time frame.  The
class can *replay* itself on a concrete :class:`~repro.aig.model.Model`
through the combinational simulator, one call per frame, which is how the
engines (and the test-suite) validate that a reported failure is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..aig.model import Model
from ..aig.simulate import lit_value, simulate_comb

__all__ = ["Trace"]


@dataclass
class Trace:
    """A finite input trace ending in a property violation.

    Attributes
    ----------
    initial_state:
        Values for every latch variable at time 0.
    inputs:
        One mapping (input variable -> bool) per time frame, frames
        ``0 .. depth``; the violation is observed at frame ``depth``.
    depth:
        The frame at which the bad literal is asserted.
    """

    initial_state: Dict[int, bool]
    inputs: List[Dict[int, bool]]
    depth: int

    def __post_init__(self) -> None:
        if len(self.inputs) < self.depth + 1:
            # Pad with all-zero input frames; the solver may not have had to
            # assign inputs in frames that do not influence the violation.
            self.inputs = list(self.inputs) + [
                {} for _ in range(self.depth + 1 - len(self.inputs))]

    def input_at(self, frame: int) -> Dict[int, bool]:
        return self.inputs[frame] if frame < len(self.inputs) else {}

    def states(self, model: Model) -> List[Dict[int, bool]]:
        """Replay the trace; return the latch valuation at every frame 0..depth."""
        state = dict(self.initial_state)
        for latch in model.latches:
            state.setdefault(latch.var, False)
        result = [dict(state)]
        for frame in range(self.depth):
            state = model.next_state(state, self.input_at(frame))
            result.append(dict(state))
        return result

    def check(self, model: Model) -> bool:
        """Return ``True`` when the trace is a genuine counterexample.

        The trace must start in a legal initial state, respect the model's
        invariant constraints at every frame and assert the bad literal at
        frame ``depth``.  Each frame is one :func:`simulate_comb` call: the
        constraints, the next state and, at the last frame, the bad literal
        are all read from its value map.
        """
        for latch in model.latches:
            if latch.init is None:
                continue
            if self.initial_state.get(latch.var, False) != bool(latch.init):
                return False
        aig = model.aig
        latches = aig.latches
        input_vars = aig.input_vars()
        constraints = aig.constraints
        state = {latch.var: int(bool(self.initial_state.get(latch.var, False)))
                 for latch in latches}
        for frame in range(self.depth + 1):
            inputs = self.input_at(frame)
            values = simulate_comb(
                aig, {var: int(bool(inputs.get(var, False)))
                      for var in input_vars}, state)
            if not all(lit_value(values, c) for c in constraints):
                return False
            state = {latch.var: lit_value(values, latch.next)
                     for latch in latches}
        return bool(lit_value(values, model.bad_literal))

    def __len__(self) -> int:
        return self.depth + 1
