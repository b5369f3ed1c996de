"""Sequential verification model: an AIG plus one selected safety property.

The UMC and BMC engines operate on :class:`Model` objects rather than raw
AIGs.  A model fixes

* which *bad* literal is being checked (``property_index``);
* the set of state variables (latches) and their initial values;
* optional invariant constraints.

The class also provides the state-cube utilities shared by the engines:
converting SAT assignments over a time frame into latch-valued state cubes,
evaluating the property on a concrete state, and enumerating initial states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .aig import Aig, Latch, lit_negate
from .ops import coi_reduce
from .simulate import SequentialSimulator, lit_value, simulate_comb

__all__ = ["Model", "StateCube"]


@dataclass(frozen=True)
class StateCube:
    """A (partial) assignment to the latch variables of a model.

    ``values`` maps latch variable -> bool.  Missing latches are unconstrained.
    """

    values: Tuple[Tuple[int, bool], ...]

    @staticmethod
    def from_dict(values: Mapping[int, bool]) -> "StateCube":
        return StateCube(tuple(sorted(values.items())))

    def as_dict(self) -> Dict[int, bool]:
        return dict(self.values)

    def __len__(self) -> int:
        return len(self.values)

class Model:
    """An AIG together with one safety property under verification."""

    def __init__(self, aig: Aig, property_index: int = 0,
                 name: Optional[str] = None) -> None:
        if not aig.bad:
            raise ValueError("model requires an AIG with at least one bad literal")
        if not 0 <= property_index < len(aig.bad):
            raise IndexError(f"property index {property_index} out of range")
        self.aig = aig
        self.property_index = property_index
        self.name = name or f"{aig.name}#{property_index}"

    # ------------------------------------------------------------------ #
    # Basic views
    # ------------------------------------------------------------------ #
    @property
    def bad_literal(self) -> int:
        """The literal that is true in a *bad* (property-violating) state."""
        return self.aig.bad[self.property_index]

    @property
    def property_literal(self) -> int:
        """The invariant property ``p = !bad``."""
        return lit_negate(self.bad_literal)

    @property
    def latches(self) -> List[Latch]:
        return self.aig.latches

    @property
    def latch_vars(self) -> List[int]:
        return self.aig.latch_vars()

    @property
    def input_vars(self) -> List[int]:
        return self.aig.input_vars()

    @property
    def constraints(self) -> List[int]:
        return self.aig.constraints

    @property
    def num_latches(self) -> int:
        return self.aig.num_latches

    @property
    def num_inputs(self) -> int:
        return self.aig.num_inputs

    def stats(self) -> Dict[str, int]:
        return self.aig.stats()

    # ------------------------------------------------------------------ #
    # Initial state handling
    # ------------------------------------------------------------------ #
    def initial_cube(self) -> StateCube:
        """Return the initial-state cube (uninitialised latches are free)."""
        values = {latch.var: bool(latch.init)
                  for latch in self.latches if latch.init is not None}
        return StateCube.from_dict(values)

    def initial_state(self) -> Dict[int, bool]:
        """Return one concrete initial state (free latches forced to 0)."""
        return {latch.var: bool(latch.init) if latch.init is not None else False
                for latch in self.latches}

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #
    def is_bad_state(self, state: Mapping[int, bool],
                     inputs: Optional[Mapping[int, bool]] = None) -> bool:
        """Evaluate whether ``state`` can expose the bad literal.

        The bad literal may depend combinationally on primary inputs; when
        ``inputs`` is omitted they default to 0.
        """
        input_values = {var: int(bool((inputs or {}).get(var, False)))
                        for var in self.input_vars}
        state_values = {var: int(bool(val)) for var, val in state.items()}
        values = simulate_comb(self.aig, input_values, state_values, width=1)
        return bool(lit_value(values, self.bad_literal, width=1))

    def constraints_hold(self, state: Mapping[int, bool],
                         inputs: Optional[Mapping[int, bool]] = None) -> bool:
        """Evaluate the invariant constraints on a concrete state/input pair."""
        if not self.constraints:
            return True
        input_values = {var: int(bool((inputs or {}).get(var, False)))
                        for var in self.input_vars}
        state_values = {var: int(bool(val)) for var, val in state.items()}
        values = simulate_comb(self.aig, input_values, state_values, width=1)
        return all(bool(lit_value(values, c, width=1)) for c in self.constraints)

    def next_state(self, state: Mapping[int, bool],
                   inputs: Mapping[int, bool]) -> Dict[int, bool]:
        """Compute the successor state for concrete state and input values."""
        input_values = {var: int(bool(inputs.get(var, False))) for var in self.input_vars}
        state_values = {var: int(bool(state.get(var, False))) for var in self.latch_vars}
        values = simulate_comb(self.aig, input_values, state_values, width=1)
        return {latch.var: bool(lit_value(values, latch.next, width=1))
                for latch in self.latches}

    def simulator(self) -> SequentialSimulator:
        """Return a fresh cycle-accurate simulator for this model's AIG."""
        return SequentialSimulator(self.aig)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def reduced(self) -> "Model":
        """Return a cone-of-influence-reduced copy of the model."""
        reduced_aig, _, _ = coi_reduce(self.aig, self.property_index)
        return Model(reduced_aig, property_index=0, name=f"{self.name}_coi")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        s = self.stats()
        return (f"Model(name={self.name!r}, inputs={s['inputs']}, "
                f"latches={s['latches']}, ands={s['ands']})")
