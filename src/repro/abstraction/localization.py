"""Localization abstraction: turning latches into free cut-point inputs.

The Counterexample-Based Abstraction scheme of Section V starts from a
coarse abstract model T_A in which most latches have been replaced by fresh
primary inputs (their value every cycle is chosen non-deterministically by
the SAT solver), and re-introduces latches only when a spurious abstract
counterexample demonstrates they matter.

Because removing a latch's next-state constraint only *adds* behaviours,
the abstract model over-approximates the concrete one: any property proved
on T_A holds on T, while counterexamples must be validated (EXTEND) before
being believed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..aig.aig import Aig, lit_from_var, lit_var
from ..aig.model import Model
from ..aig.ops import LiteralMapper

__all__ = ["LocalizationAbstraction", "property_support_latches"]


def property_support_latches(model: Model) -> Set[int]:
    """Latch variables in the *combinational* support of the property cone."""
    _, latches = model.aig.support([model.bad_literal] + model.constraints)
    return set(latches)


class LocalizationAbstraction:
    """An abstract model where only ``visible`` latches keep their definitions.

    Attributes
    ----------
    abstract_model:
        The abstracted :class:`Model`.
    latch_map:
        concrete latch variable -> abstract latch variable (visible latches).
    pseudo_input_map:
        concrete latch variable -> abstract input variable (invisible latches).
    input_map:
        concrete input variable -> abstract input variable.
    """

    def __init__(self, concrete: Model, visible: Iterable[int]) -> None:
        self.concrete = concrete
        self.visible: Set[int] = {v for v in visible
                                  if v in set(concrete.latch_vars)}
        (self.abstract_model, self.latch_map, self.pseudo_input_map,
         self.input_map) = self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self):
        src = self.concrete.aig
        dst = Aig(f"{src.name}_abs{len(self.visible)}")
        leaf_map: Dict[int, int] = {}
        input_map: Dict[int, int] = {}
        latch_map: Dict[int, int] = {}
        pseudo_map: Dict[int, int] = {}

        for var in self.concrete.input_vars:
            lit = dst.add_input(src.input_name(var))
            leaf_map[var] = lit
            input_map[var] = lit_var(lit)

        visible_latches = [l for l in self.concrete.latches if l.var in self.visible]
        invisible_latches = [l for l in self.concrete.latches
                             if l.var not in self.visible]
        for latch in visible_latches:
            lit = dst.add_latch(init=latch.init, name=latch.name)
            leaf_map[latch.var] = lit
            latch_map[latch.var] = lit_var(lit)
        for latch in invisible_latches:
            lit = dst.add_input(name=f"abs_{latch.name or latch.var}")
            leaf_map[latch.var] = lit
            pseudo_map[latch.var] = lit_var(lit)

        mapper = LiteralMapper(src, dst, leaf_map)
        for latch in visible_latches:
            dst.set_latch_next(leaf_map[latch.var], mapper.copy_lit(latch.next))
        dst.add_bad(mapper.copy_lit(self.concrete.bad_literal),
                    self.concrete.aig.bad_name(self.concrete.property_index))
        for constraint in self.concrete.constraints:
            dst.add_constraint(mapper.copy_lit(constraint))

        abstract = Model(dst, property_index=0,
                         name=f"{self.concrete.name}_abs")
        return abstract, latch_map, pseudo_map, input_map

    # ------------------------------------------------------------------ #
    # Queries and refinement
    # ------------------------------------------------------------------ #
    @property
    def num_visible(self) -> int:
        return len(self.visible)

    @property
    def num_invisible(self) -> int:
        return self.concrete.num_latches - len(self.visible)

    def invisible_latches(self) -> Set[int]:
        return set(self.concrete.latch_vars) - self.visible

    def is_total(self) -> bool:
        """``True`` when every latch is visible (abstraction = concrete model)."""
        return not self.invisible_latches()

    def abstract_latch_literal(self, concrete_latch_var: int) -> int:
        """AIG literal (in the abstract AIG) of a visible latch."""
        return lit_from_var(self.latch_map[concrete_latch_var])

    def concrete_latch_of_abstract(self) -> Dict[int, int]:
        """Inverse map: abstract latch variable -> concrete latch variable."""
        return {abs_var: conc_var for conc_var, abs_var in self.latch_map.items()}

    def refine(self, additional: Iterable[int]) -> "LocalizationAbstraction":
        """Return a new abstraction with more visible latches."""
        extra = {v for v in additional if v in set(self.concrete.latch_vars)}
        if not extra - self.visible:
            raise ValueError("refinement must add at least one new latch")
        return LocalizationAbstraction(self.concrete, self.visible | extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"LocalizationAbstraction(visible={len(self.visible)}/"
                f"{self.concrete.num_latches})")
