"""Structural operations on AIGs.

This module hosts the transformations used by the model-checking engines:

* cone-of-influence (COI) reduction with respect to a property literal;
* literal copying between AIGs (the primitive behind COI reduction,
  localization abstraction and interpolant import);
* simple structural statistics (levels, cone sizes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .aig import FALSE, Aig, lit_var

__all__ = [
    "copy_cone",
    "LiteralMapper",
    "cone_of_influence",
    "coi_reduce",
    "structural_levels",
    "cone_gates",
    "cone_size",
]


class LiteralMapper:
    """Incrementally copies literals from a source AIG into a destination AIG.

    The mapper memoises already-copied nodes, so repeated calls share
    structure in the destination.  Leaves (inputs and latches) must be
    pre-seeded through ``map_leaf`` or the ``leaf_map`` constructor argument;
    unseeded leaves raise ``KeyError`` so silent mis-wiring cannot happen.

    ``redirects`` maps source AND variables to *source* literals they should
    be replaced by: whenever a redirected variable is reached — as a copy
    root or inside a cone — the mapper copies the target literal's cone
    instead and records the result, so the variable's own gate (and any
    subcone only it observes) never enters the destination.  This is the
    substitution primitive behind fraiging: each SAT-proven equivalent node
    redirects to its class representative (possibly complemented, possibly
    a constant), and every observed cone is rewritten over representatives
    in one pass.  Redirect targets must be topologically no later than the
    redirected variable (fraig representatives are the earliest member of
    their class), which rules out cycles.
    """

    def __init__(
        self,
        src: Aig,
        dst: Aig,
        leaf_map: Optional[Mapping[int, int]] = None,
        redirects: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        #: variable in ``src`` -> literal in ``dst``
        self._var_map: Dict[int, int] = {0: FALSE}
        #: variable in ``src`` -> replacement literal in ``src``
        self._redirects: Dict[int, int] = dict(redirects or {})
        if leaf_map:
            for var, lit in leaf_map.items():
                self._var_map[var] = lit

    def map_leaf(self, src_var: int, dst_lit: int) -> None:
        """Declare how a source input/latch variable maps into the destination."""
        self._var_map[src_var] = dst_lit

    def copy_lit(self, lit: int) -> int:
        """Copy (recursively) a source literal; return the destination literal."""
        mapped = self._copy_var(lit >> 1)
        return mapped ^ 1 if lit & 1 else mapped

    def _copy_var(self, var: int) -> int:
        var_map = self._var_map
        cached = var_map.get(var)
        if cached is not None:
            return cached
        redirects = self._redirects
        gates = self.src.gate_table()
        if var not in redirects and var not in gates:
            self._missing_leaf(var)
        # Iterative post-order copy to avoid recursion limits on deep cones.
        add_and = self.dst.add_and
        stack = [var]
        while stack:
            v = stack[-1]
            if v in var_map:
                stack.pop()
                continue
            redirect = redirects.get(v)
            if redirect is not None:
                target = var_map.get(redirect >> 1)
                if target is not None:
                    var_map[v] = target ^ 1 if redirect & 1 else target
                    stack.pop()
                else:
                    target_var = redirect >> 1
                    if target_var not in redirects and target_var not in gates:
                        self._missing_leaf(target_var,
                                           "redirect target variable")
                    stack.append(target_var)
                continue
            gate = gates[v]
            left, right = gate.left, gate.right
            mapped_left = var_map.get(left >> 1)
            mapped_right = var_map.get(right >> 1)
            if mapped_left is None or mapped_right is None:
                # Right fanin pushed last, so it is copied first.
                for u in (left >> 1, right >> 1):
                    if u not in var_map:
                        if u not in redirects and u not in gates:
                            self._missing_leaf(u)
                        stack.append(u)
                continue
            # An uncomplemented fanin passes its mapped int object on
            # unchanged (``x ^ 0`` would allocate a copy the gate keeps).
            var_map[v] = add_and(
                mapped_left ^ 1 if left & 1 else mapped_left,
                mapped_right ^ 1 if right & 1 else mapped_right)
            stack.pop()
        return var_map[var]

    def _missing_leaf(self, var: int, what: str = "leaf variable") -> None:
        raise KeyError(f"{what} {var} ({self.src.node_kind(var)}) has no "
                       "mapping into the destination AIG")


def copy_cone(
    src: Aig,
    dst: Aig,
    roots: Sequence[int],
    leaf_map: Mapping[int, int],
) -> List[int]:
    """Copy the combinational cones of ``roots`` from ``src`` into ``dst``.

    ``leaf_map`` maps source input/latch variables to destination literals.
    Returns the destination literals corresponding to ``roots``.
    """
    mapper = LiteralMapper(src, dst, leaf_map)
    return [mapper.copy_lit(root) for root in roots]


def cone_of_influence(aig: Aig, roots: Iterable[int]) -> Tuple[Set[int], Set[int]]:
    """Return ``(input_vars, latch_vars)`` in the *sequential* cone of ``roots``.

    Unlike :meth:`Aig.support`, latch next-state functions are followed
    transitively, so the result is the set of state variables that can ever
    influence the root literals.  One walk with one visited set covers the
    roots and every next-state function it reaches, so each node is
    visited once.
    """
    gates = aig.gate_table()
    inputs: Set[int] = set()
    latches: Set[int] = set()
    visited: Set[int] = {0}
    stack = [lit >> 1 for lit in roots]
    while stack:
        var = stack.pop()
        if var in visited:
            continue
        visited.add(var)
        gate = gates.get(var)
        if gate is not None:
            stack.append(gate.left >> 1)
            stack.append(gate.right >> 1)
        elif aig.is_latch(var):
            latches.add(var)
            stack.append(aig.latch(var).next >> 1)
        elif aig.is_input(var):
            inputs.add(var)
        else:
            raise KeyError(f"unknown variable {var}")
    return inputs, latches


def coi_reduce(aig: Aig, bad_index: int = 0) -> Tuple[Aig, Dict[int, int], Dict[int, int]]:
    """Build a new AIG containing only the sequential cone of one bad literal.

    Returns the reduced AIG, a mapping ``old latch var -> new latch var`` and
    a mapping ``old input var -> new input var``.  Inputs and latches outside
    the cone are dropped; the single bad literal of the result is the copied
    property.
    """
    if not aig.bad:
        raise ValueError("AIG has no bad literal to reduce against")
    bad_lit = aig.bad[bad_index]
    roots = [bad_lit] + aig.constraints
    input_vars, latch_vars = cone_of_influence(aig, roots)

    reduced = Aig(f"{aig.name}_coi")
    leaf_map: Dict[int, int] = {}
    latch_map: Dict[int, int] = {}
    input_map: Dict[int, int] = {}
    for var in aig.input_vars():
        if var in input_vars:
            new_lit = reduced.add_input(aig.input_name(var))
            leaf_map[var] = new_lit
            input_map[var] = lit_var(new_lit)
    kept_latches = [latch for latch in aig.latches if latch.var in latch_vars]
    for latch in kept_latches:
        new_lit = reduced.add_latch(init=latch.init, name=latch.name)
        leaf_map[latch.var] = new_lit
        latch_map[latch.var] = lit_var(new_lit)

    mapper = LiteralMapper(aig, reduced, leaf_map)
    for latch in kept_latches:
        reduced.set_latch_next(leaf_map[latch.var], mapper.copy_lit(latch.next))
    reduced.add_bad(mapper.copy_lit(bad_lit), aig.bad_name(bad_index))
    for constraint in aig.constraints:
        reduced.add_constraint(mapper.copy_lit(constraint))
    return reduced, latch_map, input_map


def structural_levels(aig: Aig) -> Dict[int, int]:
    """Return the logic level (longest path from a leaf) of every variable."""
    levels: Dict[int, int] = {0: 0}
    for var in aig.input_vars():
        levels[var] = 0
    for latch in aig.latches:
        levels[latch.var] = 0
    for gate in aig.iter_and_gates():
        levels[gate.var] = 1 + max(levels[lit_var(gate.left)], levels[lit_var(gate.right)])
    return levels


def cone_gates(aig: Aig, roots: Iterable[int]) -> Set[int]:
    """The AND variables in the combinational cones of ``roots``: one walk
    of the gate table, in no particular order."""
    gates = aig.gate_table()
    seen: Set[int] = set()
    stack = [lit >> 1 for lit in roots]
    while stack:
        var = stack.pop()
        if var in seen:
            continue
        gate = gates.get(var)
        if gate is not None:
            seen.add(var)
            stack.append(gate.left >> 1)
            stack.append(gate.right >> 1)
    return seen


def cone_size(aig: Aig, root: int) -> int:
    """Number of AND gates in the combinational cone of a literal."""
    return len(cone_gates(aig, [root]))
