"""BDD-based reachability, circuit diameters and exact verification.

This module supplies the *BDDs* columns of Table I:

* ``d_F`` — the forward diameter referred to the initial states: the number
  of image steps after which no new state is discovered (the largest
  shortest distance from S₀ to any reachable state);
* ``d_B`` — the backward diameter referred to the target (bad) states,
  computed with pre-images from ¬p;
* the exact PASS/FAIL verdict, used by the harness and the test-suite as
  the ground truth the SAT-based engines are compared against.

Transition functions, initial states and the bad predicate are translated
from the AIG into BDDs over an interleaved current/next variable order.
Image computation uses the monolithic transition relation with an
``and_exists`` relational product — perfectly adequate for the benchmark
sizes used in this reproduction (tens of latches).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..aig.aig import lit_sign, lit_var
from ..aig.model import Model
from .bdd import BddError, BddManager

__all__ = ["BddReachability", "ReachabilityResult", "DiameterReport"]


@dataclass
class ReachabilityResult:
    """Outcome of one fixed-point traversal."""

    #: "pass", "fail" or "overflow"
    status: str
    #: Number of image steps until the frontier became empty.
    diameter: Optional[int] = None
    #: Step at which a bad state was first reached (for failures).
    failure_depth: Optional[int] = None
    #: Number of reachable states (forward traversals only).
    num_states: Optional[int] = None
    #: Peak BDD node count observed during the traversal.
    peak_nodes: int = 0
    time_seconds: float = 0.0


@dataclass
class DiameterReport:
    """Forward + backward traversal summary (one Table I 'BDDs' cell group)."""

    forward: ReachabilityResult
    backward: ReachabilityResult

    @property
    def d_f(self) -> Optional[int]:
        return self.forward.diameter

    @property
    def d_b(self) -> Optional[int]:
        return self.backward.diameter

    @property
    def verdict(self) -> str:
        if self.forward.status == "fail" or self.backward.status == "fail":
            return "fail"
        if self.forward.status == "pass" or self.backward.status == "pass":
            return "pass"
        return "overflow"


class BddReachability:
    """Exact symbolic reachability for a :class:`Model`."""

    def __init__(self, model: Model, max_nodes: Optional[int] = 500_000,
                 time_limit: Optional[float] = None) -> None:
        self.model = model
        self.manager = BddManager(max_nodes=max_nodes)
        self.time_limit = time_limit
        self._build_variables()
        self._build_functions()

    # ------------------------------------------------------------------ #
    # Circuit translation
    # ------------------------------------------------------------------ #
    def _build_variables(self) -> None:
        manager = self.manager
        self.current_level: Dict[int, int] = {}
        self.next_level: Dict[int, int] = {}
        self.input_level: Dict[int, int] = {}
        # Interleave current/next state variables, then the inputs.
        for latch in self.model.latches:
            current = manager.new_var()
            nxt = manager.new_var()
            self.current_level[latch.var] = manager.level_of(current)
            self.next_level[latch.var] = manager.level_of(nxt)
        for input_var in self.model.input_vars:
            node = manager.new_var()
            self.input_level[input_var] = manager.level_of(node)

    def _node_for_leaf(self, aig_var: int) -> int:
        manager = self.manager
        if aig_var in self.current_level:
            return manager.var_bdd(self.current_level[aig_var])
        if aig_var in self.input_level:
            return manager.var_bdd(self.input_level[aig_var])
        raise BddError(f"AIG variable {aig_var} is not a latch or input")

    def _bdd_of_literal(self, lit: int, cache: Dict[int, int]) -> int:
        manager = self.manager
        aig = self.model.aig
        var = lit_var(lit)
        if var == 0:
            node = manager.FALSE
        elif var in cache:
            node = cache[var]
        else:
            # Iterative topological construction over the AND cone.
            order = [v for v in aig.fanin_cone([lit]) if aig.is_and(v)]
            for and_var in order:
                if and_var in cache:
                    continue
                gate = aig.and_gate(and_var)
                left = self._operand(gate.left, cache)
                right = self._operand(gate.right, cache)
                cache[and_var] = manager.bdd_and(left, right)
            node = cache.get(var) if aig.is_and(var) else self._node_for_leaf(var)
            if node is None:  # pragma: no cover - defensive
                raise BddError(f"failed to build BDD for AIG variable {var}")
            cache[var] = node
        return manager.bdd_not(node) if lit_sign(lit) else node

    def _operand(self, lit: int, cache: Dict[int, int]) -> int:
        manager = self.manager
        var = lit_var(lit)
        if var == 0:
            node = manager.FALSE
        elif var in cache:
            node = cache[var]
        else:
            node = self._node_for_leaf(var)
            cache[var] = node
        return manager.bdd_not(node) if lit_sign(lit) else node

    def _build_functions(self) -> None:
        manager = self.manager
        cache: Dict[int, int] = {}
        # Next-state functions and the monolithic transition relation.
        relation = manager.TRUE
        for latch in self.model.latches:
            function = self._bdd_of_literal(latch.next, cache)
            next_var = manager.var_bdd(self.next_level[latch.var])
            equivalence = manager.bdd_not(manager.bdd_xor(next_var, function))
            relation = manager.bdd_and(relation, equivalence)
        # Invariant constraints restrict the transition relation's source states.
        for constraint in self.model.constraints:
            relation = manager.bdd_and(relation, self._bdd_of_literal(constraint, cache))
        self.transition_relation = relation
        self.bad_bdd = self._bdd_of_literal(self.model.bad_literal, cache)
        for constraint in self.model.constraints:
            self.bad_bdd = manager.bdd_and(self.bad_bdd,
                                           self._bdd_of_literal(constraint, cache))
        # Initial states.
        init = manager.TRUE
        for latch in self.model.latches:
            if latch.init is None:
                continue
            var_bdd = manager.var_bdd(self.current_level[latch.var])
            init = manager.bdd_and(init,
                                   var_bdd if latch.init else manager.bdd_not(var_bdd))
        self.initial_bdd = init
        # Bad states as a predicate over current state only (inputs abstracted
        # existentially: a state is bad if *some* input exposes the failure).
        self.bad_states = manager.exists(self.input_level.values(), self.bad_bdd)

    # ------------------------------------------------------------------ #
    # Image operators
    # ------------------------------------------------------------------ #
    def image(self, states: int) -> int:
        """Post-image: states reachable in one step from ``states``."""
        manager = self.manager
        quantified = list(self.current_level.values()) + list(self.input_level.values())
        product = manager.and_exists(states, self.transition_relation, quantified)
        renaming = {self.next_level[v]: self.current_level[v]
                    for v in self.current_level}
        return manager.rename(product, renaming)

    def pre_image(self, states: int) -> int:
        """Pre-image: states that can reach ``states`` in one step."""
        manager = self.manager
        renamed = manager.rename(
            states, {self.current_level[v]: self.next_level[v]
                     for v in self.current_level})
        quantified = list(self.next_level.values()) + list(self.input_level.values())
        return manager.and_exists(renamed, self.transition_relation, quantified)

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #
    def forward_reachability(self) -> ReachabilityResult:
        """Forward fixed point from S₀, checking the property along the way."""
        return self._traverse(start=self.initial_bdd, target=self.bad_states,
                              step=self.image, count_states=True)

    def backward_reachability(self) -> ReachabilityResult:
        """Backward fixed point from the bad states, checking S₀ along the way."""
        return self._traverse(start=self.bad_states, target=self.initial_bdd,
                              step=self.pre_image, count_states=False)

    def _traverse(self, start: int, target: int, step, count_states: bool
                  ) -> ReachabilityResult:
        manager = self.manager
        began = time.monotonic()
        result = ReachabilityResult(status="pass")
        try:
            reached = start
            frontier = start
            depth = 0
            if manager.bdd_and(start, target) != manager.FALSE:
                result.status = "fail"
                result.failure_depth = 0
            else:
                while frontier != manager.FALSE:
                    if self.time_limit is not None and \
                            time.monotonic() - began > self.time_limit:
                        result.status = "overflow"
                        break
                    new_states = step(frontier)
                    frontier = manager.bdd_and(new_states, manager.bdd_not(reached))
                    if frontier == manager.FALSE:
                        break
                    depth += 1
                    reached = manager.bdd_or(reached, frontier)
                    result.peak_nodes = max(result.peak_nodes, manager.num_nodes)
                    if manager.bdd_and(frontier, target) != manager.FALSE:
                        result.status = "fail"
                        result.failure_depth = depth
                        break
                result.diameter = depth
            if count_states and result.status != "overflow":
                # ``reached`` depends on current-state levels only, so the count
                # over all manager variables over-counts by a factor of 2 for
                # every other variable.
                total = manager.count_solutions(reached)
                result.num_states = total >> (manager.num_vars
                                              - len(self.current_level))
        except BddError:
            result.status = "overflow"
        result.time_seconds = time.monotonic() - began
        result.peak_nodes = max(result.peak_nodes, manager.num_nodes)
        return result

    def diameters(self) -> DiameterReport:
        """Run both traversals and package the Table I 'BDDs' columns."""
        return DiameterReport(forward=self.forward_reachability(),
                              backward=self.backward_reachability())
