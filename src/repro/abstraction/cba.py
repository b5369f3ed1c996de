"""Counterexample-Based Abstraction: the EXTEND and REFINE operations.

Given an abstract counterexample produced on a localization-abstracted
model, :func:`extend_counterexample` decides whether it concretises:

* the concrete model is unrolled to the same depth (exact-k);
* the abstract trace's values for the *real* primary inputs and for the
  *pseudo* inputs (the invisible latches) are passed as **assumptions**.

A satisfiable answer yields a genuine concrete counterexample.  An
unsatisfiable one proves the abstract trace spurious, and the
invisible-latch assumptions in the solver's final conflict point at the
values the concrete transition relation contradicts — those latches are
the refinement candidates (REFINE), in the spirit of the single-instance
SAT formulation of Eén, Mishchenko & Amla cited by the paper.  The final
conflict may also implicate pinned *input* literals; those carry no
refinement information and are filtered out, and if the conflict consists
of inputs alone, :func:`choose_refinement` falls back to its structural
heuristic (which still guarantees progress).

Because *everything* trace-specific is an assumption, the concrete
unrolling itself is reusable: callers may pass a persistent
:class:`~repro.bmc.incremental.IncrementalUnroller` (exact-mode, over the
concrete model) and every EXTEND query of a whole verification run — often
several per bound, across all bounds — then shares one solver, one
encoding of each time frame and one learned-clause database.  Without a
searcher each call builds a throwaway exact-k check, re-encoding the
unrolling from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..aig.model import Model
from ..bmc.cex import Trace
from ..bmc.checks import BmcCheckKind, build_exact_check
from ..bmc.incremental import IncrementalUnroller
from ..sat.solver import CdclSolver
from ..sat.types import SatResult
from .localization import LocalizationAbstraction

__all__ = ["ExtensionOutcome", "extend_counterexample", "choose_refinement"]


@dataclass
class ExtensionOutcome:
    """Result of trying to concretise one abstract counterexample."""

    #: A genuine concrete counterexample, when the extension succeeded.
    concrete_trace: Optional[Trace] = None
    #: Latch variables (concrete) implicated in the spuriousness, by frame.
    conflicting: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_real(self) -> bool:
        return self.concrete_trace is not None


def extend_counterexample(
    concrete: Model,
    abstraction: LocalizationAbstraction,
    abstract_trace: Trace,
    depth: int,
    solve: Optional[Callable[[CdclSolver, Sequence[int]], SatResult]] = None,
    searcher: Optional[IncrementalUnroller] = None,
) -> ExtensionOutcome:
    """EXTEND: check an abstract counterexample on the concrete model.

    Returns an :class:`ExtensionOutcome` carrying either the concrete trace
    or the (frame, latch) pairs whose abstract values the concrete model
    refutes.  ``searcher``, when given, must be an exact-mode
    :class:`~repro.bmc.incremental.IncrementalUnroller` over ``concrete``;
    it is extended to ``depth`` and reused, so repeated EXTEND queries share
    one solver instead of re-encoding the unrolling each time.  ``solve``,
    when given, runs the query as ``solve(solver, assumptions)`` — the
    engine's hook into its SAT accounting and budgets; without it the query
    runs unbudgeted.
    """
    if depth < 1:
        # Depth-0 abstract counterexamples: the concrete initial state either
        # violates the property or it does not; delegate to simulation.
        initial = concrete.initial_state()
        if concrete.is_bad_state(initial, abstract_trace.input_at(0)):
            return ExtensionOutcome(concrete_trace=Trace(
                initial_state=initial, inputs=[abstract_trace.input_at(0)], depth=0))
        return ExtensionOutcome(conflicting=[
            (0, var) for var in abstraction.invisible_latches()])

    if searcher is not None:
        if searcher.model is not concrete or \
                searcher.check_kind is not BmcCheckKind.EXACT:
            raise ValueError("EXTEND needs an exact-mode incremental unroller "
                             "over the concrete model")
        if searcher.depth > depth:
            # The searcher's armed bad target sits at its current depth and
            # cannot be retracted backwards; answering a shallower query on
            # it would silently check the wrong frame.
            raise ValueError(
                f"extension searcher is already at depth {searcher.depth}, "
                f"deeper than the queried depth {depth}")
        searcher.extend_to(depth)
        solver = searcher.solver
        unroller = searcher.unroller
        assumptions: List[int] = searcher.assumptions()
    else:
        solver = CdclSolver(proof_logging=False)
        unroller = build_exact_check(concrete, depth, solver=solver,
                                     proof_logging=False)
        assumptions = []

    # Pin the real primary inputs to the abstract trace's values.  These are
    # assumptions, not unit clauses, so the unrolling stays reusable.
    inverse_inputs = {abs_var: conc_var
                      for conc_var, abs_var in abstraction.input_map.items()}
    for frame in range(depth + 1):
        abstract_inputs = abstract_trace.input_at(frame)
        for abs_var, value in abstract_inputs.items():
            conc_var = inverse_inputs.get(abs_var)
            if conc_var is not None:
                cnf_var = unroller.input_cnf_var(frame, conc_var)
                assumptions.append(cnf_var if value else -cnf_var)

    # Pass the invisible-latch values as assumptions, remembering which
    # assumption literal encodes which (frame, latch) pair.
    assumption_index: Dict[int, Tuple[int, int]] = {}
    for frame in range(depth + 1):
        abstract_inputs = abstract_trace.input_at(frame)
        for conc_latch, pseudo_var in abstraction.pseudo_input_map.items():
            value = abstract_inputs.get(pseudo_var, False)
            cnf_var = unroller.latch_cnf_var(frame, conc_latch)
            literal = cnf_var if value else -cnf_var
            assumptions.append(literal)
            assumption_index[literal] = (frame, conc_latch)

    result = (solve(solver, assumptions) if solve is not None
              else solver.solve(assumptions=assumptions))
    if result is SatResult.UNKNOWN:
        # Treat as spurious with no guidance; the engine will fall back to a
        # structural refinement heuristic.
        return ExtensionOutcome(conflicting=[])
    if result is SatResult.SAT:
        return ExtensionOutcome(concrete_trace=unroller.extract_trace(depth))
    conflicting = [assumption_index[lit] for lit in solver.conflict_assumptions()
                   if lit in assumption_index]
    return ExtensionOutcome(conflicting=conflicting)


def choose_refinement(
    abstraction: LocalizationAbstraction,
    outcome: ExtensionOutcome,
    batch: int,
) -> Set[int]:
    """REFINE: pick which latches to make visible after a spurious extension.

    Preference order:

    1. latches implicated by the assumption conflict, earliest frame first
       (they are the cheapest explanation of the spuriousness);
    2. otherwise, invisible latches in the combinational support of the
       visible logic or of the property cone (structural fallback);
    3. otherwise, any invisible latch (guarantees progress, so the CBA loop
       terminates in at most ``num_latches`` refinements).
    """
    invisible = abstraction.invisible_latches()
    chosen: Set[int] = set()
    for _, latch in sorted(outcome.conflicting):
        if latch in invisible and latch not in chosen:
            chosen.add(latch)
            if len(chosen) >= batch:
                return chosen
    if chosen:
        return chosen

    concrete = abstraction.concrete
    structural_roots = [concrete.bad_literal] + [
        concrete.aig.latch(v).next for v in abstraction.visible]
    _, support_latches = concrete.aig.support(structural_roots)
    for latch in support_latches:
        if latch in invisible:
            chosen.add(latch)
            if len(chosen) >= batch:
                return chosen
    if chosen:
        return chosen
    for latch in sorted(invisible):
        chosen.add(latch)
        if len(chosen) >= batch:
            break
    return chosen
