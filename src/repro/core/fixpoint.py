"""Persistent incremental containment checking for the fixpoint tests.

Every interpolation engine repeatedly asks, once per traversal iteration,
whether the freshly extracted interpolant (or matrix column) is contained
in the accumulated reachable-set over-approximation R:

    I ⇒ R_{j-1}        i.e.        I ∧ ¬R_{j-1} unsatisfiable.

R only ever grows by disjunction — R_j = R_{j-1} ∨ I_j is one OR node over
the previous R and the new interpolant.  A one-shot check (the reference
:func:`repro.core.base.implies`) re-Tseitin-encodes the *entire*
accumulated cone into a fresh solver at every iteration, which makes the
check sequence quadratic in total encoded clauses.

:class:`FixpointChecker` is the engines' only containment path and makes
the sequence linear: one incremental
:class:`~repro.sat.solver.CdclSolver` per engine run, with one persistent
:class:`~repro.cnf.tseitin.TseitinEncoder` over the engine's AIG.  Each
check encodes only the gates the encoder has not seen before — for the
j-th fixpoint test that is the new interpolant's cone plus the single OR
gate extending R — and asks the containment question *under assumptions*
(the antecedent's literal and the negated consequent's literal), so
nothing ever has to be retracted between checks.  Learned clauses, VSIDS
activities and saved phases persist across the whole accumulation, exactly
like the engines' incremental counterexample search.

Each check's freshly emitted Tseitin clauses are registered under
activation-literal clause groups
(:meth:`~repro.sat.solver.CdclSolver.new_group`) — one for the antecedent
side, one for the consequent side, since their cones have independent
lifetimes — and the live groups are assumed on every solve.  Definitional
clauses are globally consistent, so the grouping is not needed for
soundness: it keeps every cone's encoding *retractable*.  That is what
:meth:`FixpointChecker.shed_superseded` exploits — the sequence engines'
column strengthening (``columns[j] = columns[j] ∧ element``) makes each
column's *previous* cone encoding unreachable from every future check, yet
its clauses would otherwise ride along as assumptions forever.  Shedding
releases every group none of the caller's live roots observes and tells
the encoder to :meth:`~repro.cnf.tseitin.TseitinEncoder.forget` exactly
the gates that group owned, the same way the PDR frame sequence sheds
subsumed frame clauses.

Two invariants keep shedding sound.  *Leaves are never group-owned*: leaf
CNF variables emit no clauses and live for the whole run, so cones encoded
before and after a shed still meet on the same leaf valuation.  *The
constant node is encoded eagerly at construction*: its pinning unit clause
must be permanent, not owned by whichever check happens to reference the
constant first.  Live cones never reference a shed gate's CNF variable —
a live gate's whole fanin cone is live by definition, so every group
containing one of its fanins is kept; clauses of *dead* gates inside kept
groups are conservative definitional extensions and cannot flip a verdict.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..aig.aig import Aig
from ..cnf.tseitin import TseitinEncoder
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult

__all__ = ["FixpointChecker"]


class FixpointChecker:
    """One persistent containment-check solver for an engine run.

    Parameters
    ----------
    aig:
        The AIG both sides of every containment check live in (the
        engine's private copy, which also receives the interpolant cones).
        The checker encodes cones on demand, so the AIG may keep growing
        between checks.
    """

    def __init__(self, aig: Aig) -> None:
        self.aig = aig
        self.solver = CdclSolver()
        self._encoder = TseitinEncoder(aig, self.solver.new_var,
                                       self._sink, allocate_leaves=True)
        self._encoder.on_gate = self._on_gate
        self._groups: List[int] = []
        #: group id -> the AND variables whose definitional clauses it owns
        #: (leaves are never group-owned; see the module docstring).
        self._group_vars: Dict[int, List[int]] = {}
        self._group: Optional[int] = None
        self._group_used = False
        #: Cumulative count of cached AND gates the checks read directly:
        #: the fanins their new gates share with earlier encodings, plus
        #: fully cached roots (see :meth:`_count_reused`).
        self.encodings_reused = 0
        #: Number of containment checks answered.
        self.checks = 0
        #: Clause groups released by :meth:`shed_superseded`.
        self.groups_shed = 0
        # Pin the constant node *permanently* (outside any group): a check
        # that merely referenced it would otherwise own its unit clause and
        # shedding that check's group would unpin the constant under every
        # later solve.
        self._encoder.literal(0)

    def _sink(self, batch) -> None:
        self._group_used = True
        self.solver.add_cnf(batch, group=self._group)

    def _on_gate(self, aig_var: int) -> None:
        if self._group is not None:
            self._group_vars[self._group].append(aig_var)

    def implies(self, antecedent: int, consequent: int,
                budget: Optional[Budget] = None) -> SatResult:
        """Encode what is new, then decide ``antecedent ⇒ consequent``.

        Returns :data:`SatResult.UNSAT` when the implication holds,
        :data:`SatResult.SAT` when it does not, and
        :data:`SatResult.UNKNOWN` on budget exhaustion — the caller owns
        the budget policy, mirroring :meth:`CdclSolver.solve`.
        """
        # Antecedent and consequent cones go into separate groups: the two
        # sides have independent lifetimes (a strengthened column's old
        # encoding dies while the R side it was checked against lives on),
        # and shedding is per-group.
        groups_before = len(self._groups)
        a_lit = self._encode_grouped(antecedent)
        c_lit = self._encode_grouped(consequent)
        self.encodings_reused += self._count_reused(
            (antecedent, consequent), self._groups[groups_before:])
        assumptions = list(self._groups) + [a_lit, -c_lit]
        result = self.solver.solve(assumptions=assumptions, budget=budget)
        self.checks += 1
        return result

    def _count_reused(self, roots, new_groups: List[int]) -> int:
        """The AND gates one check read from the cache, in O(new gates):
        the distinct AND fanins of the gates it newly encoded that were
        encoded before it, plus an AND root that was cached outright."""
        new = {var for group in new_groups for var in self._group_vars[group]}
        gates = self.aig.gate_table()
        reused = {lit >> 1 for lit in roots}
        for var in new:
            gate = gates[var]
            reused.add(gate.left >> 1)
            reused.add(gate.right >> 1)
        return sum(1 for var in reused if var in gates and var not in new)

    def _encode_grouped(self, root: int) -> int:
        """Encode one root's missing cone clauses under a fresh group."""
        group = self.solver.new_group()
        self._group, self._group_used = group, False
        self._group_vars[group] = []
        try:
            lit = self._encoder.literal(root)
        finally:
            self._group = None
        if self._group_used:
            self._groups.append(group)
        else:
            # Nothing new was encoded: drop the unused group rather than
            # carrying a dead assumption literal forever.
            self.solver.release_group(group)
            del self._group_vars[group]
        return lit

    def shed_superseded(self, live_roots: Iterable[int]) -> int:
        """Release every clause group no live root's cone observes.

        ``live_roots`` are the AIG literals any *future* check may mention
        (for the sequence engines: the initial-state predicate, the current
        columns and the matrix elements still in play).  A group whose
        owned gates all fall outside the union of the live fanin cones can
        never serve a future check — its clauses are deactivated and its
        gates forgotten, so the solver stops carrying (and assuming) the
        superseded column encodings that strengthening left behind.
        Returns the number of groups shed.
        """
        live = set(self.aig.fanin_cone(list(live_roots)))
        kept: List[int] = []
        shed = 0
        for group in self._groups:
            owned = self._group_vars[group]
            if any(var in live for var in owned):
                kept.append(group)
                continue
            self.solver.release_group(group)
            self._encoder.forget(owned)
            del self._group_vars[group]
            shed += 1
        self._groups = kept
        self.groups_shed += shed
        return shed
