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

Witness filter
--------------
Most checks answer SAT (not contained), and one satisfying assignment of
the cones' leaves settles such a check.  The checker's own earlier SAT
models are such assignments far more often than not, so before encoding
anything :meth:`FixpointChecker.implies` evaluates both cones on a *pool*
of them — the bit-parallel candidate filtering of SAT sweeping (Kuehlmann
2004; Mishchenko et al., "FRAIGs", 2005) that :mod:`repro.preprocess.fraig`
also uses.

* **The pool** keeps the last :data:`WITNESS_POOL` SAT models as one word
  per leaf AIG variable, bit *i* being witness *i*; a new model replaces
  the oldest slot.  A model is read with ``solver.model_value`` over the
  encoder's leaf variables, and a leaf encoded later reads 0 in every
  older witness.
* **The memo** holds the word of every AIG variable evaluated since the
  last witness was recorded, and is cleared when one is.  Between
  witnesses it stays valid because the AIG is append-only — a variable's
  gate and fanins never change once created — and shedding touches only
  CNF (clause groups and the encoder's map), never the AIG.
* **A hit** is a witness bit set in ``antecedent ∧ ¬consequent``.  The
  words are exact AIG evaluation of a full leaf assignment, and every
  leaf assignment is admissible (the leaves are free), so a hit proves
  the implication fails: the check answers SAT without encoding or
  solving, and its gates are encoded on the next miss that needs them.
  A hit can only say "not contained" — it may delay a fixpoint, never
  produce one; every UNSAT answer still comes from the solver, and every
  SAT answer the solver gives records a witness.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..aig.aig import Aig
from ..aig.ops import cone_gates
from ..cnf.tseitin import TseitinEncoder
from ..sat.solver import CdclSolver
from ..sat.types import Budget, SatResult

__all__ = ["FixpointChecker", "WITNESS_POOL"]

#: SAT models the witness filter keeps (one bit of every pool word each).
WITNESS_POOL = 64


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
        #: Checks the witness filter answered without solving.
        self.witness_hits = 0
        #: The encoder's leaves as (AIG variable, CNF variable) pairs, and
        #: each leaf's pool word (bit i = its value in witness i).
        self._leaves: List[Tuple[int, int]] = []
        self._leaf_words: Dict[int, int] = {}
        #: SAT models recorded so far; slot ``recorded % WITNESS_POOL`` is
        #: the oldest, and ``_mask`` covers the filled slots.
        self._recorded = 0
        self._mask = 0
        #: AIG variable -> pool word, valid until the next witness.
        self._words: Dict[int, int] = {}
        self._encoder.on_leaf = self._on_leaf
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

    def _on_leaf(self, aig_var: int, cnf_var: int) -> None:
        self._leaves.append((aig_var, cnf_var))
        self._leaf_words[aig_var] = 0

    def implies(self, antecedent: int, consequent: int,
                budget: Optional[Budget] = None) -> SatResult:
        """Decide ``antecedent ⇒ consequent`` on the witness pool, or else
        encode what is new and solve.

        Returns :data:`SatResult.UNSAT` when the implication holds,
        :data:`SatResult.SAT` when it does not, and
        :data:`SatResult.UNKNOWN` on budget exhaustion — the caller owns
        the budget policy, mirroring :meth:`CdclSolver.solve`.  A pooled
        witness that refutes the implication answers SAT with no encoding
        and no solve, and counts in :attr:`witness_hits`.
        """
        if self._mask:
            a_word = self._word(antecedent)
            if a_word and a_word & ~self._word(consequent):
                self.checks += 1
                self.witness_hits += 1
                return SatResult.SAT
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
        if result is SatResult.SAT:
            self._record_witness()
        return result

    def _record_witness(self) -> None:
        """Store the solver's model in the pool's oldest slot."""
        bit = 1 << (self._recorded % WITNESS_POOL)
        value = self.solver.model_value
        words = self._leaf_words
        for aig_var, cnf_var in self._leaves:
            word = words[aig_var] & ~bit
            words[aig_var] = word | bit if value(cnf_var) else word
        self._recorded += 1
        self._mask = (1 << min(self._recorded, WITNESS_POOL)) - 1
        self._words = {}

    def _word(self, lit: int) -> int:
        """The pool word of an AIG literal (bit i: its value in witness i),
        evaluating and memoising the not yet evaluated part of its cone."""
        words = self._words
        var = lit >> 1
        word = words.get(var)
        if word is None:
            gates = self.aig.gate_table()
            leaf_words = self._leaf_words
            mask = self._mask
            stack = [var]
            while stack:
                v = stack[-1]
                if v in words:
                    stack.pop()
                    continue
                gate = gates.get(v)
                if gate is None:
                    words[v] = leaf_words.get(v, 0)
                    stack.pop()
                    continue
                left = words.get(gate.left >> 1)
                right = words.get(gate.right >> 1)
                if left is None or right is None:
                    if left is None:
                        stack.append(gate.left >> 1)
                    if right is None:
                        stack.append(gate.right >> 1)
                    continue
                if gate.left & 1:
                    left ^= mask
                if gate.right & 1:
                    right ^= mask
                words[v] = left & right
                stack.pop()
            word = words[var]
        return word ^ self._mask if lit & 1 else word

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
        # Groups own only AND gates (leaves are never group-owned), so the
        # live cones' gates decide.
        live = cone_gates(self.aig, live_roots)
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
