"""CNF-level simplification behind the pipeline's ``cnf`` pass.

Unit propagation, subsumption, self-subsumption (clause strengthening) and
SatELite-style bounded variable elimination.  The reductions preserve
*equisatisfiability* — variable elimination trades logical equivalence for
size — so they are sound only where SAT-or-UNSAT is all that matters.  The
one caller is :class:`~repro.preprocess.passes.CnfEliminationPass` with
``measure=True``, which reports the reduction on a model's
transition-relation CNF; no engine query is simplified.  Proof-logged
refutation checks must never run through it: interpolation needs the
refutation to be over the original clause set.

Lift-back exists at this level too, mirroring the model-level
:class:`~repro.preprocess.modelmap.ModelMap`: eliminating a variable
records the clauses it was resolved out of, and
:meth:`CnfReduction.extend_assignment` replays that stack to extend a
satisfying assignment of the simplified formula to one of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..cnf.cnf import Clause, Cnf

__all__ = ["unit_propagate", "simplify_cnf", "CnfSimplifyConfig",
           "CnfSimplifyStats", "CnfReduction"]


def unit_propagate(cnf: Cnf) -> Tuple[Dict[int, bool], bool]:
    """Run Boolean constraint propagation on unit clauses.

    Returns ``(assignment, conflict)``: the implied partial assignment and a
    flag set when complementary units (or an empty clause) were derived.
    """
    assignment: Dict[int, bool] = {}
    changed = True
    clauses = [list(c.literals) for c in cnf.clauses]
    while changed:
        changed = False
        for literals in clauses:
            unassigned: List[int] = []
            satisfied = False
            for lit in literals:
                var = abs(lit)
                if var in assignment:
                    if assignment[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    unassigned.append(lit)
            if satisfied:
                continue
            if not unassigned:
                return assignment, True
            if len(unassigned) == 1:
                lit = unassigned[0]
                var, value = abs(lit), lit > 0
                if var not in assignment:
                    assignment[var] = value
                    changed = True
    return assignment, False


@dataclass
class CnfSimplifyConfig:
    """Effort knobs for :func:`simplify_cnf`.

    ``max_clause_count`` guards the worst case: formulas larger than it get
    unit propagation only (linear), never the quadratic-ish subsumption and
    elimination sweeps.  ``max_occurrences`` and ``max_resolvent``
    are the classic bounded-VE limits (a variable is only eliminated when
    each polarity occurs few times and no resolvent grows long);
    ``max_rounds`` caps the simplify-to-fixpoint iteration.
    """

    max_clause_count: int = 20_000
    subsume: bool = True
    eliminate: bool = True
    max_occurrences: int = 10
    max_resolvent: int = 12
    max_rounds: int = 3


@dataclass
class CnfSimplifyStats:
    """What one :func:`simplify_cnf` run removed (and added back)."""

    clauses_before: int = 0
    clauses_after: int = 0
    units: int = 0
    tautologies: int = 0
    subsumed: int = 0
    strengthened: int = 0
    eliminated_vars: int = 0
    resolvents_added: int = 0

    @property
    def clauses_eliminated(self) -> int:
        return self.clauses_before - self.clauses_after

    def as_dict(self) -> Dict[str, int]:
        return {
            "clauses_before": self.clauses_before,
            "clauses_after": self.clauses_after,
            "units": self.units,
            "tautologies": self.tautologies,
            "subsumed": self.subsumed,
            "strengthened": self.strengthened,
            "eliminated_vars": self.eliminated_vars,
            "resolvents_added": self.resolvents_added,
        }


class CnfReduction:
    """Outcome of :func:`simplify_cnf`.

    Attributes
    ----------
    cnf:
        Simplified formula over the *same* variable numbering, or ``None``
        when a conflict was derived (the original formula is UNSAT).
    assignment:
        Forced assignments discovered by unit propagation.
    conflict:
        ``True`` when the formula was shown unsatisfiable by preprocessing
        alone.
    stats:
        A :class:`CnfSimplifyStats` accounting of the run.
    """

    def __init__(self, cnf: Optional[Cnf], assignment: Dict[int, bool],
                 conflict: bool, stats: CnfSimplifyStats,
                 elim_stack: List[Tuple[int, List[List[int]]]]) -> None:
        self.cnf = cnf
        self.assignment = assignment
        self.conflict = conflict
        self.stats = stats
        self._elim_stack = elim_stack

    def extend_assignment(self, model: Mapping[int, bool]) -> Dict[int, bool]:
        """Extend a model of the simplified CNF to one of the original CNF.

        Replays the variable-elimination stack in reverse (each eliminated
        variable gets a value satisfying every clause it was resolved out
        of) and re-applies the forced units.  Variables the model does not
        mention default to false.
        """
        full = {int(var): bool(val) for var, val in model.items()}
        full.update(self.assignment)
        for var, saved in reversed(self._elim_stack):
            value = True
            for lits in saved:
                if -var in lits and not any(
                        lit != -var and full.get(abs(lit), False) == (lit > 0)
                        for lit in lits):
                    value = False
                    break
            full[var] = value
        return full


class _Simplifier:
    """Mutable clause database with occurrence lists (deterministic order)."""

    def __init__(self, cnf: Cnf, frozen: Iterable[int],
                 config: CnfSimplifyConfig, stats: CnfSimplifyStats) -> None:
        self.config = config
        self.stats = stats
        self.frozen: Set[int] = set(frozen)
        self.assignment: Dict[int, bool] = {}
        self.elim_stack: List[Tuple[int, List[List[int]]]] = []
        self.conflict = False
        self.clauses: List[Optional[List[int]]] = []
        self.sets: List[Optional[Set[int]]] = []
        self.occ: Dict[int, Set[int]] = {}
        self.unit_queue: List[int] = []
        self.num_vars = cnf.num_vars
        for clause in cnf.clauses:
            if clause.is_tautology:
                stats.tautologies += 1
                continue
            self._add(list(clause.literals))

    # ---------------------------------------------------------------- #
    # Database primitives
    # ---------------------------------------------------------------- #
    def _add(self, lits: List[int]) -> None:
        lits = sorted(set(lits), key=lambda l: (abs(l), l < 0))
        cid = len(self.clauses)
        self.clauses.append(lits)
        self.sets.append(set(lits))
        for lit in lits:
            self.occ.setdefault(lit, set()).add(cid)
        if len(lits) == 1:
            self.unit_queue.append(lits[0])
        elif not lits:
            self.conflict = True

    def _remove(self, cid: int) -> List[int]:
        lits = self.clauses[cid]
        for lit in lits:
            self.occ[lit].discard(cid)
        self.clauses[cid] = None
        self.sets[cid] = None
        return lits

    def _strengthen(self, cid: int, lit: int) -> None:
        """Remove one literal from a clause (in place)."""
        lits = self.clauses[cid]
        lits.remove(lit)
        self.sets[cid].discard(lit)
        self.occ[lit].discard(cid)
        if not lits:
            self.conflict = True
        elif len(lits) == 1:
            self.unit_queue.append(lits[0])

    # ---------------------------------------------------------------- #
    # Unit propagation
    # ---------------------------------------------------------------- #
    def propagate(self) -> None:
        while self.unit_queue and not self.conflict:
            lit = self.unit_queue.pop()
            var, value = abs(lit), lit > 0
            if var in self.assignment:
                if self.assignment[var] != value:
                    self.conflict = True
                continue
            self.assignment[var] = value
            self.stats.units += 1
            for cid in sorted(self.occ.get(lit, ())):
                self._remove(cid)
            for cid in sorted(self.occ.get(-lit, ())):
                self._strengthen(cid, -lit)

    # ---------------------------------------------------------------- #
    # Subsumption and self-subsumption
    # ---------------------------------------------------------------- #
    def subsume_round(self) -> bool:
        changed = False
        for cid in range(len(self.clauses)):
            if self.conflict:
                return changed
            lits = self.clauses[cid]
            if lits is None or not lits:
                continue
            # Candidates share the least-occurring literal of this clause.
            pivot = min(lits, key=lambda l: (len(self.occ.get(l, ())), l))
            cset = self.sets[cid]
            for other in sorted(self.occ.get(pivot, ())):
                if other == cid or self.clauses[other] is None:
                    continue
                if cset <= self.sets[other]:
                    self._remove(other)
                    self.stats.subsumed += 1
                    changed = True
            # Self-subsumption: c \ {l} subsumes (d \ {-l}) => drop -l from d.
            for lit in list(lits):
                if self.clauses[cid] is None:
                    break
                rest = self.sets[cid] - {lit}
                for other in sorted(self.occ.get(-lit, ())):
                    if other == cid or self.clauses[other] is None:
                        continue
                    if rest <= (self.sets[other] - {-lit}):
                        self._strengthen(other, -lit)
                        self.stats.strengthened += 1
                        changed = True
                        if self.conflict:
                            return changed
        return changed

    # ---------------------------------------------------------------- #
    # Bounded variable elimination
    # ---------------------------------------------------------------- #
    def eliminate_round(self) -> bool:
        changed = False
        limit = self.config.max_occurrences
        for var in range(1, self.num_vars + 1):
            if self.conflict:
                return changed
            if self.unit_queue:
                # Keep the database normalised: a pending unit on some
                # variable must be applied before that variable (or one of
                # its clauses) is considered for elimination.
                self.propagate()
                if self.conflict:
                    return changed
            if var in self.frozen or var in self.assignment:
                continue
            pos = sorted(self.occ.get(var, ()))
            neg = sorted(self.occ.get(-var, ()))
            if not pos and not neg:
                continue
            if len(pos) > limit or len(neg) > limit:
                continue
            resolvents: List[List[int]] = []
            feasible = True
            for pid in pos:
                for nid in neg:
                    merged = (self.sets[pid] - {var}) | (self.sets[nid] - {-var})
                    if any(-lit in merged for lit in merged):
                        continue  # tautological resolvent
                    if len(merged) > self.config.max_resolvent:
                        feasible = False
                        break
                    resolvents.append(sorted(merged, key=lambda l: (abs(l), l < 0)))
                if not feasible:
                    break
            if not feasible or len(resolvents) > len(pos) + len(neg):
                continue
            saved = [self._remove(cid) for cid in pos + neg]
            self.elim_stack.append((var, saved))
            self.stats.eliminated_vars += 1
            for lits in resolvents:
                self._add(lits)
            self.stats.resolvents_added += len(resolvents)
            changed = True
        return changed

    # ---------------------------------------------------------------- #
    def alive_clauses(self) -> List[List[int]]:
        return [lits for lits in self.clauses if lits is not None]


def simplify_cnf(cnf: Cnf, frozen: Iterable[int] = (),
                 config: Optional[CnfSimplifyConfig] = None) -> CnfReduction:
    """Simplify a CNF, preserving equisatisfiability and variable numbering.

    ``frozen`` variables are never eliminated (callers freeze variables
    whose value they need to read back or constrain afterwards; unit
    propagation may still *assign* them, reported via
    ``CnfReduction.assignment``).  The returned formula, when one exists,
    is over the same variable numbering; satisfying assignments extend to
    the original formula through :meth:`CnfReduction.extend_assignment`.
    """
    config = config or CnfSimplifyConfig()
    stats = CnfSimplifyStats(clauses_before=len(cnf.clauses))
    simp = _Simplifier(cnf, frozen, config, stats)

    simp.propagate()
    if not simp.conflict and len(cnf.clauses) <= config.max_clause_count:
        for _ in range(config.max_rounds):
            changed = False
            if config.subsume and not simp.conflict:
                changed |= simp.subsume_round()
                simp.propagate()
            if config.eliminate and not simp.conflict:
                changed |= simp.eliminate_round()
                simp.propagate()
            if simp.conflict or not changed:
                break

    if simp.conflict:
        stats.clauses_after = 0
        return CnfReduction(None, simp.assignment, True, stats, simp.elim_stack)

    simplified = Cnf(num_vars=cnf.num_vars)
    for lits in simp.alive_clauses():
        simplified.add_clause(lits)
    stats.clauses_after = len(simplified.clauses)
    return CnfReduction(simplified, simp.assignment, False, stats,
                        simp.elim_stack)
