"""Reference decision procedures used to validate the CDCL solver.

Two oracles are provided:

* :func:`brute_force_sat` — exhaustive truth-table enumeration, usable up to
  ~20 variables.  The property-based tests compare the CDCL answer against
  it on random formulas.
* :func:`dpll_sat` — a tiny recursive DPLL with unit propagation, usable as
  a second independent opinion on slightly larger formulas.

Neither produces proofs; they exist purely for cross-checking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cnf.cnf import Cnf

__all__ = ["brute_force_sat", "dpll_sat", "verify_model"]


def verify_model(cnf: Cnf, model: Dict[int, bool]) -> bool:
    """Check that ``model`` satisfies every clause of ``cnf``."""
    return cnf.is_satisfied_by(model)


def brute_force_sat(cnf: Cnf, max_vars: int = 24) -> Tuple[bool, Optional[Dict[int, bool]]]:
    """Exhaustively decide satisfiability; return ``(is_sat, model_or_None)``."""
    variables = sorted(cnf.variables())
    if len(variables) > max_vars:
        raise ValueError(f"brute force limited to {max_vars} variables, "
                         f"got {len(variables)}")
    for bits in range(1 << len(variables)):
        assignment = {var: bool((bits >> i) & 1) for i, var in enumerate(variables)}
        if cnf.is_satisfied_by(assignment):
            return True, assignment
    return False, None


def dpll_sat(cnf: Cnf) -> Tuple[bool, Optional[Dict[int, bool]]]:
    """Recursive DPLL with unit propagation (no learning, no heuristics)."""
    clauses = [list(c.literals) for c in cnf.clauses if not c.is_tautology]
    assignment: Dict[int, bool] = {}

    def propagate(clauses_in: List[List[int]],
                  partial: Dict[int, bool]) -> Optional[List[List[int]]]:
        clauses_cur = clauses_in
        while True:
            unit = None
            next_clauses: List[List[int]] = []
            for clause in clauses_cur:
                lits = []
                satisfied = False
                for lit in clause:
                    var = abs(lit)
                    if var in partial:
                        if partial[var] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        lits.append(lit)
                if satisfied:
                    continue
                if not lits:
                    return None
                if len(lits) == 1 and unit is None:
                    unit = lits[0]
                next_clauses.append(lits)
            if unit is None:
                return next_clauses
            partial[abs(unit)] = unit > 0
            clauses_cur = next_clauses

    def recurse(clauses_cur: List[List[int]], partial: Dict[int, bool]) -> bool:
        simplified = propagate(clauses_cur, partial)
        if simplified is None:
            return False
        if not simplified:
            return True
        lit = simplified[0][0]
        for value in (lit > 0, lit <= 0):
            trial = dict(partial)
            trial[abs(lit)] = value
            if recurse(simplified, trial):
                partial.clear()
                partial.update(trial)
                return True
        return False

    if recurse(clauses, assignment):
        full = {var: assignment.get(var, False) for var in cnf.variables()}
        return True, full
    return False, None
