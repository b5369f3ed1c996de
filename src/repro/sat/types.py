"""Shared types for the SAT subsystem."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["SatResult", "SolverStats", "Budget", "BudgetExceeded"]


class SatResult(enum.Enum):
    """Outcome of a SAT query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("SatResult must be compared explicitly, not used as a boolean")


@dataclass
class SolverStats:
    """Counters accumulated by a solver instance.

    ``clauses_added`` counts input (non-learned) clause additions and
    ``solve_calls`` the number of :meth:`~repro.sat.solver.CdclSolver.solve`
    invocations; together with :meth:`diff` they let incremental callers
    attribute work to individual queries
    (:attr:`~repro.sat.solver.CdclSolver.last_call_stats`).
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    restarts: int = 0
    max_decision_level: int = 0
    db_reductions: int = 0
    removed_clauses: int = 0
    clauses_added: int = 0
    solve_calls: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "learned_literals": self.learned_literals,
            "restarts": self.restarts,
            "max_decision_level": self.max_decision_level,
            "db_reductions": self.db_reductions,
            "removed_clauses": self.removed_clauses,
            "clauses_added": self.clauses_added,
            "solve_calls": self.solve_calls,
        }

    def copy(self) -> "SolverStats":
        return SolverStats(**self.as_dict())

    def diff(self, earlier: "SolverStats") -> "SolverStats":
        """Counters accumulated since ``earlier`` (a per-call snapshot).

        ``max_decision_level`` is a high-water mark, not a counter, so the
        current value is reported unchanged.
        """
        return SolverStats(
            decisions=self.decisions - earlier.decisions,
            propagations=self.propagations - earlier.propagations,
            conflicts=self.conflicts - earlier.conflicts,
            learned_clauses=self.learned_clauses - earlier.learned_clauses,
            learned_literals=self.learned_literals - earlier.learned_literals,
            restarts=self.restarts - earlier.restarts,
            max_decision_level=self.max_decision_level,
            db_reductions=self.db_reductions - earlier.db_reductions,
            removed_clauses=self.removed_clauses - earlier.removed_clauses,
            clauses_added=self.clauses_added - earlier.clauses_added,
            solve_calls=self.solve_calls - earlier.solve_calls,
        )


class BudgetExceeded(RuntimeError):
    """Raised internally when a resource budget is exhausted mid-search."""


@dataclass
class Budget:
    """Resource budget for a single solver call.

    ``max_conflicts`` bounds the number of conflicts, ``max_time`` the wall
    clock in seconds.  ``None`` means unbounded.  Engines use budgets to
    emulate the paper's per-instance time limit and report *overflow* rather
    than hanging.
    """

    max_conflicts: Optional[int] = None
    max_time: Optional[float] = None
