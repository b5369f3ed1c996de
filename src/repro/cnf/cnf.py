"""Clause and CNF containers.

CNF literals follow the DIMACS convention: a positive integer ``v`` is the
variable ``v``, ``-v`` its negation.  Variable 0 does not exist.  This is
deliberately distinct from the AIG literal encoding (even/odd integers); the
Tseitin encoder owns the mapping between the two worlds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Clause", "Cnf"]


class Clause:
    """An immutable disjunction of DIMACS literals.

    Construction normalises the clause: duplicate literals are removed and
    the literals are sorted for deterministic hashing.  A clause containing
    both ``v`` and ``-v`` is a *tautology* (flagged, never simplified away
    silently so callers can decide what to do).
    """

    __slots__ = ("literals", "is_tautology")

    def __init__(self, literals: Iterable[int]) -> None:
        unique = set(literals)
        if 0 in unique:
            raise ValueError("0 is not a valid DIMACS literal")
        # Without a complementary pair every variable occurs once, so the
        # order by abs is already the (abs(l), l < 0) order.
        ordered = sorted(unique, key=abs)
        tautology = len(set(map(abs, ordered))) != len(ordered)
        if tautology:
            ordered.sort(key=lambda l: (abs(l), l < 0))
        self.literals: Tuple[int, ...] = tuple(ordered)
        self.is_tautology: bool = tautology

    @classmethod
    def from_normalised(cls, literals: Tuple[int, ...]) -> "Clause":
        """Wrap literals already in normal form, skipping normalisation.

        The caller guarantees that ``literals`` are nonzero, distinct, free
        of complementary pairs and sorted by ``abs`` — exactly the tuple the
        constructor would build.  The solver uses this when it ingests
        clauses it has already deduplicated and checked for tautology.
        """
        clause = cls.__new__(cls)
        clause.literals = literals
        clause.is_tautology = False
        return clause

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)})"

    def variables(self) -> Set[int]:
        """Return the set of variables occurring in the clause."""
        return {abs(l) for l in self.literals}

    def resolve(self, other: "Clause", pivot_var: int) -> "Clause":
        """Binary resolution on ``pivot_var``; raises if the pivot is absent."""
        pos, negl = pivot_var, -pivot_var
        if pos in self.literals and negl in other.literals:
            first, second = self, other
        elif negl in self.literals and pos in other.literals:
            first, second = other, self
        else:
            raise ValueError(
                f"pivot variable {pivot_var} does not appear with opposite signs")
        merged = [l for l in first.literals if l != pos]
        merged += [l for l in second.literals if l != negl]
        return Clause(merged)

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the clause under a (total) assignment."""
        return any(assignment.get(abs(l), False) == (l > 0) for l in self.literals)


class Cnf:
    """A conjunction of clauses plus variable bookkeeping."""

    def __init__(self, clauses: Optional[Iterable[Sequence[int]]] = None,
                 num_vars: int = 0) -> None:
        self.clauses: List[Clause] = []
        self.num_vars = num_vars
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[int]) -> Clause:
        """Add a clause (given as any iterable of DIMACS literals)."""
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        for lit in clause:
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(clause)
        return clause

    def extend(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> Set[int]:
        """Return the set of variables used by at least one clause."""
        result: Set[int] = set()
        for clause in self.clauses:
            result |= clause.variables()
        return result

    def is_satisfied_by(self, assignment: Dict[int, bool]) -> bool:
        """Evaluate the whole formula under a (total) assignment."""
        return all(clause.is_satisfied_by(assignment) for clause in self.clauses)

    def copy(self) -> "Cnf":
        other = Cnf(num_vars=self.num_vars)
        other.clauses = list(self.clauses)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"
