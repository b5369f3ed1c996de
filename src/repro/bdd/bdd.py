"""A reduced ordered binary decision diagram (ROBDD) manager.

The BDD engine provides the exact-reachability baseline of Table I: the
forward and backward circuit diameters (d_F, d_B) and a BDD-based
verification verdict, against which the SAT-based engines' convergence
depths are compared.

The implementation is a classical unique-table / computed-table ROBDD
without complemented edges:

* nodes are integers; ``0`` and ``1`` are the terminals;
* every internal node is a triple ``(level, low, high)`` interned in the
  unique table, with ``low`` taken when the variable is false;
* all Boolean operations are derived from ``ite`` with memoisation;
* existential/universal quantification and leaf substitution (compose) are
  provided for image computation.

Variable *levels* are the BDD ordering; the manager hands out levels in
creation order, which the reachability front-end arranges as an
interleaving of current-state and next-state variables (a standard
heuristic that keeps transition-relation BDDs small for the circuit sizes
used here).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["BddManager", "BddError"]


class BddError(RuntimeError):
    """Raised on invalid BDD operations."""


class BddManager:
    """Owner of the unique table; all nodes live inside one manager."""

    FALSE = 0
    TRUE = 1

    def __init__(self, max_nodes: Optional[int] = None) -> None:
        #: node id -> (level, low, high); terminals occupy ids 0 and 1.
        self._nodes: List[Tuple[int, int, int]] = [(-1, 0, 0), (-1, 1, 1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._quant_cache: Dict[Tuple[int, frozenset, bool], int] = {}
        self._compose_cache: Dict[Tuple[int, int], int] = {}
        self._num_vars = 0
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------ #
    # Variables and raw nodes
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Create a new variable (at the bottom of the order); return its BDD."""
        self._num_vars += 1
        return self._mk(self._num_vars - 1, self.FALSE, self.TRUE)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def var_bdd(self, level: int) -> int:
        """Return the BDD of the variable at ``level``."""
        if not 0 <= level < self._num_vars:
            raise BddError(f"unknown BDD variable level {level}")
        return self._mk(level, self.FALSE, self.TRUE)

    def level_of(self, node: int) -> int:
        return self._nodes[node][0]

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self.max_nodes is not None and len(self._nodes) >= self.max_nodes:
            raise BddError(f"BDD node limit exceeded ({self.max_nodes})")
        node = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------ #
    # Core ITE and derived operators
    # ------------------------------------------------------------------ #
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._top_level(f), self._top_level(g), self._top_level(h))
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def _top_level(self, node: int) -> int:
        level = self._nodes[node][0]
        return level if level >= 0 else self._num_vars + 1

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    def bdd_not(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    def bdd_and(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def bdd_or(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def bdd_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.bdd_not(g), g)

    def bdd_implies(self, f: int, g: int) -> int:
        return self.ite(f, g, self.TRUE)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_false(self, f: int) -> bool:
        return f == self.FALSE

    def is_true(self, f: int) -> bool:
        return f == self.TRUE

    def evaluate(self, f: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate under a level -> value assignment (missing levels = False)."""
        node = f
        while node > 1:
            level, low, high = self._nodes[node]
            node = high if assignment.get(level, False) else low
        return node == self.TRUE

    def size(self, f: int) -> int:
        """Number of internal nodes reachable from ``f``."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            _, low, high = self._nodes[node]
            stack.extend((low, high))
        return len(seen)

    def count_solutions(self, f: int, num_vars: Optional[int] = None) -> int:
        """Count satisfying assignments over ``num_vars`` variables."""
        total_vars = num_vars if num_vars is not None else self._num_vars
        cache: Dict[int, int] = {}

        def count(node: int) -> Tuple[int, int]:
            """Return (count, level) where count is over vars below `level`."""
            if node == self.FALSE:
                return 0, total_vars
            if node == self.TRUE:
                return 1, total_vars
            if node in cache:
                return cache[node], self._nodes[node][0]
            level, low, high = self._nodes[node]
            low_count, low_level = count(low)
            high_count, high_level = count(high)
            value = (low_count << (low_level - level - 1)) + \
                    (high_count << (high_level - level - 1))
            cache[node] = value
            return value, level

        value, level = count(f)
        return value << level

    def pick_assignment(self, f: int) -> Optional[Dict[int, bool]]:
        """Return one satisfying level->value assignment, or ``None``."""
        if f == self.FALSE:
            return None
        assignment: Dict[int, bool] = {}
        node = f
        while node > 1:
            level, low, high = self._nodes[node]
            if low != self.FALSE:
                assignment[level] = False
                node = low
            else:
                assignment[level] = True
                node = high
        return assignment

    # ------------------------------------------------------------------ #
    # Quantification and substitution
    # ------------------------------------------------------------------ #
    def exists(self, levels: Iterable[int], f: int) -> int:
        """Existential quantification over a set of variable levels."""
        return self._quantify(f, frozenset(levels), existential=True)

    def forall(self, levels: Iterable[int], f: int) -> int:
        """Universal quantification over a set of variable levels."""
        return self._quantify(f, frozenset(levels), existential=False)

    def _quantify(self, f: int, levels: frozenset, existential: bool) -> int:
        if f <= 1 or not levels:
            return f
        key = (f, levels, existential)
        cached = self._quant_cache.get(key)
        if cached is not None:
            return cached
        level, low, high = self._nodes[f]
        sub_low = self._quantify(low, levels, existential)
        sub_high = self._quantify(high, levels, existential)
        if level in levels:
            result = (self.bdd_or(sub_low, sub_high) if existential
                      else self.bdd_and(sub_low, sub_high))
        else:
            result = self._mk(level, sub_low, sub_high)
        self._quant_cache[key] = result
        return result

    def compose(self, f: int, substitution: Mapping[int, int]) -> int:
        """Simultaneously substitute variables (by level) with BDDs."""
        if not substitution:
            return f
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1:
                return node
            if node in cache:
                return cache[node]
            level, low, high = self._nodes[node]
            new_low = walk(low)
            new_high = walk(high)
            replacement = substitution.get(level)
            if replacement is None:
                replacement = self.var_bdd(level)
            result = self.ite(replacement, new_high, new_low)
            cache[node] = result
            return result

        return walk(f)

    def rename(self, f: int, mapping: Mapping[int, int]) -> int:
        """Rename variables level -> level (a special case of compose)."""
        return self.compose(f, {old: self.var_bdd(new) for old, new in mapping.items()})

    # ------------------------------------------------------------------ #
    # Relational product (the image-computation workhorse)
    # ------------------------------------------------------------------ #
    def and_exists(self, f: int, g: int, levels: Iterable[int]) -> int:
        """Compute ∃ levels. (f ∧ g) without building the full conjunction."""
        levels_set = frozenset(levels)
        cache: Dict[Tuple[int, int], int] = {}

        def walk(a: int, b: int) -> int:
            if a == self.FALSE or b == self.FALSE:
                return self.FALSE
            if a == self.TRUE and b == self.TRUE:
                return self.TRUE
            key = (a, b) if a <= b else (b, a)
            if key in cache:
                return cache[key]
            level = min(self._top_level(a), self._top_level(b))
            a0, a1 = self._cofactors(a, level)
            b0, b1 = self._cofactors(b, level)
            low = walk(a0, b0)
            if level in levels_set and low == self.TRUE:
                result = self.TRUE
            else:
                high = walk(a1, b1)
                if level in levels_set:
                    result = self.bdd_or(low, high)
                else:
                    result = self._mk(level, low, high)
            cache[key] = result
            return result

        return walk(f, g)
