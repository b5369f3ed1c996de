"""And-Inverter Graph (AIG) representation of sequential circuits.

The AIG is the central circuit data structure of the library, modelled
after the AIGER format conventions:

* every node is identified by a *variable* index (a non-negative integer);
* a *literal* is ``2 * var + sign`` where ``sign`` is 1 for a complemented
  edge.  Literal ``0`` is the constant FALSE, literal ``1`` the constant
  TRUE (both belong to variable ``0``);
* variables are partitioned into the constant, primary inputs, latches
  (state-holding elements with an initial value and a next-state literal)
  and two-input AND gates.

Sequential semantics follow the usual synchronous model: at every clock
tick each latch samples its next-state function evaluated on the current
inputs/state.  Invariant properties are expressed as *bad* literals
(``bad == 1`` in some reachable state means the property ``p = !bad``
fails), matching the convention of hardware model-checking competitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

__all__ = [
    "FALSE",
    "TRUE",
    "lit_from_var",
    "lit_var",
    "lit_sign",
    "lit_negate",
    "lit_is_const",
    "Latch",
    "AndGate",
    "Aig",
]

#: Literal constant for Boolean false.
FALSE = 0
#: Literal constant for Boolean true.
TRUE = 1


def lit_from_var(var: int, sign: bool = False) -> int:
    """Build a literal from a variable index and an optional complement."""
    if var < 0:
        raise ValueError(f"variable index must be non-negative, got {var}")
    return 2 * var + (1 if sign else 0)


def lit_var(lit: int) -> int:
    """Return the variable index of a literal."""
    return lit >> 1


def lit_sign(lit: int) -> bool:
    """Return ``True`` when the literal is complemented."""
    return bool(lit & 1)


def lit_negate(lit: int) -> int:
    """Return the complement of a literal."""
    return lit ^ 1


def lit_is_const(lit: int) -> bool:
    """Return ``True`` when the literal is the constant TRUE or FALSE."""
    return lit <= 1


@dataclass(frozen=True)
class Latch:
    """A state-holding element.

    Attributes
    ----------
    var:
        Variable index of the latch output (current-state value).
    next:
        Literal giving the next-state function.
    init:
        Initial value: ``0``, ``1`` or ``None`` for an uninitialised latch
        (treated as a free Boolean choice at time 0).
    name:
        Optional human-readable name.
    """

    var: int
    next: int
    init: Optional[int] = 0
    name: Optional[str] = None

    def lit(self) -> int:
        """Return the positive literal of the latch output."""
        return lit_from_var(self.var)


@dataclass(frozen=True)
class AndGate:
    """A two-input AND gate ``out = left & right`` (inputs may be complemented)."""

    var: int
    left: int
    right: int

    def lit(self) -> int:
        """Return the positive literal of the gate output."""
        return lit_from_var(self.var)


class Aig:
    """A sequential And-Inverter Graph.

    The class offers structural construction with hashing (``add_and`` reuses
    an existing gate with the same fanins and applies constant/trivial
    simplifications), convenience Boolean operators and queries used by the
    encoders, simulators and engines built on top.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._num_vars = 1  # variable 0 is the constant
        self._inputs: List[int] = []
        #: Membership view of ``_inputs`` for the O(1) kind queries.
        self._input_set: Set[int] = set()
        self._input_names: Dict[int, str] = {}
        self._latches: Dict[int, Latch] = {}
        self._latch_order: List[int] = []
        self._ands: Dict[int, AndGate] = {}
        self._and_order: List[int] = []
        self._strash: Dict[Tuple[int, int], int] = {}
        self._outputs: List[int] = []
        self._output_names: List[str] = []
        self._bad: List[int] = []
        self._bad_names: List[str] = []
        self._constraints: List[int] = []

    # ------------------------------------------------------------------ #
    # Node creation
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate and return a fresh variable index."""
        var = self._num_vars
        self._num_vars += 1
        return var

    def add_input(self, name: Optional[str] = None) -> int:
        """Create a primary input; return its (positive) literal."""
        var = self.new_var()
        self._inputs.append(var)
        self._input_set.add(var)
        if name is not None:
            self._input_names[var] = name
        return lit_from_var(var)

    def add_latch(
        self,
        next_lit: Optional[int] = None,
        init: Optional[int] = 0,
        name: Optional[str] = None,
    ) -> int:
        """Create a latch; return its (positive) literal.

        ``next_lit`` may be deferred and filled in later with
        :meth:`set_latch_next`, which is the common pattern when building
        circuits with feedback.
        """
        if init not in (0, 1, None):
            raise ValueError(f"latch init must be 0, 1 or None, got {init!r}")
        var = self.new_var()
        latch = Latch(var=var, next=next_lit if next_lit is not None else FALSE,
                      init=init, name=name)
        self._latches[var] = latch
        self._latch_order.append(var)
        return lit_from_var(var)

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        """Set (or overwrite) the next-state literal of a latch."""
        var = lit_var(latch_lit)
        if lit_sign(latch_lit):
            raise ValueError("latch handle must be a positive literal")
        if var not in self._latches:
            raise KeyError(f"variable {var} is not a latch")
        self._check_lit(next_lit)
        old = self._latches[var]
        self._latches[var] = Latch(var=var, next=next_lit, init=old.init, name=old.name)

    def add_and(self, a: int, b: int) -> int:
        """Return a literal for ``a & b`` with structural hashing.

        Applies the standard trivial simplifications: constants, equal and
        opposite fanins.
        """
        # The range check of _check_lit, inlined: this is the hottest AIG call.
        limit = self._num_vars
        if a < 0 or a >> 1 >= limit:
            raise ValueError(f"literal {a} references an unknown variable")
        if b < 0 or b >> 1 >= limit:
            raise ValueError(f"literal {b} references an unknown variable")
        # Constant / trivial cases.
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return FALSE
        # Canonical order for hashing.
        if a > b:
            a, b = b, a
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        # new_var and lit_from_var, inlined.
        var = limit
        self._num_vars = var + 1
        self._ands[var] = AndGate(var, a, b)
        self._and_order.append(var)
        out = 2 * var
        self._strash[key] = out
        return out

    # ------------------------------------------------------------------ #
    # Boolean convenience operators
    # ------------------------------------------------------------------ #
    def op_not(self, a: int) -> int:
        """Return ``!a``."""
        self._check_lit(a)
        return lit_negate(a)

    def op_and(self, *lits: int) -> int:
        """Return the conjunction of any number of literals (TRUE for none)."""
        out = TRUE
        for lit in lits:
            out = self.add_and(out, lit)
        return out

    def op_or(self, *lits: int) -> int:
        """Return the disjunction of any number of literals (FALSE for none)."""
        return lit_negate(self.op_and(*[lit_negate(lit) for lit in lits]))

    def op_xor(self, a: int, b: int) -> int:
        """Return ``a ^ b``."""
        return self.op_or(self.add_and(a, lit_negate(b)), self.add_and(lit_negate(a), b))

    def op_xnor(self, a: int, b: int) -> int:
        """Return ``!(a ^ b)``."""
        return lit_negate(self.op_xor(a, b))

    def op_implies(self, a: int, b: int) -> int:
        """Return ``a -> b``."""
        return self.op_or(lit_negate(a), b)

    def op_ite(self, cond: int, then_lit: int, else_lit: int) -> int:
        """Return ``cond ? then_lit : else_lit``."""
        return self.op_or(self.add_and(cond, then_lit),
                          self.add_and(lit_negate(cond), else_lit))

    # ------------------------------------------------------------------ #
    # Outputs, properties and constraints
    # ------------------------------------------------------------------ #
    def add_output(self, lit: int, name: Optional[str] = None) -> int:
        """Register a primary output; return its index."""
        self._check_lit(lit)
        self._outputs.append(lit)
        self._output_names.append(name or f"o{len(self._outputs) - 1}")
        return len(self._outputs) - 1

    def add_bad(self, lit: int, name: Optional[str] = None) -> int:
        """Register a *bad-state* literal (property failure indicator)."""
        self._check_lit(lit)
        self._bad.append(lit)
        self._bad_names.append(name or f"b{len(self._bad) - 1}")
        return len(self._bad) - 1

    def add_constraint(self, lit: int) -> None:
        """Register an invariant constraint literal (assumed true every cycle)."""
        self._check_lit(lit)
        self._constraints.append(lit)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def num_vars(self) -> int:
        """Total number of variables, including the constant variable 0."""
        return self._num_vars

    @property
    def inputs(self) -> List[int]:
        """Variable indices of the primary inputs, in creation order."""
        return list(self._inputs)

    @property
    def latches(self) -> List[Latch]:
        """Latches in creation order."""
        return [self._latches[v] for v in self._latch_order]

    @property
    def ands(self) -> List[AndGate]:
        """AND gates in creation (topological) order."""
        return [self._ands[v] for v in self._and_order]

    @property
    def outputs(self) -> List[int]:
        """Primary output literals."""
        return list(self._outputs)

    @property
    def bad(self) -> List[int]:
        """Bad-state literals."""
        return list(self._bad)

    @property
    def constraints(self) -> List[int]:
        """Invariant constraint literals."""
        return list(self._constraints)

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_latches(self) -> int:
        return len(self._latch_order)

    @property
    def num_ands(self) -> int:
        return len(self._and_order)

    def input_name(self, var: int) -> str:
        """Return the name of an input variable (generated if unnamed)."""
        return self._input_names.get(var, f"i{var}")

    def output_name(self, index: int) -> str:
        return self._output_names[index]

    def bad_name(self, index: int) -> str:
        return self._bad_names[index]

    def is_input(self, var: int) -> bool:
        return var in self._input_set

    def is_latch(self, var: int) -> bool:
        return var in self._latches

    def is_and(self, var: int) -> bool:
        return var in self._ands

    def latch(self, var: int) -> Latch:
        """Return the latch record for a variable."""
        return self._latches[var]

    def and_gate(self, var: int) -> AndGate:
        """Return the AND-gate record for a variable."""
        return self._ands[var]

    def gate_table(self) -> Mapping[int, AndGate]:
        """The live AND-gate table, variable -> gate, for hot loops that look
        up many gates; it grows with the AIG and must not be modified.  Its
        iteration order is creation order, which is topological."""
        return self._ands

    def node_kind(self, var: int) -> str:
        """Classify a variable as ``const``, ``input``, ``latch`` or ``and``."""
        if var == 0:
            return "const"
        if var in self._latches:
            return "latch"
        if var in self._ands:
            return "and"
        if var in self._input_set:
            return "input"
        raise KeyError(f"unknown variable {var}")

    def latch_vars(self) -> List[int]:
        """Variable indices of the latches, in creation order."""
        return list(self._latch_order)

    def input_vars(self) -> List[int]:
        """Variable indices of the primary inputs, in creation order."""
        return list(self._inputs)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def fanin_cone(self, roots: Iterable[int]) -> List[int]:
        """Return the variables in the transitive fanin of ``roots``.

        The result is topologically ordered (fanins before fanouts) and
        includes input/latch leaves but not the constant variable.
        """
        seen = set()
        order: List[int] = []

        def visit(var: int) -> None:
            stack = [var]
            while stack:
                v = stack[-1]
                if v in seen or v == 0:
                    stack.pop()
                    continue
                gate = self._ands.get(v)
                if gate is None:
                    seen.add(v)
                    order.append(v)
                    stack.pop()
                    continue
                pending = [u for u in (lit_var(gate.left), lit_var(gate.right))
                           if u not in seen and u != 0]
                if pending:
                    stack.extend(pending)
                else:
                    seen.add(v)
                    order.append(v)
                    stack.pop()

        for root in roots:
            visit(lit_var(root))
        return order

    def support(self, roots: Iterable[int]) -> Tuple[List[int], List[int]]:
        """Return ``(input_vars, latch_vars)`` in the combinational support of ``roots``."""
        cone = self.fanin_cone(roots)
        ins = [v for v in cone if self.node_kind(v) == "input"]
        lats = [v for v in cone if self.node_kind(v) == "latch"]
        return ins, lats

    def iter_and_gates(self) -> Iterator[AndGate]:
        """Iterate AND gates in topological order."""
        for var in self._and_order:
            yield self._ands[var]

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Return a small dictionary of size statistics."""
        return {
            "inputs": self.num_inputs,
            "latches": self.num_latches,
            "ands": self.num_ands,
            "outputs": len(self._outputs),
            "bad": len(self._bad),
            "constraints": len(self._constraints),
            "vars": self._num_vars,
        }

    def copy(self) -> "Aig":
        """Return a deep structural copy of the AIG."""
        other = Aig(self.name)
        other._num_vars = self._num_vars
        other._inputs = list(self._inputs)
        other._input_set = set(self._input_set)
        other._input_names = dict(self._input_names)
        other._latches = dict(self._latches)
        other._latch_order = list(self._latch_order)
        other._ands = dict(self._ands)
        other._and_order = list(self._and_order)
        other._strash = dict(self._strash)
        other._outputs = list(self._outputs)
        other._output_names = list(self._output_names)
        other._bad = list(self._bad)
        other._bad_names = list(self._bad_names)
        other._constraints = list(self._constraints)
        return other

    def _check_lit(self, lit: int) -> None:
        if lit < 0 or lit_var(lit) >= self._num_vars:
            raise ValueError(f"literal {lit} references an unknown variable")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        s = self.stats()
        return (f"Aig(name={self.name!r}, inputs={s['inputs']}, latches={s['latches']}, "
                f"ands={s['ands']}, bad={s['bad']})")
