"""Tseitin encoding of AIG cones into CNF.

The encoder maps AIG *variables* to CNF *variables* and AIG literals to
DIMACS literals.  AND gates are encoded with the standard three clauses::

    out -> left      (-out,  left)
    out -> right     (-out,  right)
    left & right -> out   (out, -left, -right)

The encoder is incremental: a single instance can be asked to encode several
cones; gates already encoded are not re-emitted.  Leaves (inputs and
latches) must be given CNF variables up front or are allocated on demand,
depending on the policy selected by the caller — the BMC unroller assigns
frame-specific variables, while the combinational checker lets the encoder
allocate freely.

Clauses are emitted through a *sink* callback, so they can be routed either
into a :class:`~repro.cnf.cnf.Cnf` container (``cnf.extend``) or straight
into the incremental SAT solver (``solver.add_cnf``), optionally tagged with
a partition label (the mechanism the interpolation machinery relies on).
The sink takes *batches*: each :meth:`TseitinEncoder.literal` call hands it
the list of clauses the cone needed, in emission order, in one call (none
when the cone was already encoded).  The batch is flushed even when an
undeclared leaf raises ``KeyError`` half-way, so the clauses of every gate
that got a CNF variable always arrive.  CNF variables are allocated while
the cone is walked, before the batch reaches the sink; a solver sink sees
the same clauses, variables and order as it would clause by clause.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..aig.aig import Aig
from .cnf import Cnf

__all__ = ["ClauseSink", "TseitinEncoder", "encode_combinational"]

#: A clause sink receives, per call, the clauses (lists of DIMACS literals)
#: one :meth:`TseitinEncoder.literal` call emitted, in emission order.
ClauseSink = Callable[[List[List[int]]], None]


class TseitinEncoder:
    """Incremental Tseitin encoder for one AIG.

    Parameters
    ----------
    aig:
        The circuit to encode.
    new_var:
        Callable allocating fresh CNF variables (e.g. ``cnf.new_var`` or
        ``solver.new_var``).
    sink:
        Callable receiving each :meth:`literal` call's clauses as one list.
    allocate_leaves:
        When ``True`` missing leaf variables are allocated on demand; when
        ``False`` encoding a cone whose leaves were not declared raises
        ``KeyError`` (the safe default for time-frame encodings).
    """

    #: CNF variable reserved for the constant node.  A unit clause pinning it
    #: to false is emitted lazily the first time the constant is referenced.
    def __init__(
        self,
        aig: Aig,
        new_var: Callable[[], int],
        sink: ClauseSink,
        allocate_leaves: bool = True,
    ) -> None:
        self.aig = aig
        self._new_var = new_var
        self._sink = sink
        self._allocate_leaves = allocate_leaves
        self._var_map: Dict[int, int] = {}
        self._const_var: Optional[int] = None
        #: Optional observer invoked with the AIG variable each time an AND
        #: gate receives its CNF variable (i.e. its definitional clauses are
        #: emitted).  The fixpoint checker uses it to record which gates a
        #: retractable clause group owns, so the group can later be shed
        #: together with its :meth:`forget` of exactly those variables.
        self.on_gate: Optional[Callable[[int], None]] = None
        #: Optional observer invoked with ``(aig_var, cnf_var)`` each time an
        #: undeclared leaf is allocated its CNF variable (the fixpoint
        #: checker reads its witness models over exactly these leaves).
        self.on_leaf: Optional[Callable[[int, int], None]] = None

    # ------------------------------------------------------------------ #
    # Variable mapping
    # ------------------------------------------------------------------ #
    def declare_leaf(self, aig_var: int, cnf_var: int) -> None:
        """Pre-assign the CNF variable of an input/latch variable."""
        self._var_map[aig_var] = cnf_var

    def has_var(self, aig_var: int) -> bool:
        return aig_var in self._var_map

    def cnf_var(self, aig_var: int) -> int:
        """Return the CNF variable already assigned to ``aig_var``."""
        return self._var_map[aig_var]

    def var_map(self) -> Dict[int, int]:
        """Return a copy of the current AIG-var -> CNF-var mapping."""
        return dict(self._var_map)

    def forget(self, aig_vars: Iterable[int]) -> None:
        """Drop the CNF variables of some already-encoded AND gates.

        A forgotten gate is re-encoded — with a *fresh* CNF variable and
        fresh definitional clauses — the next time a cone containing it is
        requested.  The caller must ensure no still-active clause depends on
        the forgotten variables being *defined* (the fixpoint checker pairs
        every ``forget`` with releasing the clause group that owns exactly
        those gates' clauses).  Only AND gates may be forgotten: leaves keep
        their variables for the encoder's lifetime, so cones encoded before
        and after a forget still meet on the same leaf valuation.
        """
        for var in aig_vars:
            if self.aig.node_kind(var) != "and":
                raise ValueError(
                    f"refusing to forget leaf variable {var} "
                    f"({self.aig.node_kind(var)}): leaf CNF variables are "
                    "shared by every encoded cone")
            self._var_map.pop(var, None)

    def _const_false_var(self, batch: List[List[int]]) -> int:
        if self._const_var is None:
            self._const_var = self._new_var()
            # Variable is forced false: the positive AIG literal 0 is FALSE.
            batch.append([-self._const_var])
        return self._const_var

    def _leaf_var(self, aig_var: int) -> int:
        """Allocate the CNF variable of an undeclared input or latch."""
        kind = self.aig.node_kind(aig_var)
        if not self._allocate_leaves:
            raise KeyError(
                f"leaf variable {aig_var} ({kind}) has no CNF variable assigned")
        cnf_var = self._var_map[aig_var] = self._new_var()
        if self.on_leaf is not None:
            self.on_leaf(aig_var, cnf_var)
        return cnf_var

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def literal(self, aig_lit: int) -> int:
        """Encode (if needed) and return the DIMACS literal for an AIG literal.

        The clauses the cone needs go to the sink as one batch, also when an
        undeclared leaf stops the encoding half-way: every gate that got a
        CNF variable has its clauses emitted.
        """
        batch: List[List[int]] = []
        try:
            var = aig_lit >> 1
            cnf_var = self._const_false_var(batch) if var == 0 \
                else self._encode_var(var, batch)
        finally:
            if batch:
                self._sink(batch)
        return -cnf_var if aig_lit & 1 else cnf_var

    def encode_roots(self, roots: Iterable[int]) -> List[int]:
        """Encode the cones of several AIG literals; return DIMACS literals."""
        return [self.literal(root) for root in roots]

    def _encode_var(self, aig_var: int, batch: List[List[int]]) -> int:
        var_map = self._var_map
        cached = var_map.get(aig_var)
        if cached is not None:
            return cached
        gates = self.aig.gate_table()
        if aig_var not in gates:
            return self._leaf_var(aig_var)

        # Iterative topological encoding of the AND cone rooted at aig_var:
        # a gate is encoded once both fanins have CNF variables.  Leaves get
        # theirs on the first visit of a gate reading them, left fanin first.
        new_var = self._new_var
        on_gate = self.on_gate
        stack = [aig_var]
        while stack:
            var = stack[-1]
            if var in var_map:
                stack.pop()
                continue
            gate = gates[var]
            left_lit = gate.left
            right_lit = gate.right
            pending = False
            for u in (left_lit >> 1, right_lit >> 1):
                if u == 0 or u in var_map:
                    continue
                if u in gates:
                    stack.append(u)
                    pending = True
                else:
                    self._leaf_var(u)
            if pending:
                continue
            out = new_var()
            var_map[var] = out
            if on_gate is not None:
                on_gate(var)
            left = self._lit_shallow(left_lit, batch)
            right = self._lit_shallow(right_lit, batch)
            batch.append([-out, left])
            batch.append([-out, right])
            batch.append([out, -left, -right])
            stack.pop()
        return var_map[aig_var]

    def _lit_shallow(self, aig_lit: int, batch: List[List[int]]) -> int:
        var = aig_lit >> 1
        cnf_var = self._var_map[var] if var else self._const_false_var(batch)
        return -cnf_var if aig_lit & 1 else cnf_var


def encode_combinational(
    aig: Aig,
    roots: Sequence[int],
) -> Tuple[Cnf, List[int], Dict[int, int]]:
    """Encode the combinational cones of ``roots`` into a standalone CNF.

    Returns ``(cnf, root_literals, var_map)`` where ``var_map`` maps AIG
    variables to CNF variables.  Intended for one-shot combinational checks
    (equivalence, containment) and for the test-suite.
    """
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf.new_var, cnf.extend, allocate_leaves=True)
    root_lits = encoder.encode_roots(roots)
    return cnf, root_lits, encoder.var_map()
