"""The encoder's clause batches against a textbook per-gate reference.

``TseitinEncoder.literal`` hands its sink the clauses of one call as one
batch.  Concatenated, the batches must be exactly the clauses a recursive
per-gate encoder emits one at a time — same CNF variables, same clause
order, the constant's unit clause at the point the constant is first
referenced — with both leaf policies, and also when an undeclared leaf
stops the encoding half-way.
"""

import itertools
import random

import pytest

from repro.aig import Aig
from repro.aig.aig import AndGate
from repro.cnf import TseitinEncoder


class ReferenceEncoder:
    """Emits one clause at a time, recursively.

    A gate's order is the encoder's contract: on the first visit its
    undeclared leaf fanins get CNF variables (left first), then its gate
    fanins are encoded right first, then the gate takes the next variable
    and emits ``(-out, left)``, ``(-out, right)``, ``(out, -left, -right)``.
    The constant takes a variable, and emits its unit clause, the first time
    it is referenced.
    """

    def __init__(self, aig, new_var, allocate_leaves):
        self.aig = aig
        self.new_var = new_var
        self.allocate_leaves = allocate_leaves
        self.var_map = {}
        self.const_var = None
        self.clauses = []

    def declare_leaf(self, aig_var, cnf_var):
        self.var_map[aig_var] = cnf_var

    def literal(self, aig_lit):
        var = aig_lit >> 1
        cnf_var = self._const() if var == 0 else self._encode(var)
        return -cnf_var if aig_lit & 1 else cnf_var

    def _const(self):
        if self.const_var is None:
            self.const_var = self.new_var()
            self.clauses.append([-self.const_var])
        return self.const_var

    def _leaf(self, var):
        if not self.allocate_leaves:
            raise KeyError(var)
        self.var_map[var] = self.new_var()

    def _encode(self, var):
        if var in self.var_map:
            return self.var_map[var]
        if not self.aig.is_and(var):
            self._leaf(var)
            return self.var_map[var]
        gate = self.aig.and_gate(var)
        pending = []
        for u in (gate.left >> 1, gate.right >> 1):
            if u == 0 or u in self.var_map:
                continue
            if self.aig.is_and(u):
                pending.append(u)
            else:
                self._leaf(u)
        for u in reversed(pending):
            self._encode(u)
        out = self.var_map[var] = self.new_var()
        left = self._fanin(gate.left)
        right = self._fanin(gate.right)
        self.clauses.append([-out, left])
        self.clauses.append([-out, right])
        self.clauses.append([out, -left, -right])
        return out

    def _fanin(self, aig_lit):
        var = aig_lit >> 1
        cnf_var = self._const() if var == 0 else self.var_map[var]
        return -cnf_var if aig_lit & 1 else cnf_var


def _raw_and(aig, left, right):
    """A gate ``add_and`` would have simplified away (a constant fanin):
    the encoder must still encode it as it stands."""
    var = aig.new_var()
    aig._ands[var] = AndGate(var=var, left=left, right=right)
    aig._and_order.append(var)
    return 2 * var


def _random_aig(rng):
    aig = Aig()
    leaves = [aig.add_input() for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 3)):
        leaves.append(aig.add_latch(init=0))
    lits = list(leaves)
    for _ in range(rng.randint(5, 40)):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        if rng.random() < 0.08:
            lits.append(_raw_and(aig, rng.randint(0, 1), a))
            continue
        b = rng.choice(lits) ^ rng.randint(0, 1)
        out = aig.add_and(a, b)
        if out > 1:
            lits.append(out)
    return aig, leaves, lits


@pytest.mark.parametrize("allocate_leaves", [True, False])
def test_batches_match_the_reference_clause_for_clause(allocate_leaves):
    calls = failures = const_units = 0
    for seed in range(60):
        rng = random.Random(seed)
        aig, leaves, lits = _random_aig(rng)
        counters = [itertools.count(1), itertools.count(1)]
        batches = []
        encoder = TseitinEncoder(aig, lambda: next(counters[0]),
                                 batches.append, allocate_leaves=allocate_leaves)
        reference = ReferenceEncoder(aig, lambda: next(counters[1]),
                                     allocate_leaves)
        cnf_var = itertools.count(1000)
        for leaf in leaves:
            if not allocate_leaves and rng.random() < 0.85:
                declared = next(cnf_var)
                encoder.declare_leaf(leaf >> 1, declared)
                reference.declare_leaf(leaf >> 1, declared)
        roots = [rng.choice(lits + [0, 1]) ^ rng.randint(0, 1)
                 for _ in range(rng.randint(1, 8))]
        for root in roots:
            before = len(reference.clauses)
            batches_before = len(batches)
            try:
                expected = reference.literal(root)
            except KeyError:
                with pytest.raises(KeyError):
                    encoder.literal(root)
                failures += 1
            else:
                assert encoder.literal(root) == expected
            calls += 1
            emitted = batches[batches_before:]
            # One call, at most one batch, and never an empty one.
            assert len(emitted) <= 1 and all(emitted)
            assert sum(emitted, []) == reference.clauses[before:]
            assert encoder.var_map() == reference.var_map
        const_units += reference.const_var is not None
        assert sum(batches, []) == reference.clauses
    assert calls > 200 and const_units > 10
    if not allocate_leaves:
        assert failures > 10


def test_undeclared_leaf_leaves_every_encoded_gate_with_its_clauses():
    aig = Aig()
    a, b, c = (aig.add_input() for _ in range(3))
    g0 = aig.add_and(c, a)           # c stays undeclared
    g1 = aig.add_and(a, b)
    g2 = aig.add_and(g1, a ^ 1)
    # The right fanin, g2, is encoded first; g0 then meets the leaf c.
    root = aig.add_and(g0, g2)
    counter = itertools.count(1)
    batches = []
    encoder = TseitinEncoder(aig, lambda: next(counter), batches.append,
                             allocate_leaves=False)
    encoder.declare_leaf(a >> 1, next(counter))
    encoder.declare_leaf(b >> 1, next(counter))
    with pytest.raises(KeyError):
        encoder.literal(root)
    gates = {var: cnf for var, cnf in encoder.var_map().items()
             if aig.is_and(var)}
    assert set(gates) == {g1 >> 1, g2 >> 1}
    clauses = sum(batches, [])
    assert len(batches) == 1 and len(clauses) == 3 * len(gates)
    for out in gates.values():
        assert sum(-out in clause or out in clause for clause in clauses) >= 3
