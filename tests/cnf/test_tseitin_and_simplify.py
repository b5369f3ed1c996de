"""Tests for the Tseitin encoder."""

import itertools

import pytest

from repro.aig import Aig, lit_negate, lit_var, lit_value, simulate_comb
from repro.cnf import Cnf, TseitinEncoder, encode_combinational
from repro.sat import CdclSolver, SatResult


def _build_example_aig():
    aig = Aig()
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    f = aig.op_or(aig.add_and(a, b), aig.op_xor(b, c))
    return aig, (a, b, c), f


def test_encode_combinational_equisatisfiable_with_simulation():
    aig, (a, b, c), f = _build_example_aig()
    cnf, roots, var_map = encode_combinational(aig, [f])
    root = roots[0]
    # For every input assignment, the CNF with inputs fixed must be SAT with
    # the root literal taking exactly the simulated value.
    for values in itertools.product([0, 1], repeat=3):
        solver = CdclSolver()
        for clause in cnf.clauses:
            solver.add_clause(list(clause.literals))
        for lit, value in zip((a, b, c), values):
            cnf_var = var_map[lit_var(lit)]
            solver.add_clause([cnf_var if value else -cnf_var])
        expected = lit_value(simulate_comb(aig, {lit_var(lit): v for lit, v
                                                 in zip((a, b, c), values)}), f)
        solver.add_clause([root if expected else -root])
        assert solver.solve() is SatResult.SAT
        # And forcing the opposite value must be UNSAT.
        solver2 = CdclSolver()
        for clause in cnf.clauses:
            solver2.add_clause(list(clause.literals))
        for lit, value in zip((a, b, c), values):
            cnf_var = var_map[lit_var(lit)]
            solver2.add_clause([cnf_var if value else -cnf_var])
        solver2.add_clause([-root if expected else root])
        assert solver2.solve() is SatResult.UNSAT


def test_encoder_caches_gates_across_roots():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    h = aig.op_or(g, a)
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf.new_var, cnf.extend)
    first = encoder.literal(g)
    clauses_after_first = len(cnf)
    second = encoder.literal(g)
    assert first == second
    assert len(cnf) == clauses_after_first
    encoder.literal(h)          # re-uses g's encoding
    assert len(cnf) > clauses_after_first


def test_encoder_constant_literals():
    aig = Aig()
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf.new_var, cnf.extend)
    false_lit = encoder.literal(0)
    true_lit = encoder.literal(1)
    assert false_lit == -true_lit
    solver = CdclSolver()
    for clause in cnf.clauses:
        solver.add_clause(list(clause.literals))
    solver.add_clause([true_lit])
    assert solver.solve() is SatResult.SAT
    solver.add_clause([false_lit])
    assert solver.solve() is SatResult.UNSAT


def test_encoder_without_leaf_allocation_requires_declaration():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    cnf = Cnf()
    encoder = TseitinEncoder(aig, cnf.new_var, cnf.extend,
                             allocate_leaves=False)
    with pytest.raises(KeyError):
        encoder.literal(g)
    encoder.declare_leaf(lit_var(a), cnf.new_var())
    encoder.declare_leaf(lit_var(b), cnf.new_var())
    assert encoder.literal(g) != 0
    assert encoder.has_var(lit_var(a))
    assert lit_var(a) in encoder.var_map()


def test_negated_root_encoding():
    aig = Aig()
    a = aig.add_input()
    b = aig.add_input()
    g = aig.add_and(a, b)
    cnf, roots, var_map = encode_combinational(aig, [lit_negate(g)])
    assert roots[0] < 0

