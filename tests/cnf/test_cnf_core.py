"""Unit tests for the clause and CNF containers."""

import pytest
from hypothesis import given, strategies as st

from repro.cnf import Clause, Cnf


def test_clause_normalisation_and_membership():
    clause = Clause([3, -1, 3, 2])
    assert len(clause) == 3
    assert -1 in clause
    assert 3 in clause
    assert 1 not in clause
    assert clause.variables() == {1, 2, 3}
    assert not clause.is_tautology


def test_clause_tautology_detection():
    assert Clause([1, -1, 2]).is_tautology
    assert not Clause([1, 2]).is_tautology


@given(st.lists(st.integers(-12, 12).filter(bool), max_size=12))
def test_clause_keeps_the_reference_normal_form(lits):
    reference = tuple(sorted(set(lits), key=lambda l: (abs(l), l < 0)))
    clause = Clause(lits)
    assert clause.literals == reference
    assert clause.is_tautology == (len({abs(l) for l in lits}) != len(reference))


def test_clause_equality_and_hash():
    assert Clause([2, 1]) == Clause([1, 2, 2])
    assert hash(Clause([2, 1])) == hash(Clause([1, 2]))
    assert Clause([1]) != Clause([-1])


def test_clause_rejects_zero_literal():
    with pytest.raises(ValueError):
        Clause([1, 0])


def test_clause_resolution():
    c1 = Clause([1, 2])
    c2 = Clause([-1, 3])
    resolvent = c1.resolve(c2, 1)
    assert set(resolvent.literals) == {2, 3}
    # Order of operands must not matter.
    assert set(c2.resolve(c1, 1).literals) == {2, 3}


def test_clause_resolution_requires_opposite_signs():
    with pytest.raises(ValueError):
        Clause([1, 2]).resolve(Clause([1, 3]), 1)
    with pytest.raises(ValueError):
        Clause([1, 2]).resolve(Clause([-3]), 3)


def test_clause_satisfaction():
    clause = Clause([1, -2])
    assert clause.is_satisfied_by({1: True, 2: True})
    assert clause.is_satisfied_by({1: False, 2: False})
    assert not clause.is_satisfied_by({1: False, 2: True})


def test_cnf_construction_and_variables():
    cnf = Cnf([[1, -2], [2, 3]])
    assert len(cnf) == 2
    assert cnf.num_vars == 3
    assert cnf.variables() == {1, 2, 3}
    cnf.add_clause([5])
    assert cnf.num_vars == 5


def test_cnf_new_var_and_copy():
    cnf = Cnf(num_vars=2)
    assert cnf.new_var() == 3
    copy = cnf.copy()
    copy.add_clause([1, 2])
    assert len(cnf) == 0
    assert len(copy) == 1


def test_cnf_satisfaction():
    cnf = Cnf([[1, 2], [-1, 2]])
    assert cnf.is_satisfied_by({1: True, 2: True})
    assert not cnf.is_satisfied_by({1: True, 2: False})
