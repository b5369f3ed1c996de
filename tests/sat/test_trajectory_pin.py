"""Exact SAT-kernel trajectories of PDR and BMC runs.

A change to ``CdclSolver`` or to the order of an engine's assumptions may
move the solver's decisions, propagations, conflicts and learned clauses
(the kept assumption trail of :mod:`repro.sat.solver` makes them depend on
that order), but it must say so.  These runs sum each solve's
``last_call_stats`` over the whole run — preprocessing solvers included —
and pin the totals, so an *unannounced* trajectory move fails here, on
every interpreter, instead of only in the benchmark fingerprints.  A change
that moves them on purpose re-pins them and lists the old and new values.

The PDR runs use the deterministic budgets of ``benchmarks/budgets.py``,
as the benchmark cells do.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.bmc.engine import BmcEngine
from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine
from repro.sat import CdclSolver

_BUDGETS = Path(__file__).resolve().parents[2] / "benchmarks" / "budgets.py"

COUNTERS = ("solve_calls", "decisions", "propagations", "conflicts",
            "clauses_added")


def _budget_options():
    spec = importlib.util.spec_from_file_location("_pin_budgets", _BUDGETS)
    budgets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(budgets)
    return EngineOptions(max_clauses=budgets.CLAUSE_BUDGET,
                         max_propagations=budgets.PROP_BUDGET)


@pytest.fixture
def solver_totals(monkeypatch):
    """Sum every solve's per-call counters while the test runs."""
    totals = dict.fromkeys(COUNTERS, 0)
    solve = CdclSolver.solve

    def counted(self, *args, **kwargs):
        try:
            return solve(self, *args, **kwargs)
        finally:
            call = self.last_call_stats
            for name in COUNTERS:
                totals[name] += getattr(call, name)

    monkeypatch.setattr(CdclSolver, "solve", counted)
    return totals


@pytest.mark.parametrize("name,expected", [
    ("ring06", {"solve_calls": 322, "decisions": 780, "propagations": 15803,
                "conflicts": 95, "clauses_added": 507}),
    ("arb05", {"solve_calls": 197, "decisions": 1127, "propagations": 6552,
               "conflicts": 33, "clauses_added": 303}),
])
def test_pdr_trajectory(solver_totals, name, expected):
    result = run_engine("pdr", get_instance(name).build(), _budget_options())
    assert result.verdict.value == "pass"
    assert solver_totals == expected
    stats = result.stats
    assert (stats.sat_calls, stats.propagations, stats.conflicts,
            stats.clauses_added) == (expected["solve_calls"],
                                     expected["propagations"],
                                     expected["conflicts"],
                                     expected["clauses_added"])


def test_bmc_trajectory(solver_totals):
    result = BmcEngine(get_instance("cnt08").build()).run(max_depth=10)
    assert (result.status, result.depth) == ("fail", 8)
    assert solver_totals == {"solve_calls": 9, "decisions": 15,
                             "propagations": 1159, "conflicts": 15,
                             "clauses_added": 725}
    assert (result.conflicts, result.clause_additions) == (15, 725)
