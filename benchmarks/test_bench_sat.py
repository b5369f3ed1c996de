"""Benchmark: SAT difficulty of the bound-k / exact-k / assume-k formulations.

Section III argues that the bound-k checks required by standard
interpolation yield harder unsatisfiable SAT instances (and larger
refutations) than the exact-k and assume-k formulations used by
interpolation sequences.  This benchmark measures, at a fixed depth on
unsatisfiable instances, the solver runtime, conflict counts and proof
sizes of the three formulations.
"""

import cProfile
import pstats
import statistics
import time

import pytest

from budgets import CLAUSE_BUDGET, PROP_BUDGET
from repro.bmc import BmcCheckKind, build_check
from repro.circuits import get_instance
from repro.core import EngineOptions, run_engine
from repro.harness import drop_time_columns, format_table
from repro.sat import CdclSolver, SatResult, SolverStats

pytestmark = pytest.mark.benchmark(group="sat-checks")

CASES = [
    ("modcnt12", 8),
    ("parity05", 6),
    ("ring06", 6),
    ("queue02", 6),
]


def _measure(instance_name, depth):
    instance = get_instance(instance_name)
    rows = []
    for kind in (BmcCheckKind.BOUND, BmcCheckKind.EXACT, BmcCheckKind.ASSUME):
        model = instance.build()
        started = time.monotonic()
        unroller = build_check(kind, model, depth, proof_logging=True)
        result = unroller.solver.solve()
        elapsed = time.monotonic() - started
        assert result is SatResult.UNSAT, (instance_name, kind)
        proof = unroller.solver.proof()
        rows.append([kind.value, round(elapsed, 4),
                     unroller.solver.stats.conflicts,
                     unroller.solver.stats.decisions,
                     len(proof.core_ids()), len(proof)])
    return rows


@pytest.mark.parametrize("name,depth", CASES)
def test_check_formulation_difficulty(benchmark, save_artifact, save_timing,
                                      name, depth):
    rows = benchmark.pedantic(_measure, args=(name, depth), rounds=1, iterations=1)
    headers = ["check", "time", "conflicts", "decisions", "core_clauses",
               "proof_clauses"]
    title = f"BMC check formulations on {name} at k={depth}"
    save_timing(f"sat_checks_{name}.txt", format_table(headers, rows, title=title))
    det_headers, det_rows = drop_time_columns(headers, rows)
    save_artifact(f"sat_checks_{name}.txt",
                  format_table(det_headers, det_rows, title=title))


def test_solver_throughput_on_unrolling(benchmark):
    """Raw solver throughput on one representative UNSAT unrolling."""
    instance = get_instance("modcnt12")

    def solve_once():
        model = instance.build()
        unroller = build_check(BmcCheckKind.ASSUME, model, 8, proof_logging=False)
        assert unroller.solver.solve() is SatResult.UNSAT
        return unroller.solver.stats.conflicts

    benchmark(solve_once)


class _CountingSolver:
    """Stands in for the solver: hands out variables and counts clauses, so
    a build measures the encoder's own traversal and clause lists."""

    def __init__(self):
        self.num_vars = 0
        self.stats = SolverStats()

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add_cnf(self, clauses, partition=None, group=None):
        self.stats.clauses_added += len(clauses)

    def add_clause(self, literals, partition=None, group=None):
        self.stats.clauses_added += 1


def _ingest_cost(make_solver, rounds=21):
    """Clauses in the modcnt12 k=8 assume-k check and the median µs per
    clause of encoding it into a fresh ``make_solver()`` (no solve)."""
    instance = get_instance("modcnt12")
    samples = []
    for _ in range(rounds):
        model = instance.build()
        started = time.perf_counter()
        unroller = build_check(BmcCheckKind.ASSUME, model, 8,
                               solver=make_solver())
        elapsed = time.perf_counter() - started
        clauses = unroller.solver.stats.clauses_added
        samples.append(elapsed * 1e6 / clauses)
    return clauses, statistics.median(samples)


def test_clause_ingest_cost_per_clause(benchmark, save_timing):
    """Clause ingest cost split by layer: the encoder alone (a counting stub
    for the solver), then the solver with proof logging off and on.  The
    ``added`` column is each row's cost over the row above it: traversal,
    solver bookkeeping, proof logging.

    Wall clock only, so it goes to the untracked timing directory.
    """
    def measure():
        rows = []
        previous = 0.0
        for label, make_solver in (
                ("encode only", _CountingSolver),
                ("logging off", lambda: CdclSolver(proof_logging=False)),
                ("logging on", lambda: CdclSolver(proof_logging=True))):
            clauses, cost = _ingest_cost(make_solver)
            rows.append([label, clauses, round(cost, 2),
                         round(cost - previous, 2)])
            previous = cost
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert rows[0][1] == rows[1][1] == rows[2][1]
    save_timing("sat_ingest_modcnt12.txt", format_table(
        ["ingest", "clauses", "us_per_clause", "added"], rows,
        title="Clause ingest on modcnt12, assume-k check at k=8 (no solve)"))


#: The order queue's own functions: the solver's methods, and the C-level
#: heapq calls as the profiler names them.
_QUEUE_FUNCTIONS = ("_pick_branch", "_heap_rebuild",
                    "<built-in method _heapq.heappush>",
                    "<built-in method _heapq.heappop>",
                    "<built-in method _heapq.heapify>")


def _run_pdr(instance_name):
    options = EngineOptions(max_clauses=CLAUSE_BUDGET,
                            max_propagations=PROP_BUDGET)
    result = run_engine("pdr", get_instance(instance_name).build(), options)
    assert result.verdict.value == "pass"


def _queue_share(instance_name):
    """The order queue's share of ``CdclSolver.solve`` time, under cProfile."""
    profile = cProfile.Profile()
    profile.runcall(_run_pdr, instance_name)
    queue = solve = 0.0
    for (filename, _, name), (_, _, own, total, _) in \
            pstats.Stats(profile).stats.items():
        if name in _QUEUE_FUNCTIONS:
            queue += own
        elif name == "solve" and filename.endswith("solver.py"):
            solve += total
    return queue / solve


def test_pdr_query_stream(benchmark, save_timing, monkeypatch):
    """PDR's query stream on one persistent solver: thousands of short,
    almost conflict-free assumption solves, where picking decisions is a
    large part of the work.  Reports solves/s, decisions/s and
    propagations/s (the kernel's own rate) from a plain run and the order
    queue's share of solve time from a profiled one.

    Wall clock only, so it goes to the untracked timing directory.
    """
    instance_name = "indB1_arb08"
    totals = {"solves": 0, "decisions": 0, "propagations": 0, "seconds": 0.0}
    solve = CdclSolver.solve

    def timed(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return solve(self, *args, **kwargs)
        finally:
            totals["seconds"] += time.perf_counter() - started
            totals["solves"] += 1
            totals["decisions"] += self.last_call_stats.decisions
            totals["propagations"] += self.last_call_stats.propagations

    def measure():
        with monkeypatch.context() as patch:
            patch.setattr(CdclSolver, "solve", timed)
            _run_pdr(instance_name)
        return _queue_share(instance_name)

    share = benchmark.pedantic(measure, rounds=1, iterations=1)
    # PDR's 598 queries plus the preprocessing pass's one fraig miter solve.
    assert totals["solves"] == 599
    seconds = totals["seconds"]
    rows = [[instance_name, totals["solves"], totals["decisions"],
             totals["propagations"], round(seconds, 3),
             round(totals["solves"] / seconds),
             round(totals["decisions"] / seconds),
             round(totals["propagations"] / seconds), round(share, 3)]]
    save_timing(f"sat_pdr_queries_{instance_name}.txt", format_table(
        ["instance", "solves", "decisions", "propagations", "solve_s",
         "solves_per_s", "decisions_per_s", "propagations_per_s",
         "queue_share"], rows,
        title="PDR query stream: solve rate and order-queue share "
              "(profiled) of solve time"))
