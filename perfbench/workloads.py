"""The benchmark's workloads: which cells run, and how each answer is checked.

A *cell* is one engine on one circuit, timed from engine construction to a
checked verdict.  Every cell goes through the public API only
(:func:`repro.core.run_engine` with default :class:`~repro.core.EngineOptions`
plus the deterministic budgets of ``benchmarks/budgets.py``, or
:class:`repro.bmc.engine.BmcEngine` with its defaults), so preprocessing and
trace lift-back stay inside the cell, as a user pays them on every run.
There is no wall-clock limit anywhere: whether a cell answers is the same
on every machine.

Workloads
---------
``itp_deep``
    The four interpolation engines on five PASS circuits whose proofs are
    deep.  Proof-logged solves, proof trimming, extraction, compaction and
    containment checks do the work.  The seed only shuffles cell order.
``pdr_deep``
    PDR on five PASS circuits plus incremental BMC on five FAIL circuits:
    the SAT kernel on persistent, proof-free solvers, with no interpolation
    at all.  The seed only shuffles cell order.
``fuzz_small``
    All six front-ends on the planted-oracle fuzz circuits of generator
    seeds ``0 .. FUZZ_INSTANCES - 1``: hundreds of millisecond cells, so
    fixed per-cell costs weigh most.  The seed only shuffles cell order.
    (Drawing the generator seeds from the workload seed was measured and
    rejected: one fuzz circuit costs 0.23 s on average with a standard
    deviation of 0.34 s, so a pass over 60 freshly drawn circuits varies by
    about 19% between workload seeds, and its wall clock could not gate a
    change.)
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import speed

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent

#: Deepening horizon of every BMC cell.  It covers the deepest planted fuzz
#: failure (depth 8) and the deepest suite FAIL row used here
#: (``red_dup10bug``, depth 10).
BMC_DEPTH = 10

#: Number of fuzz circuits in ``fuzz_small`` (generator seeds 0 .. 59).
FUZZ_INSTANCES = 60

ITP_ENGINES = ("itp", "itpseq", "sitpseq", "itpseqcba")
ITP_CIRCUITS = ("indA1_ring12", "indB1_arb08", "modcnt12", "traffic2", "ring06")
PDR_CIRCUITS = ("indA1_ring12", "indB1_arb08", "ring06", "arb05", "modcnt12")
BMC_CIRCUITS = ("cnt08", "indE1_lock05", "red_dup10bug", "queue02bug",
                "red_dead08bug")
#: The six front-ends: the UMC engine registry plus plain BMC.
FRONT_ENDS = ("itp", "itpseq", "sitpseq", "itpseqcba", "pdr", "bmc")

WORKLOADS = ("itp_deep", "pdr_deep", "fuzz_small")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def prepare_imports() -> None:
    """Make the checkout's ``src/repro`` importable, or raise."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_budgets() -> Tuple[int, int]:
    """``(CLAUSE_BUDGET, PROP_BUDGET)`` from the repo's ``benchmarks/budgets.py``."""
    path = ROOT / "benchmarks" / "budgets.py"
    if not path.is_file():
        raise MissingProgram(f"no budget file at {path}")
    spec = importlib.util.spec_from_file_location("_perfbench_budgets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLAUSE_BUDGET, module.PROP_BUDGET


@dataclass(frozen=True, order=True)
class Cell:
    """One engine on one circuit (a suite name, or ``fuzz_s<seed>``)."""

    engine: str
    instance: str

    def label(self) -> str:
        return f"{self.engine}/{self.instance}"


def workload_cells(workload: str) -> List[Cell]:
    """The cells of a workload, in canonical (unshuffled) order."""
    if workload == "itp_deep":
        return [Cell(e, c) for c in ITP_CIRCUITS for e in ITP_ENGINES]
    if workload == "pdr_deep":
        return ([Cell("pdr", c) for c in PDR_CIRCUITS]
                + [Cell("bmc", c) for c in BMC_CIRCUITS])
    if workload == "fuzz_small":
        return [Cell(e, f"fuzz_s{s}") for s in range(FUZZ_INSTANCES)
                for e in FRONT_ENDS]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def build_models(cells: Sequence[Cell]) -> Dict[str, tuple]:
    """Build every circuit the cells name: ``{name: (model, suite row)}``."""
    from repro.circuits import get_instance

    built: Dict[str, tuple] = {}
    for cell in cells:
        if cell.instance not in built:
            row = get_instance(cell.instance)
            built[cell.instance] = (row.build(), row)
    return built


@dataclass(frozen=True)
class Outcome:
    """What a cell answered, and whether that answer was right.

    ``effort`` is the run's propagation count; BMC results carry no
    propagation count, so BMC cells report their conflict count instead.
    Together with the clause count it makes a behaviour change visible in
    the fingerprint even when the verdict stays the same.
    """

    verdict: str
    k_fp: Optional[int]
    j_fp: Optional[int]
    clauses_added: int
    effort: int
    problem: Optional[str] = None

    def key(self) -> tuple:
        return (self.verdict, self.k_fp, self.j_fp, self.clauses_added,
                self.effort)


def _problem(engine: str, outcome: Outcome, trace, model, row) -> Optional[str]:
    """Compare an answer with the suite's recorded (or planted) oracle."""
    want = row.expected
    if engine == "bmc" and want == "pass":
        want = "no_cex"
    if outcome.verdict != want:
        return f"answered {outcome.verdict}, expected {want}"
    if row.expected == "fail":
        if outcome.k_fp != row.expected_depth:
            return f"failed at depth {outcome.k_fp}, expected {row.expected_depth}"
        if trace is None or not trace.check(model):
            return "counterexample trace does not replay on the unreduced model"
    return None


def run_cell(cell: Cell, model, row, options) -> Tuple[Outcome, object]:
    """Run one cell to a checked verdict: ``(outcome, engine stats or None)``.

    Never raises: an exception is a failed cell, not an aborted run.
    """
    from repro.bmc.engine import BmcEngine
    from repro.core import run_engine

    try:
        if cell.engine == "bmc":
            result = BmcEngine(model).run(max_depth=BMC_DEPTH)
            outcome = Outcome(result.status, result.depth, None,
                              result.clause_additions, result.conflicts)
            stats = None
        else:
            result = run_engine(cell.engine, model, options)
            stats = result.stats
            outcome = Outcome(result.verdict.value, result.k_fp, result.j_fp,
                              stats.clauses_added, stats.propagations)
        problem = _problem(cell.engine, outcome, result.trace, model, row)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed cell
        return Outcome("error", None, None, 0, 0,
                       f"{type(exc).__name__}: {exc}"), None
    if problem is not None:
        outcome = Outcome(*outcome.key(), problem=problem)
    return outcome, stats


def engine_options():
    """Default options plus the deterministic budgets: the only change."""
    from repro.core import EngineOptions

    clause_budget, prop_budget = load_budgets()
    return EngineOptions(max_clauses=clause_budget,
                         max_propagations=prop_budget)


@dataclass
class PassRecord:
    """One pass over every cell: per-cell wall time, outcome and stats.

    ``seconds`` is the sum of the cells' wall times: the pass as a user
    would wait for it, without the collections the harness runs between
    cells.  ``speed`` is the pass's :meth:`speed.SpeedSampler.factor`
    (1.0 when no sampler ran), and ``reference_seconds`` the pass at the
    reference speed.
    """

    seconds: float
    times: Dict[Cell, float]
    outcomes: Dict[Cell, Outcome]
    stats: Dict[Cell, object]
    speed: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return speed.at_reference(self.seconds, self.speed)


def run_pass(cells: Sequence[Cell], models: Dict[str, tuple], options,
             rng: random.Random, tracer=None, sampler=None) -> PassRecord:
    """Run every cell once, in an order shuffled by ``rng``.

    ``tracer`` is an installed :class:`layers.LayerTracer` for a traced
    pass; its cell span covers exactly the timed region.  ``sampler`` is an
    entered :class:`speed.SpeedSampler` for an untraced pass: it samples
    only while a cell runs, and its kernel time is taken out of the cell's.
    """
    order = list(cells)
    rng.shuffle(order)
    times: Dict[Cell, float] = {}
    outcomes: Dict[Cell, Outcome] = {}
    stats: Dict[Cell, object] = {}
    first_sample = 0 if sampler is None else len(sampler.samples)
    for cell in order:
        model, row = models[cell.instance]
        # Start every cell from a heap without the previous cells' garbage,
        # as a fresh process would; the collection itself is not timed.
        gc.collect()
        if tracer is not None:
            with tracer.cell() as span:
                outcomes[cell], stats[cell] = run_cell(cell, model, row,
                                                       options)
            times[cell] = span.seconds
        elif sampler is not None:
            since = len(sampler.samples)
            sampler.active = True
            t0 = time.perf_counter()
            outcomes[cell], stats[cell] = run_cell(cell, model, row, options)
            t1 = time.perf_counter()
            sampler.active = False
            times[cell] = t1 - t0 - sampler.spent(since, t0, t1)
        else:
            t0 = time.perf_counter()
            outcomes[cell], stats[cell] = run_cell(cell, model, row, options)
            times[cell] = time.perf_counter() - t0
    speed = 1.0 if sampler is None else sampler.factor(first_sample)
    return PassRecord(sum(times.values()), times, outcomes, stats, speed)


def fingerprint(outcomes: Dict[Cell, Outcome]) -> str:
    """A short hash over every cell's (verdict, k_fp, j_fp, clauses, effort)."""
    rows = [[cell.engine, cell.instance, *outcomes[cell].key()]
            for cell in sorted(outcomes)]
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8"))
    return digest.hexdigest()[:16]
