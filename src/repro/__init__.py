"""repro — a reproduction of "Interpolation Sequences Revisited" (DATE 2011).

The package provides, in pure Python:

* an And-Inverter-Graph circuit substrate with AIGER I/O (:mod:`repro.aig`);
* a proof-logging CDCL SAT solver (:mod:`repro.sat`) and Tseitin encoding
  (:mod:`repro.cnf`);
* Craig interpolation and interpolation sequences over resolution proofs
  (:mod:`repro.itp`);
* bounded model checking with the bound-k / exact-k / assume-k check
  formulations (:mod:`repro.bmc`);
* an *incremental* solving subsystem: clause additions between solver
  calls, activation-literal clause groups
  (:meth:`CdclSolver.new_group <repro.sat.solver.CdclSolver.new_group>` /
  :meth:`release_group <repro.sat.solver.CdclSolver.release_group>`),
  learned-clause / VSIDS / phase persistence across calls, per-call
  :class:`~repro.sat.types.SolverStats` snapshots, and
  :class:`~repro.bmc.incremental.IncrementalUnroller` — one persistent
  solver across all BMC unrolling depths, behind every engine's
  counterexample search — :class:`BmcEngine` included, which runs on the
  same engine base (:class:`~repro.core.base.UmcEngine`) as the engines
  below;
* the four unbounded model-checking engines compared in the paper —
  standard interpolation, interpolation sequences, serial interpolation
  sequences and interpolation sequences with counterexample-based
  abstraction (:mod:`repro.core`, :mod:`repro.abstraction`) — plus an
  IC3/PDR engine (:mod:`repro.pdr`), the portfolio's structurally
  different prover: unbounded proofs from relative-inductive frames on a
  single persistent solver, with no unrolling at all;
* a model-preprocessing pipeline (:mod:`repro.preprocess`): composable
  passes — cone-of-influence reduction, ternary-simulation stuck-latch
  sweeping, structural rewriting, SAT sweeping (fraiging) — run by every
  engine before any encoding, with counterexample lift-back
  to the original variables;
* a BDD engine for exact reachability and circuit diameters
  (:mod:`repro.bdd`);
* synthetic benchmark circuits and the experiment harness regenerating the
  paper's Table I, Fig. 6 and Fig. 7 (:mod:`repro.circuits`,
  :mod:`repro.harness`);
* a structured-tracing subsystem (:mod:`repro.obs`): nested span events
  with deterministic SAT counter deltas, JSONL sinks, per-module loggers
  under the ``repro`` hierarchy, and the ``python -m repro.obs.report``
  trace analyser.

Following library convention, the ``repro`` logger hierarchy carries a
``NullHandler``: the package never configures logging on import, and the
CLI's ``-v``/``-vv`` flags (or :func:`repro.obs.logcfg.configure_logging`)
opt into stderr output.

Quickstart
----------
>>> from repro.circuits import token_ring
>>> from repro.core import run_engine
>>> result = run_engine("itpseq", token_ring(4))
>>> result.verdict.value
'pass'
"""

import logging as _logging

_logging.getLogger("repro").addHandler(_logging.NullHandler())

from .aig import Aig, AigBuilder, Model, read_aag, write_aag  # noqa: E402
from .bmc import BmcCheckKind, BmcEngine, IncrementalUnroller, Trace
from .preprocess import ModelMap, Pipeline, build_pipeline
from .core import (
    ENGINES,
    EngineOptions,
    ItpEngine,
    ItpSeqCbaEngine,
    ItpSeqEngine,
    PdrEngine,
    Portfolio,
    SerialItpSeqEngine,
    Verdict,
    VerificationResult,
    run_engine,
)
from .sat import CdclSolver, SatResult

__version__ = "0.1.0"

__all__ = [
    "Aig",
    "AigBuilder",
    "Model",
    "read_aag",
    "write_aag",
    "BmcCheckKind",
    "BmcEngine",
    "IncrementalUnroller",
    "Trace",
    "ModelMap",
    "Pipeline",
    "build_pipeline",
    "ENGINES",
    "EngineOptions",
    "ItpEngine",
    "ItpSeqCbaEngine",
    "ItpSeqEngine",
    "PdrEngine",
    "Portfolio",
    "SerialItpSeqEngine",
    "Verdict",
    "VerificationResult",
    "run_engine",
    "CdclSolver",
    "SatResult",
    "__version__",
]
