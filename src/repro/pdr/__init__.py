"""IC3/PDR: property-directed reachability without unrolling.

The subsystem behind :class:`~repro.core.pdr_engine.PdrEngine` — a
structurally different prover from the interpolation engines: instead of
refuting ever-deeper BMC unrollings, it strengthens a sequence of
relative-inductive frames F_0..F_k over a *single* copy of the transition
relation, answering thousands of shallow SAT queries on one persistent
incremental solver.

* :class:`FrameSequence` — the frames, their per-level activation-literal
  clause groups, every SAT query (bad-state, relative induction, clause
  pushing) and cube lifting by ternary simulation;
* :class:`ProofObligation` / :class:`ObligationQueue` — the backward
  counterexample search;
* :func:`generalize` — inductive generalization by literal dropping.
"""

from .frames import Cube, FrameSequence
from .generalize import generalize
from .obligations import ObligationQueue, ProofObligation

__all__ = [
    "Cube",
    "FrameSequence",
    "generalize",
    "ObligationQueue",
    "ProofObligation",
]
